#include "rodain/storage/checkpoint.hpp"

#include <cstdio>
#include <fcntl.h>
#include <filesystem>
#include <unistd.h>
#include <vector>

namespace rodain::storage {

namespace {
/// Flush directory metadata so a rename survives power loss.
Status fsync_parent_dir(const std::string& path) {
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::error(ErrorCode::kIoError, "cannot open dir " + dir);
  }
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  if (!ok) return Status::error(ErrorCode::kIoError, "dir fsync " + dir);
  return Status::ok();
}
}  // namespace

Status write_file_atomic(const std::string& path,
                         std::span<const std::byte> bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return Status::error(ErrorCode::kIoError, "cannot open " + tmp);
  // The tmp file must be on stable storage BEFORE the rename: rename is
  // atomic for the directory entry only, so without the fsync a crash can
  // expose `path` pointing at an empty or torn file — corruption where the
  // old checkpoint used to be.
  const bool ok =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size() &&
      std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  std::fclose(f);
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::error(ErrorCode::kIoError, "short checkpoint write");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    // Don't leave the orphaned tmp behind: nothing ever retries this exact
    // temp name, and a stale `.tmp` shadows the next attempt's error state.
    std::remove(tmp.c_str());
    return Status::error(ErrorCode::kIoError, "rename: " + ec.message());
  }
  return fsync_parent_dir(path);
}

Result<std::vector<std::byte>> read_file_bytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return Status::error(ErrorCode::kNotFound, "cannot open " + path);
  std::fseek(f, 0, SEEK_END);
  const long len = std::ftell(f);
  if (len < 0 || std::fseek(f, 0, SEEK_SET) != 0) {
    std::fclose(f);
    return Status::error(ErrorCode::kIoError, "cannot size " + path);
  }
  if (len == 0) {
    // A zero-length file is what a crash between create and first write
    // leaves behind — recovery treats it like no checkpoint at all, not
    // like corruption.
    std::fclose(f);
    return Status::error(ErrorCode::kNotFound, "empty checkpoint " + path);
  }
  std::vector<std::byte> buf(static_cast<std::size_t>(len));
  const bool ok = std::fread(buf.data(), 1, buf.size(), f) == buf.size();
  std::fclose(f);
  if (!ok) return Status::error(ErrorCode::kIoError, "short checkpoint read");
  return buf;
}

}  // namespace rodain::storage
