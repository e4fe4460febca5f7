#include "rodain/log/log_storage.hpp"

#include <cassert>
#include <cstdio>
#include <unistd.h>

namespace rodain::log {

// ---------------------------------------------------------------- memory

void MemoryLogStorage::append(const Record& r) { records_.push_back(r); }

void MemoryLogStorage::flush(std::function<void(Status)> done) {
  if (inject_errors_ > 0) {
    --inject_errors_;
    if (done) done(Status::error(ErrorCode::kIoError, "injected flush error"));
    return;
  }
  durable_ = records_.size();
  if (done) done(Status::ok());
}

std::uint64_t MemoryLogStorage::truncate_upto(ValidationTs boundary) {
  // Drop the durable prefix that ends at the last commit covered by the
  // checkpoint; commits arrive in seq order on the apply path, so stop at
  // the first one above the boundary.
  std::size_t cut = 0;
  for (std::size_t i = 0; i < durable_; ++i) {
    if (!records_[i].is_commit()) continue;
    if (records_[i].seq > boundary) break;
    cut = i + 1;
  }
  if (cut == 0) return 0;
  records_.erase(records_.begin(),
                 records_.begin() + static_cast<std::ptrdiff_t>(cut));
  durable_ -= cut;
  return cut;
}

// ------------------------------------------------------------------ file

Result<std::unique_ptr<FileLogStorage>> FileLogStorage::open(
    const std::string& path, bool fsync_on_flush) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (!f) {
    return Status::error(ErrorCode::kIoError, "cannot open log " + path);
  }
  // Unbuffered: fwrite's return value is then authoritative about what
  // reached the kernel, so a failed flush can retry exactly the unwritten
  // suffix without duplicating bytes through a half-drained stdio buffer.
  std::setvbuf(f, nullptr, _IONBF, 0);
  return std::unique_ptr<FileLogStorage>(
      new FileLogStorage(f, fsync_on_flush));
}

FileLogStorage::~FileLogStorage() {
  if (file_) {
    std::fflush(file_);
    std::fclose(file_);
  }
}

void FileLogStorage::append(const Record& r) {
  encode_record(r, pending_);
  ++appended_;
  ++buffered_;
}

void FileLogStorage::flush(std::function<void(Status)> done) {
  Status status = Status::ok();
  const auto view = pending_.view();
  while (pending_written_ < view.size()) {
    std::size_t n = 0;
    if (inject_errors_ > 0) {
      --inject_errors_;
    } else {
      n = std::fwrite(view.data() + pending_written_, 1,
                      view.size() - pending_written_, file_);
    }
    pending_written_ += n;
    if (n == 0) {
      std::clearerr(file_);
      status = Status::error(ErrorCode::kIoError, "log write failed");
      break;
    }
  }
  if (status && pending_.size() > 0) {
    if (std::fflush(file_) != 0) {
      status = Status::error(ErrorCode::kIoError, "log write failed");
    } else if (fsync_ && ::fsync(::fileno(file_)) != 0) {
      status = Status::error(ErrorCode::kIoError, "log fsync failed");
    }
  }
  if (status) {
    // Everything pending reached the file; only now may the records count
    // as durable. On failure both the bytes and the buffered count stay for
    // the retry — dropping the bytes while still counting them would let a
    // later empty flush advance durable_ past records never written.
    pending_.clear();
    pending_written_ = 0;
    durable_ += buffered_;
    buffered_ = 0;
  }
  if (done) done(status);
}

Result<std::vector<Record>> FileLogStorage::read_all(const std::string& path,
                                                     bool* torn) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return Status::error(ErrorCode::kNotFound, "cannot open " + path);
  std::fseek(f, 0, SEEK_END);
  const long len = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<std::byte> buf(static_cast<std::size_t>(len < 0 ? 0 : len));
  const bool ok = std::fread(buf.data(), 1, buf.size(), f) == buf.size();
  std::fclose(f);
  if (!ok) return Status::error(ErrorCode::kIoError, "short log read");
  return decode_records(buf, torn);
}

// ------------------------------------------------------------------ sim

void SimDiskLogStorage::append(const Record& r) {
  records_.push_back(r);
  ++appended_;
  unflushed_bytes_ += r.encoded_size();
}

void SimDiskLogStorage::flush(std::function<void(Status)> done) {
  if (appended_ == durable_ && queue_.empty()) {
    // Nothing pending and the device is idle for this range.
    if (done) done(Status::ok());
    return;
  }
  // Group commit: fold into the last *pending* operation. The queue front
  // is already on the platter when the device is busy — only later entries
  // can still absorb work.
  const bool back_is_pending =
      !queue_.empty() && !(device_busy_ && queue_.size() == 1);
  if (options_.coalesce_flushes && back_is_pending) {
    FlushReq& back = queue_.back();
    back.upto = appended_;
    back.bytes += unflushed_bytes_;
    unflushed_bytes_ = 0;
    if (done) back.callbacks.push_back(std::move(done));
    return;
  }
  FlushReq req;
  req.upto = appended_;
  req.bytes = unflushed_bytes_;
  unflushed_bytes_ = 0;
  if (done) req.callbacks.push_back(std::move(done));
  queue_.push_back(std::move(req));
  start_next();
}

std::uint64_t SimDiskLogStorage::truncate_upto(ValidationTs boundary) {
  // Trim the durable prefix that the checkpoint covers. Only durable
  // records go: the suffix past durable_ is the data-loss window that the
  // C5 measurement reads, and in-flight flush requests reference absolute
  // record counts that are re-based below.
  std::size_t cut = 0;
  for (std::size_t i = 0; i < durable_; ++i) {
    if (!records_[i].is_commit()) continue;
    if (records_[i].seq > boundary) break;
    cut = i + 1;
  }
  if (cut == 0) return 0;
  records_.erase(records_.begin(),
                 records_.begin() + static_cast<std::ptrdiff_t>(cut));
  appended_ -= cut;
  durable_ -= cut;
  truncated_ += cut;
  for (FlushReq& req : queue_) req.upto -= std::min<Lsn>(req.upto, cut);
  return cut;
}

void SimDiskLogStorage::crash() {
  for (FlushReq& req : queue_) req.callbacks.clear();
}

void SimDiskLogStorage::start_next() {
  if (device_busy_ || queue_.empty()) return;
  device_busy_ = true;
  const FlushReq& req = queue_.front();
  const auto transfer_us = static_cast<std::int64_t>(
      static_cast<double>(req.bytes) / options_.throughput_bytes_per_sec * 1e6);
  const Duration op_time = options_.seek_time + Duration::micros(transfer_us);
  sim_.schedule_after(op_time, [this] {
    FlushReq req2 = std::move(queue_.front());
    queue_.pop_front();
    durable_ = std::max(durable_, req2.upto);
    device_busy_ = false;
    for (auto& cb : req2.callbacks) cb(Status::ok());
    start_next();
  });
}

}  // namespace rodain::log
