// Checkpoint file primitives.
//
// A checkpoint is the disk backup a lone node recovers from ("recover from
// the backup on the disk", paper §4) and the snapshot a rejoining mirror
// installs before log catch-up. Its one format is the base/delta chain of
// fuzzy_checkpoint.hpp, named by the manifest of ckpt_manifest.hpp; this
// header holds what every artifact of it shares: the magic, the metadata a
// load reports, and the atomic whole-file write and read.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "rodain/common/status.hpp"
#include "rodain/common/types.hpp"

namespace rodain::storage {

/// On-disk magic of every checkpoint artifact; the version field
/// distinguishes layouts.
inline constexpr std::uint64_t kCheckpointMagic = 0x31544b4344'4f52ULL;

struct CheckpointMeta {
  ValidationTs last_applied{0};  ///< every txn with ts <= this is included
  std::uint64_t object_count{0};
};

/// Durably write `bytes` to `path` via write-to-temp + fsync + rename +
/// parent-dir fsync. The temp file (`path + ".tmp"`) is unlinked on every
/// error path, including a failed rename.
Status write_file_atomic(const std::string& path,
                         std::span<const std::byte> bytes);

/// Read a whole file. kNotFound for a missing or zero-length file (the
/// latter is what a crash between create and first write leaves behind).
Result<std::vector<std::byte>> read_file_bytes(const std::string& path);

}  // namespace rodain::storage
