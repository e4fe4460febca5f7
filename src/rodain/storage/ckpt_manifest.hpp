// Checkpoint-chain manifest (DESIGN.md §15).
//
// Fuzzy checkpoints produce a chain of artifacts — one full base plus zero
// or more incremental deltas — and this manifest is the single atomically-
// replaced source of truth naming them. Recovery and join serving read the
// manifest first; artifact files not named by it (crash leftovers from a
// kill between artifact write and manifest rename) are simply ignored, and
// segment truncation keys off the manifest's covered boundary, never off an
// artifact that the manifest does not yet acknowledge.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "rodain/common/serialization.hpp"
#include "rodain/common/status.hpp"

namespace rodain::storage {

struct ManifestEntry {
  enum class Kind : std::uint8_t { kBase = 0, kDelta = 1 };
  Kind kind{Kind::kBase};
  std::uint64_t boundary{0};       ///< txns with ts <= this are covered
  std::uint64_t capture_epoch{0};  ///< store mutation epoch at the flip
  std::uint64_t bytes{0};          ///< artifact size (inventory/metrics)
  std::string file;                ///< basename, sibling of the manifest
};

struct CkptManifest {
  /// Base first, then deltas in capture order.
  std::vector<ManifestEntry> entries;

  /// Highest boundary the chain covers; 0 when empty.
  [[nodiscard]] std::uint64_t covered_boundary() const {
    return entries.empty() ? 0 : entries.back().boundary;
  }
};

/// `<checkpoint_path>.manifest`; the artifacts it names are its siblings.
[[nodiscard]] std::string manifest_path_for(const std::string& checkpoint_path);

/// Resolve a manifest entry's basename against the manifest's directory.
[[nodiscard]] std::string sibling_path(const std::string& manifest_path,
                                       const std::string& file);

void encode_manifest(const CkptManifest& m, ByteWriter& out);
Result<CkptManifest> decode_manifest(std::span<const std::byte> data);

/// Atomic (temp + fsync + rename) manifest replacement.
Status write_manifest_file(const CkptManifest& m, const std::string& path);
/// kNotFound when absent/empty; kCorruption on CRC or structural damage
/// (missing base, non-monotone boundaries).
Result<CkptManifest> read_manifest_file(const std::string& path);

}  // namespace rodain::storage
