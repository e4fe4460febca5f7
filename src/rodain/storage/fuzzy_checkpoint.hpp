// Checkpoint artifacts and the one chain writer (DESIGN.md §15).
//
// A checkpoint is written while committers keep running: the store's
// snapshot mode (ObjectStore::snapshot_begin/snapshot_scan) supplies a
// point-in-time view at the flipped boundary, and per-record dirty epochs
// let the encoder alternate full *base* files with incremental *delta*
// files containing only records dirtied since the previous capture. The
// artifacts form a chain named by the CRC'd manifest (ckpt_manifest.hpp);
// recovery loads base + deltas in order, and joins ship the whole chain in
// a container frame so the wire protocol stays a single opaque blob.
//
// v3 file layout (little-endian, CRC-32C over everything before the CRC):
//   u64 magic (kCheckpointMagic) | u32 version=3 | u8 kind (0 base, 1 delta)
//   u64 boundary | u64 capture_epoch | u64 floor_epoch
//   u32 record_count | records { u64 id, u64 wts, u8 flags, bytes value }
//   u32 index_op_count | ops { u8 kind, 16B key, varint oid }
//   u32 crc
// Record flags bit0 = tombstone (deltas only; bases are compacted). A base's
// index section is the full index dumped as upsert ops, so one op-applier
// decodes both kinds.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "rodain/common/serialization.hpp"
#include "rodain/common/status.hpp"
#include "rodain/common/types.hpp"
#include "rodain/storage/btree.hpp"
#include "rodain/storage/checkpoint.hpp"
#include "rodain/storage/ckpt_manifest.hpp"
#include "rodain/storage/object_store.hpp"

namespace rodain::storage {

inline constexpr std::uint32_t kFuzzyVersion = 3;
/// Container frame carrying a whole base+delta chain (join shipping).
inline constexpr std::uint64_t kChainMagic = 0x314e4843444f52ULL;  // "RODCHN1"

struct FuzzyEncodeStats {
  std::uint64_t records{0};
  std::uint64_t index_ops{0};
  std::uint64_t bytes{0};
  ObjectStore::SnapshotScanStats scan;
};

/// Encode a base from the active snapshot (snapshot_begin must have been
/// called; the caller owns snapshot_end). Walks every record via
/// snapshot_scan(floor=0) — tombstones compacted away — and dumps the full
/// index via chunked_scan as upsert ops.
FuzzyEncodeStats encode_fuzzy_base(ObjectStore& store, const BPlusTree& index,
                                   ValidationTs boundary, ByteWriter& out);

/// Encode a delta from the active snapshot: records with dirty epoch >
/// `floor_epoch` (tombstones included, flagged) plus the index change
/// journal cut at the flip.
FuzzyEncodeStats encode_fuzzy_delta(ObjectStore& store,
                                    std::span<const IndexOp> index_ops,
                                    ValidationTs boundary,
                                    std::uint64_t floor_epoch, ByteWriter& out);

/// A one-base chain container, encoded from a plain store walk and index
/// range scan (the live join). The caller excludes writers; no snapshot is
/// taken, so this may run while a cadenced checkpoint's encode holds the
/// store's one snapshot.
[[nodiscard]] std::vector<std::byte> encode_live_chain(
    const ObjectStore& store, const BPlusTree* index, ValidationTs boundary);

/// The buffer every encode of `store` and `index` reserves: at least the
/// size of a base or a live chain (every record and index entry at its
/// widest framing), so no encode regrows and copies what it has written.
[[nodiscard]] std::size_t chain_encode_reserve(const ObjectStore& store,
                                               const BPlusTree* index);

/// Decode a v3 base into `store` (cleared first) and `index` (reset).
Result<CheckpointMeta> decode_fuzzy_base(std::span<const std::byte> data,
                                         ObjectStore& store, BPlusTree* index);

/// Apply a v3 delta on top of an already-loaded chain prefix.
Result<CheckpointMeta> apply_fuzzy_delta(std::span<const std::byte> data,
                                         ObjectStore& store, BPlusTree* index);

/// Wrap already-encoded artifacts (base first) into one chain blob.
void encode_chain(std::span<const std::vector<std::byte>> parts,
                  ByteWriter& out);

/// Decode a chain container (a join snapshot) into `store` and `index`.
Result<CheckpointMeta> decode_chain(std::span<const std::byte> data,
                                    ObjectStore& store,
                                    BPlusTree* index = nullptr);

/// Load the chain named by `<checkpoint_path>.manifest`. kNotFound when
/// there is no manifest; kCorruption when the manifest or an artifact it
/// names is damaged or missing; kFailedPrecondition when a file exists at
/// `checkpoint_path` itself — a leftover of the retired single-file format
/// whose boundary the log may already be truncated below, so neither
/// skipping it nor replaying the log alone is safe.
Result<CheckpointMeta> load_checkpoint_artifacts(
    const std::string& checkpoint_path, ObjectStore& store,
    BPlusTree* index = nullptr);

/// The manifest chain as one container blob, plus its covered boundary,
/// for serving a join from the disk artifacts.
struct CheckpointBytes {
  std::vector<std::byte> bytes;
  ValidationTs boundary{0};
};
Result<CheckpointBytes> read_artifact_chain_bytes(
    const std::string& checkpoint_path);

/// The one checkpoint writer: keeps the chain of `<path>.manifest` for one
/// store and index. Each write is a base or a delta; the artifact lands
/// under a name the current manifest does not list, then the manifest is
/// replaced, then the artifacts it no longer names are pruned. A writer
/// never extends a chain it did not start (capture epochs restart with
/// every process), so its first write is a base, and that write prunes
/// every artifact the replaced manifest named.
///
/// write() needs writer exclusion throughout. A primary splits it so its
/// committers run during the encode: flip() and finish() under exclusion,
/// encode() without it. The store's one snapshot is the writer's from
/// flip() to finish().
class CheckpointChain {
 public:
  explicit CheckpointChain(std::string checkpoint_path,
                           std::size_t delta_limit = 4);

  /// One write in progress, from flip() through finish().
  struct Flip {
    bool base{false};
    ValidationTs boundary{0};
    std::uint64_t capture_epoch{0};
    std::uint64_t floor_epoch{0};
    std::vector<IndexOp> journal;  ///< a delta's index ops, cut at the flip
    CkptManifest next;             ///< the manifest naming the new artifact
    FuzzyEncodeStats stats;
  };

  Status write(ObjectStore& store, BPlusTree& index, ValidationTs boundary);

  /// Choose base or delta and flip the store's snapshot (O(1)).
  Flip flip(ObjectStore& store, BPlusTree& index, ValidationTs boundary);
  /// Encode the artifact, write it, then write the manifest naming it.
  /// Runs one at a time: the caller serializes writes.
  Status encode(Flip& f, ObjectStore& store, const BPlusTree& index);
  /// End the snapshot; on success adopt the new manifest and prune, on
  /// failure roll the index journal back. Returns `encoded`.
  Status finish(Flip& f, ObjectStore& store, BPlusTree& index,
                Status encoded);

  /// The manifest this writer last wrote (or found at construction).
  [[nodiscard]] const CkptManifest& manifest() const { return chain_; }

 private:
  [[nodiscard]] std::string fresh_name(bool base, std::uint64_t n) const;

  std::string path_;
  std::size_t delta_limit_;
  bool extends_{false};           ///< chain_ ends in an artifact of ours
  std::size_t deltas_{0};         ///< deltas since the chain's base
  std::uint64_t floor_epoch_{0};  ///< capture epoch of chain_'s last entry
  CkptManifest chain_;            ///< what the manifest on disk names
};

}  // namespace rodain::storage
