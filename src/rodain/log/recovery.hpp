// Crash recovery from the on-disk redo log (paper §3–4).
//
// The mirror stores the log already in validation order, so recovery is a
// single forward pass that applies each transaction when its commit record
// is seen and skips transactions without one. A log written by a lone node
// can be mildly out of order (write phases overlap), so committed
// transactions are applied in validation-sequence order regardless; torn
// tails are tolerated (they are the un-flushed end of the stream).
#pragma once

#include <span>
#include <string>

#include "rodain/common/status.hpp"
#include "rodain/log/record.hpp"
#include "rodain/log/redo_index.hpp"
#include "rodain/storage/btree.hpp"
#include "rodain/storage/object_store.hpp"

namespace rodain::log {

struct RecoveryStats {
  std::uint64_t committed_applied{0};   ///< transactions replayed
  std::uint64_t writes_applied{0};      ///< after-images installed
  std::uint64_t incomplete_dropped{0};  ///< txns without a commit record
  std::uint64_t records_read{0};
  ValidationTs last_seq{0};  ///< highest applied validation sequence
  bool torn_tail{false};     ///< log ended mid-record (expected after crash)

  // Segmented restart (recover_checkpoint_and_segments).
  std::uint64_t segments_decoded{0};
  std::uint64_t segments_skipped{0};  ///< sealed at/below the boundary
  std::uint64_t log_disk_bytes{0};    ///< bytes decoded from surviving segments
  double checkpoint_load_ms{0};
  double decode_ms{0};
  double apply_ms{0};
  /// Smallest commit seq actually replayed past the boundary, and the
  /// segment file that supplied it: when a recovery is long, this names
  /// which segment the replay had to reach back to. Zero / empty when
  /// nothing was replayed.
  ValidationTs oldest_replayed_seq{0};
  std::string oldest_seq_segment;

  // Instant recovery (recover_instant_segments): installs are deferred into
  // a RedoIndex instead of applied, so committed_applied stays 0 and these
  // report the parked backlog.
  bool instant{false};
  std::uint64_t deferred_txns{0};
  std::uint64_t deferred_writes{0};
};

/// Replay decoded records into `store` (which is NOT cleared — load a
/// checkpoint first if one exists, then replay the tail).
/// Records with seq <= `already_applied` are skipped (checkpoint overlap).
Result<RecoveryStats> replay_records(std::span<const Record> records,
                                     storage::ObjectStore& store,
                                     ValidationTs already_applied = 0,
                                     storage::BPlusTree* index = nullptr);

/// Decode + replay a raw log buffer.
Result<RecoveryStats> recover_from_buffer(std::span<const std::byte> data,
                                          storage::ObjectStore& store,
                                          ValidationTs already_applied = 0,
                                          storage::BPlusTree* index = nullptr);

/// Read the log file and replay it.
Result<RecoveryStats> recover_from_file(const std::string& path,
                                        storage::ObjectStore& store,
                                        ValidationTs already_applied = 0,
                                        storage::BPlusTree* index = nullptr);

/// Full cold-start recovery: load the checkpoint if one exists (the store
/// is cleared by it), then replay the log tail past the checkpoint
/// boundary. A missing checkpoint means replay-from-empty; a missing log
/// means checkpoint-only. Returns the replay stats (last_seq covers both
/// sources, so the node can continue its validation sequence from
/// last_seq + 1).
Result<RecoveryStats> recover_checkpoint_and_log(
    const std::string& checkpoint_path, const std::string& log_path,
    storage::ObjectStore& store, storage::BPlusTree* index = nullptr);

/// Segmented cold start: load the checkpoint, then replay only the
/// segments in `log_dir` that survive the checkpoint boundary (sealed
/// segments whose last_seq is at or below it are skipped — truncation
/// usually deleted them already). Surviving segments decode in parallel
/// across up to `decode_threads` workers before the ordered
/// single-threaded apply; per-phase timings land in the stats and the
/// `log.recovery_replay_ms` gauge. A checkpoint chain that exists but
/// does not load fails with kCorruption naming the checkpoint path, and
/// the store is left as it was: the node rejoins from its peer instead.
Result<RecoveryStats> recover_checkpoint_and_segments(
    const std::string& checkpoint_path, const std::string& log_dir,
    storage::ObjectStore& store, storage::BPlusTree* index = nullptr,
    unsigned decode_threads = 4);

/// Instant restart (DESIGN.md §12): load the checkpoint and decode the
/// surviving segments exactly like recover_checkpoint_and_segments, but
/// build `redo` — the per-record deferred-replay index — instead of
/// applying anything. The caller serves immediately and replays on demand /
/// in the background. stats.last_seq still covers checkpoint + log, so the
/// validation sequence continues from last_seq + 1 as with a full replay.
Result<RecoveryStats> recover_instant_segments(
    const std::string& checkpoint_path, const std::string& log_dir,
    storage::ObjectStore& store, RedoIndex& redo,
    storage::BPlusTree* index = nullptr, unsigned decode_threads = 4);

}  // namespace rodain::log
