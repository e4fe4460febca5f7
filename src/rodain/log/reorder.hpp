// Mirror-side log reordering (paper §3).
//
// The primary ships a transaction's records when its write phase runs, and
// write phases complete in an order that need not match validation order.
// The mirror buffers per-transaction records, and releases complete
// transactions strictly in validation-sequence order. Because of this, the
// log it stores is totally ordered, the database copy is updated only with
// committed transactions ("it never needs to undo any changes"), and
// recovery is a single forward pass.
//
// Two release disciplines (DESIGN.md §14):
//   - per-transaction (legacy): `ReleaseFn` fires synchronously inside
//     add()/set_expected_next() for every transaction, one at a time;
//   - epoch-batched: `ReleaseBatchFn` — releasable transactions accumulate
//     in an epoch buffer (still popped in dense seq order) and the owner
//     drains them with flush_epoch(), typically once per delivered wire
//     batch. The whole epoch carries the same ordering proof the one-at-a-
//     time path did; the mirror applies it in seq order and acks only the
//     floor it has applied.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "rodain/common/types.hpp"
#include "rodain/log/record.hpp"

namespace rodain::log {

/// One released transaction: the after-images in write order, terminated by
/// the commit record itself (never empty — see Reorderer::valid_release_set).
struct ReleasedTxn {
  ValidationTs seq{0};
  TxnId txn{kInvalidTxn};
  std::vector<Record> records;
};

class Reorderer {
 public:
  /// `release` receives complete transactions in dense seq order:
  /// the after-images followed by the commit record itself.
  using ReleaseFn =
      std::function<void(ValidationTs seq, TxnId txn, std::vector<Record> records)>;
  /// Epoch-batched alternative: one call per flush_epoch(), carrying every
  /// transaction released since the previous flush, in seq order.
  using ReleaseBatchFn = std::function<void(std::vector<ReleasedTxn> epoch)>;

  explicit Reorderer(ReleaseFn release, ValidationTs expected_next = 1)
      : release_(std::move(release)), expected_(expected_next) {}
  explicit Reorderer(ReleaseBatchFn release, ValidationTs expected_next = 1)
      : release_batch_(std::move(release)), expected_(expected_next) {}

  /// Feed one record from the wire. Returns kCorruption if a commit record
  /// disagrees with the buffered write count (lost or duplicated records);
  /// the corrupt transaction's buffered state is dropped (quarantined) and
  /// the reorderer stays usable — a later re-delivery of the full record
  /// set stages it normally.
  Status add(Record r);

  /// Mark the start of one delivered wire batch. A transaction's record set
  /// never spans batches (Shipper contract), so write images arriving for
  /// an already-open transaction in a *later* batch are a re-delivery
  /// (reconnect re-ship of an uncommitted txn): the stale buffered copy is
  /// dropped before buffering restarts, instead of double-counting and
  /// tripping the commit record's write-count check. Callers that never
  /// call this get the legacy accumulate-everything behaviour.
  void begin_batch() { ++batch_epoch_; }

  /// Epoch-batched mode only: hand the accumulated epoch (transactions
  /// released since the last flush, in seq order) to the batch callback.
  /// Returns how many transactions the epoch carried; no-op (and 0) when
  /// nothing released or in per-transaction mode.
  std::size_t flush_epoch();

  /// Transactions currently buffered in the un-flushed epoch.
  [[nodiscard]] std::size_t epoch_pending() const { return epoch_.size(); }

  /// A structurally valid release set: non-empty, terminated by the commit
  /// record whose serial_ts stamps the after-images. The release paths
  /// enforce this — a violating set is dropped and counted instead of
  /// being applied with a fabricated wts of 0.
  [[nodiscard]] static bool valid_release_set(const std::vector<Record>& records) {
    return !records.empty() && records.back().is_commit();
  }
  /// Release sets rejected by valid_release_set (0 unless something
  /// upstream fabricated an empty or commit-less set).
  [[nodiscard]] std::uint64_t rejected_release_sets() const {
    return rejected_release_sets_;
  }

  /// Highest validation seq such that every commit record <= it has been
  /// received (released, or staged in a contiguous run from the floor) —
  /// the mirror's cumulative-ack value. 0 when nothing has been received.
  [[nodiscard]] ValidationTs received_commit_floor() const;

  /// Transactions whose commit record arrived but that wait for an earlier
  /// sequence number.
  [[nodiscard]] std::size_t staged_commits() const { return staged_.size(); }
  /// Transactions with buffered writes but no commit record yet.
  [[nodiscard]] std::size_t open_txns() const { return open_.size(); }
  [[nodiscard]] ValidationTs expected_next() const { return expected_; }
  /// Move the release floor (mirror rejoin: the snapshot covers everything
  /// below `seq`). Purges staged transactions the floor passed — their
  /// predecessors were lost and the gap would block release_ready() forever
  /// — and releases any staged run that now starts at `seq`.
  void set_expected_next(ValidationTs seq);

  /// Suspend releases while a snapshot installs (mirror join): complete
  /// transactions keep staging in seq order, but nothing is applied to the
  /// store the snapshot is about to replace. The floor drops to the start
  /// of the stream: the snapshot's boundary is not known yet and may lie
  /// below what this reorderer already released (a mirror rejoining a
  /// primary that serves an older checkpoint), and the catch-up above it
  /// must stage instead of being dropped as stale. set_expected_next()
  /// resumes — it moves the floor to the snapshot boundary, purges what
  /// the snapshot covers, and cascades whatever staged above it.
  void hold_releases() {
    holding_ = true;
    expected_ = 1;
  }
  [[nodiscard]] bool holding() const { return holding_; }

  /// Drop transactions that never received a commit record — on primary
  /// failure they are "considered aborted, and their modifications ... are
  /// not performed on the database copy" (paper §3). Returns how many.
  std::size_t drop_open_txns();

  /// Release staged transactions even if there is a sequence gap (used by
  /// takeover: everything that can apply, applies). Returns released count.
  /// In epoch-batched mode the run lands in the epoch buffer — follow with
  /// flush_epoch().
  std::size_t force_release_staged();

 private:
  struct Staged {
    TxnId txn;
    std::vector<Record> records;
  };
  struct OpenTxn {
    /// Batch epoch of the latest delivery; a write arriving under a newer
    /// epoch supersedes (clears) the buffered records.
    std::uint64_t batch{0};
    std::vector<Record> records;
  };

  void release_ready();
  /// Dispatch one popped transaction: validate, then either call the
  /// per-txn callback synchronously or append to the epoch buffer.
  void dispatch(ValidationTs seq, Staged staged);

  ReleaseFn release_;
  ReleaseBatchFn release_batch_;
  ValidationTs expected_;
  bool holding_{false};
  std::uint64_t batch_epoch_{0};
  std::uint64_t rejected_release_sets_{0};
  std::unordered_map<TxnId, OpenTxn> open_;
  std::map<ValidationTs, Staged> staged_;
  /// Epoch-batched mode: released-but-not-yet-flushed transactions.
  std::vector<ReleasedTxn> epoch_;
};

}  // namespace rodain::log
