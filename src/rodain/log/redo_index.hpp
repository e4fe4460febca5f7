// Per-record redo index for instant recovery (MM-DIRECT shape).
//
// Instead of replaying every surviving log record before the node serves,
// build() matches commits the way replay_records does but *defers* the
// installs: each committed after-image is parked in a per-object chain
// (object id -> its pending writes in validation-seq order). The node then
// opens for business immediately; the first transaction that touches a
// not-yet-recovered object calls ensure_recovered() on the serial path
// (under rt::Node's commit_mu_), which applies just that object's chain,
// while a background sweeper drains the rest of the index in log order.
// Every pending write carries an applied flag — the recovered watermark —
// set exactly once under commit_mu_, so the on-demand path and the sweeper
// can interleave freely without double-applying.
//
// Consistency: a transaction only ever observes objects it has passed
// through ensure_recovered() (all engine access funnels through the serial
// fetch while the index is active), so it always sees every deferred commit
// that touched those objects, even though *other* objects may still be
// unrecovered at that instant.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <span>
#include <unordered_map>
#include <vector>

#include "rodain/common/status.hpp"
#include "rodain/log/record.hpp"
#include "rodain/storage/btree.hpp"
#include "rodain/storage/object_store.hpp"

namespace rodain::log {

class RedoIndex {
 public:
  RedoIndex() = default;
  RedoIndex(const RedoIndex&) = delete;
  RedoIndex& operator=(const RedoIndex&) = delete;

  /// Index `records` (the decoded surviving log) without applying anything.
  /// Commits at or below `already_applied` are covered by the checkpoint
  /// and skipped; transactions without a commit record are dropped. Safe to
  /// call once, before the node serves.
  Status build(std::span<const Record> records, ValidationTs already_applied);

  /// True while any deferred write remains unapplied. Lock-free: this is
  /// the only member unlocked threads may consult (read_committed checks
  /// it to decide whether to fall back to a transaction).
  [[nodiscard]] bool active() const {
    return pending_writes_.load(std::memory_order_acquire) != 0;
  }

  /// Replay `oid`'s pending chain (if any) and retire it. Serial path only:
  /// the caller holds the node's commit mutex.
  void ensure_recovered(ObjectId oid, storage::ObjectStore& store,
                        storage::BPlusTree* index);

  /// Replay everything a key lookup could observe: the chain of the object
  /// the log last bound to `key` (the checkpoint's index may not know it
  /// yet) and the chain of the object the current index maps it to (a
  /// pending delete or re-point may not have applied yet).
  void ensure_recovered_key(const storage::IndexKey& key,
                            storage::ObjectStore& store,
                            storage::BPlusTree* index);

  /// Background sweep: apply up to `max_txns` transactions' worth of
  /// pending writes in validation-seq order. Returns the number of
  /// transactions crossed (0 means the index is drained). Serial path only.
  std::size_t sweep(std::size_t max_txns, storage::ObjectStore& store,
                    storage::BPlusTree* index);

  /// Apply everything left, e.g. before an explicit checkpoint.
  void drain(storage::ObjectStore& store, storage::BPlusTree* index);

  /// Free the parked after-images once drained (no-op while active).
  void retire();

  /// Discard everything still unapplied: a full snapshot (mirror rejoin)
  /// supersedes the local log, so the parked images must never touch the
  /// store again. active() turns false immediately.
  void abandon();

  [[nodiscard]] ValidationTs last_seq() const { return last_seq_; }
  [[nodiscard]] std::uint64_t deferred_txns() const { return deferred_txns_; }
  [[nodiscard]] std::uint64_t deferred_writes() const {
    return deferred_writes_;
  }
  [[nodiscard]] std::uint64_t incomplete_dropped() const {
    return incomplete_dropped_;
  }
  [[nodiscard]] std::uint64_t pending_txns() const {
    return deferred_txns_ - txns_done_;
  }
  [[nodiscard]] std::uint64_t ondemand_applied() const {
    return ondemand_applied_;
  }
  [[nodiscard]] std::uint64_t background_applied() const {
    return background_applied_;
  }

 private:
  struct PendingWrite {
    Record rec;
    ValidationTs seq{0};        ///< validation seq of the owning commit
    ValidationTs serial_ts{0};  ///< install timestamp of the owning commit
    bool applied{false};        ///< the recovered watermark
  };

  void apply(PendingWrite& w, storage::ObjectStore& store,
             storage::BPlusTree* index, bool ondemand);

  /// All deferred writes in global validation-seq order (the sweep order).
  std::vector<PendingWrite> writes_;
  /// Object id -> indices into writes_, per object in seq order.
  std::unordered_map<ObjectId, std::vector<std::uint32_t>> chains_;
  /// Key -> the object id the log last bound it to (IndexKey has ordering
  /// but no std::hash, hence the ordered map).
  std::map<storage::IndexKey, ObjectId> key_writers_;
  /// Per-transaction unapplied-write counts; a txn retires when it empties.
  std::unordered_map<ValidationTs, std::uint32_t> remaining_;
  std::size_t sweep_pos_{0};
  std::atomic<std::uint64_t> pending_writes_{0};
  ValidationTs last_seq_{0};
  std::uint64_t deferred_txns_{0};
  std::uint64_t deferred_writes_{0};
  std::uint64_t incomplete_dropped_{0};
  std::uint64_t txns_done_{0};
  std::uint64_t ondemand_applied_{0};
  std::uint64_t background_applied_{0};
};

}  // namespace rodain::log
