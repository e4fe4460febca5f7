// The Mirror Node's replication service (paper §3).
//
// Receives the redo stream and acknowledges commit records immediately on
// delivery (that ack is what unblocks committing transactions on the
// primary) — coalesced to one *cumulative* ack per delivered batch, which
// carries the reorderer's contiguous received-commit floor and so covers
// every commit at or below it (DESIGN.md §9). It reorders transactions into
// true validation order, applies committed transactions to the database
// copy — never undoing anything — and stores the ordered log to disk
// asynchronously, off the commit path.
//
// Apply runs epoch-at-a-time (DESIGN.md §14): the reorderer batches each
// contiguous released run into one epoch, which applies in seq order
// before the batch's ack goes out, so the acked floor only ever names an
// applied prefix. The epoch's records then go to the stored log in the
// same order, and a failed disk write marks the stored log non-dense — a
// rejoin must then be served by live encode, never from a log with holes.
//
// A join is two-phase (DESIGN.md §12): after installing the snapshot this
// node reports kSnapshotInstalled, and it becomes a mirror only once the
// primary's kJoinComplete has arrived and everything through its seq has
// applied. Until then it is a joiner: the primary may hold acknowledged
// commits it lacks, so it must never take over.
//
// The join path is hardened against a faulty link: snapshot chunks are
// assembled by index under a per-serve snapshot id (so chunks from an
// abandoned serve can never leak into a later one), missing chunks are
// re-requested with kChunkRetry, a stalled join or an unanswered install
// report is retried, and a primary that falsely declared this mirror lost
// (heartbeats say kPrimaryAlone while we believe we are its synced mirror)
// triggers an automatic rejoin.
#pragma once

#include <atomic>
#include <memory>
#include <optional>

#include "rodain/common/clock.hpp"
#include "rodain/log/checkpointer.hpp"
#include "rodain/log/log_storage.hpp"
#include "rodain/log/reorder.hpp"
#include "rodain/repl/endpoint.hpp"
#include "rodain/storage/object_store.hpp"

namespace rodain::repl {

class MirrorService {
 public:
  struct Options {
    /// Store the ordered log to `disk` (false reproduces the paper's
    /// Fig. 3 no-disk configurations).
    bool store_to_disk{true};
    /// Invoked when a requested join finishes (snapshot installed, the
    /// primary's kJoinComplete received, and every transaction through its
    /// seq applied) — the node is now a proper Mirror.
    std::function<void()> on_synced;
    /// The primary abandoned us (its heartbeats say kPrimaryAlone while we
    /// are synced): a rejoin was initiated; the node should drop back to
    /// kRecovering until on_synced fires again.
    std::function<void()> on_abandoned;
    /// A join making no progress for this long, while the primary is
    /// heard from, retries (missing chunks are re-requested; with nothing
    /// received yet, the join is re-sent; once installed, the install
    /// report is re-sent).
    Duration join_retry_timeout{Duration::millis(100)};
    /// Ignore kPrimaryAlone heartbeats this soon after syncing — they can
    /// be stale frames that were in flight while our join completed.
    Duration abandon_grace{Duration::millis(150)};
    /// Periodic checkpoint cadence driven off the apply path (poll): write
    /// a checkpoint at applied_seq, then truncate the stored log below it.
    /// Zero (or no write callback) disables it.
    Duration checkpoint_interval{Duration::zero()};
    /// Persist a checkpoint consistent with the given applied boundary.
    std::function<Status(ValidationTs)> write_checkpoint;
  };

  struct Stats {
    std::uint64_t records_received{0};
    std::uint64_t acks_sent{0};
    /// Commit records covered by those acks — the coalescing ratio is
    /// ack_commits_covered : acks_sent (>= 1 with batching).
    std::uint64_t ack_commits_covered{0};
    std::uint64_t txns_applied{0};
    std::uint64_t writes_applied{0};
    std::uint64_t stale_duplicates{0};
    std::uint64_t snapshot_chunks{0};
    std::uint64_t duplicate_chunks{0};
    /// Live batches staged in the held reorderer while a snapshot was
    /// assembling (the join path keeps no separate record stash).
    std::uint64_t held_batches{0};
    std::uint64_t chunk_retries_sent{0};
    std::uint64_t join_retries{0};
    std::uint64_t rejoins_after_abandon{0};
    std::uint64_t send_failures{0};
    std::uint64_t checkpoints{0};
    /// Log units truncated after checkpoints (LogStorage::truncate_upto).
    std::uint64_t log_truncated{0};
    /// Transactions quarantined on a write-count mismatch (kCorruption from
    /// the reorderer) or a structurally invalid release set: dropped and
    /// counted, the rest of the wire frame still stages, and the stalled
    /// commit floor makes the primary's resend re-deliver the victim.
    std::uint64_t corrupt_txns{0};
    /// Stored-log flush failures. One is enough to mark the disk log
    /// non-dense (see disk_log_dense()).
    std::uint64_t disk_write_failures{0};
  };

  /// `disk` may be null when store_to_disk is false; `index` (optional)
  /// is maintained alongside the copy from the keys carried in the redo
  /// stream, so the mirror can serve index lookups after a takeover.
  MirrorService(storage::ObjectStore& copy, log::LogStorage* disk,
                net::Channel& channel, const Clock& clock, Options options,
                storage::BPlusTree* index = nullptr);

  /// Start as an in-sync mirror (fresh cluster start: both nodes hold the
  /// same initial database; the stream begins at `expected_next`).
  void attach_synced(ValidationTs expected_next);

  /// Start as a recovering node: request a snapshot from the serving node;
  /// live records received meanwhile are buffered.
  void request_join(ValidationTs have);

  void send_heartbeat();

  /// Drive join retries and the endpoint's reconnect machinery; call
  /// periodically (heartbeat tick).
  void poll(TimePoint now);

  /// Take over as the lone server (paper §2: the failed node's peer becomes
  /// the server; transactions without a commit record are aborted).
  struct TakeoverResult {
    ValidationTs next_seq{1};       ///< where the new primary continues
    std::size_t applied_staged{0};  ///< commit-complete txns force-applied
    std::size_t dropped_open{0};    ///< uncommitted txns discarded
  };
  TakeoverResult take_over();

  [[nodiscard]] ValidationTs applied_seq() const { return applied_seq_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] bool snapshot_in_progress() const { return awaiting_snapshot_; }
  /// Between request_join and the end of the two-phase join: assembling,
  /// installing, or waiting for the primary's switch.
  [[nodiscard]] bool join_in_progress() const {
    return awaiting_snapshot_ || installed_id_ != 0;
  }
  [[nodiscard]] TimePoint last_heard() const { return endpoint_.last_heard(); }
  /// When we last heard from a *serving* primary (serving-role heartbeat,
  /// log batch, or snapshot traffic). The takeover watchdog must use this,
  /// not last_heard(): a recovering peer also heartbeats (role kMirror),
  /// and those frames must not convince a lone mirror its primary is alive
  /// — two non-serving nodes feeding each other's watchdogs would deadlock
  /// the pair with no server.
  [[nodiscard]] TimePoint serving_last_heard() const {
    return serving_last_heard_;
  }
  [[nodiscard]] std::size_t reorder_staged() const {
    return reorderer_.staged_commits();
  }
  [[nodiscard]] std::size_t reorder_open() const {
    return reorderer_.open_txns();
  }
  /// False after any stored-log write failure: the on-disk log may have
  /// holes, so it must never vouch for dense coverage when a rejoin is
  /// served from disk (the node that takes over consults this before
  /// handing out join artifacts; the fallback is the live snapshot encode).
  [[nodiscard]] bool disk_log_dense() const { return disk_dense_; }

 private:
  void on_log_batch(std::vector<log::Record> records);
  /// One cumulative ack at the reorderer's received-commit floor;
  /// `commits_covered` is how many newly delivered commit records it
  /// answers (telemetry only). Skipped while the floor is still 0.
  void send_cumulative_ack(std::size_t commits_covered);
  void feed(log::Record r);
  /// Apply the reorderer's released epoch in seq order, then append it to
  /// the stored log. applied_seq_ only ever names a fully-installed prefix.
  void release_epoch(std::vector<log::ReleasedTxn> epoch);
  /// Apply one transaction's records to the copy (store + index).
  void apply_txn(const log::ReleasedTxn& txn);
  /// Fold asynchronous disk-flush failures into stats/disk_dense_.
  void check_disk_health();
  void on_snapshot_chunk(std::uint64_t snapshot_id, std::uint32_t index,
                         std::uint32_t total, std::vector<std::byte> blob);
  void on_snapshot_done(ValidationTs boundary, std::uint64_t snapshot_id);
  void on_join_complete(std::uint64_t snapshot_id, ValidationTs through);
  /// Finish the join once kJoinComplete arrived and applied_seq_ reached
  /// its through seq.
  void maybe_finish_join();
  void send_install_report();
  void on_heartbeat(NodeRole role, ValidationTs applied);
  void reset_assembly();
  [[nodiscard]] std::vector<std::uint32_t> missing_chunks() const;

  /// Flush completions can outlive the service (the sim disk fires them on
  /// the virtual timeline after a takeover tears the mirror down), so the
  /// failure count lives behind a shared_ptr the callback co-owns.
  struct DiskHealth {
    std::atomic<std::uint64_t> failures{0};
  };

  storage::ObjectStore& store_;
  log::LogStorage* disk_;
  storage::BPlusTree* index_;
  Options options_;
  const Clock& clock_;
  Endpoint endpoint_;
  log::Reorderer reorderer_;
  std::shared_ptr<DiskHealth> disk_health_{std::make_shared<DiskHealth>()};
  /// Prefix of disk_health_->failures already folded into stats_.
  std::uint64_t disk_failures_seen_{0};
  bool disk_dense_{true};
  ValidationTs applied_seq_{0};
  /// See serving_last_heard(); starts at construction time so a fresh
  /// mirror grants the primary one full watchdog window to speak.
  TimePoint serving_last_heard_;
  Stats stats_;
  /// Apply-path checkpoint cadence (ticked from poll()).
  log::Checkpointer ckpt_;

  bool awaiting_snapshot_{false};
  /// Chunk assembly for the in-progress serve (reset when a chunk from a
  /// newer serve arrives).
  std::uint64_t snapshot_id_{0};
  /// Serves with id <= this floor are stale and must never assemble or
  /// install. Raised at every request_join to the id any serve created
  /// before the request would carry (ids embed the shared clock).
  std::uint64_t min_snapshot_id_{0};
  std::uint32_t chunk_total_{0};
  std::vector<std::optional<std::vector<std::byte>>> chunks_;
  std::size_t chunks_received_{0};
  /// The serve whose snapshot is installed and whose switch we wait for
  /// (0 when none), and the through seq of its kJoinComplete once that
  /// arrived.
  std::uint64_t installed_id_{0};
  std::optional<ValidationTs> join_through_;
  /// Consecutive no-progress join retries; past kMaxChunkRetries the join
  /// restarts from scratch instead of asking for chunks the primary may no
  /// longer cache, or for a switch a restarted primary no longer knows.
  std::uint32_t stalled_retries_{0};
  static constexpr std::uint32_t kMaxChunkRetries = 4;
  ValidationTs join_have_{0};
  TimePoint last_join_activity_{};
  TimePoint synced_at_{};
  /// Commit records staged while the snapshot assembled (telemetry for the
  /// post-install cumulative ack). Live batches themselves go straight into
  /// the held reorderer — per-batch duplicate detection runs on arrival and
  /// set_expected_next() releases the survivors after install; there is no
  /// separate record stash.
  std::size_t held_commits_{0};
};

}  // namespace rodain::repl
