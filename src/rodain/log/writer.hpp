// Primary-side Log Writer (paper §3).
//
// Normal mode (kMirror): records are shipped to the Mirror Node when the
// write phase generates them; the transaction proceeds to its final commit
// step when the mirror's acknowledgment covering the *commit record*
// arrives — one message round-trip, no disk write on the commit path.
//
// Group commit (DESIGN.md §9): with batching configured, submissions
// accumulate in a batch buffer and ship as one multi-transaction frame when
// a txn/byte threshold fills, the flush delay expires, or flush_batch() is
// called. The durability point is unchanged — a buffered transaction was
// never acknowledged, so its committer still waits for the (now batched)
// mirror ack. Acks are cumulative: on_mirror_ack(seq) releases every
// pending transaction with validation seq <= `seq`.
//
// Transient mode (kDirectDisk): no mirror exists, so the records go to the
// local log device and the transaction commits only once the flush is
// durable.
//
// kOff: logging disabled (the paper's "No logs" optimal comparison).
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "rodain/common/clock.hpp"
#include "rodain/common/types.hpp"
#include "rodain/log/log_storage.hpp"
#include "rodain/log/record.hpp"
#include "rodain/obs/lifecycle.hpp"

namespace rodain::log {

/// Transport hook: ships records toward the mirror. Acks flow back through
/// LogWriter::on_mirror_ack. Contract: one ship() call may carry many
/// transactions, but a transaction's record set ([after-images..., commit])
/// is never split across calls — the mirror's per-batch duplicate detection
/// (Reorderer::begin_batch) depends on this.
class Shipper {
 public:
  virtual ~Shipper() = default;
  virtual void ship(std::span<const Record> records) = 0;
};

class LogWriter {
 public:
  /// Group-commit knobs. The default (max_txns 1, no byte/delay trigger)
  /// ships every submission immediately — the unbatched historical path.
  struct BatchOptions {
    /// Flush when the batch holds this many transactions. 1 = unbatched.
    std::size_t max_txns{1};
    /// Flush when the batch's encoded payload reaches this many bytes
    /// (0 disables the byte trigger).
    std::size_t max_bytes{0};
    /// Upper bound on how long a submission may sit in the buffer before
    /// shipping. Requires a flush scheduler and a clock (configure_batching);
    /// zero disables the timer — then only thresholds and explicit
    /// flush_batch() calls drain the buffer.
    Duration max_delay{Duration::zero()};
    /// Adapt the effective delay to load: a delay-filled batch under half
    /// full halves it (light load should not pay the full window), a
    /// threshold-filled batch doubles it back toward max_delay. Bounded to
    /// [max_delay/8, max_delay].
    bool adaptive_delay{false};
  };

  /// `disk` may be null only if the writer is never switched to
  /// kDirectDisk; `shipper` may be null only if never switched to kMirror.
  LogWriter(LogMode mode, LogStorage* disk, Shipper* shipper);

  [[nodiscard]] LogMode mode() const { return mode_; }
  void set_mode(LogMode mode);

  /// Late wiring for the replication layer (the replicator needs the writer
  /// and vice versa; the writer is constructed first with a null shipper).
  void set_shipper(Shipper* shipper) { shipper_ = shipper; }

  /// Submit one validated transaction's records (after-images then the
  /// commit record, already in that order). `on_durable` fires when the
  /// commit rule of the current mode is satisfied. `stages`, when non-null,
  /// is the transaction's lifecycle stage clock: the writer stamps kShip
  /// when the records leave the batch buffer and kMirrorAck when the
  /// covering acknowledgment arrives. The pointer must stay valid until
  /// `on_durable` fires or the writer is destroyed.
  void submit(ValidationTs seq, std::vector<Record> records,
              std::function<void()> on_durable,
              obs::StageClock* stages = nullptr);

  /// Clock used for lifecycle stage stamps (independent of the ack-timeout
  /// and batching clocks, which are optional features).
  void set_stage_clock(const Clock* clock) { stage_clock_ = clock; }

  /// Cumulative mirror acknowledgment: every pending transaction with
  /// validation seq <= `seq` is durable on the mirror. Callbacks fire in
  /// seq order.
  void on_mirror_ack(ValidationTs seq);

  /// The mirror is gone: switch to direct-disk logging and re-route every
  /// not-yet-acknowledged transaction (shipped or still buffered) to the
  /// local device so that no committing transaction is stranded.
  void on_mirror_lost();

  /// Arm the ack timeout: when check_ack_timeouts() finds the oldest
  /// unacknowledged shipment older than `timeout`, `on_timeout` fires (the
  /// node escalates to on_mirror_lost so committers are never stranded
  /// behind a silently dead link). `on_deadline(at)`, when set, fires once
  /// per first unacknowledged shipment: when ack_deadline() goes from
  /// nullopt to `at`. Later shipments only ever move the deadline later,
  /// so a host that polls check_ack_timeouts() needs no other wake-up.
  void configure_ack_timeout(const Clock* clock, Duration timeout,
                             std::function<void()> on_timeout,
                             std::function<void(TimePoint)> on_deadline = {});

  /// Poll from the node's heartbeat tick. Returns true when the timeout
  /// fired this call.
  bool check_ack_timeouts();

  /// The earliest time check_ack_timeouts() can fire: the oldest
  /// unacknowledged shipment's time plus the timeout. Nullopt while it
  /// cannot fire (no shipment pending, not kMirror, or no timeout armed).
  [[nodiscard]] std::optional<TimePoint> ack_deadline() const;

  /// Enable group commit. `schedule_flush(d)` asks the host runtime to call
  /// flush_batch() after `d`; a stale callback (the batch already drained)
  /// is harmless — flush_batch() re-arms or no-ops as needed. Pass an empty
  /// scheduler only when flush_batch() is driven externally (tests).
  void configure_batching(const Clock* clock, BatchOptions options,
                          std::function<void(Duration)> schedule_flush = {});

  /// Drain the batch buffer as one shipment. Called by the host's flush
  /// timer and safe to call any time; if the current batch's delay window
  /// has not expired yet (the timer was armed for an older batch), the
  /// flush is re-armed instead of shipping early.
  void flush_batch();

  /// Transactions accumulated in the batch buffer, not yet shipped.
  [[nodiscard]] std::size_t batched_txns() const { return batch_txns_; }
  /// Effective flush delay after adaptive adjustment (== max_delay when
  /// adaptive_delay is off).
  [[nodiscard]] Duration current_flush_delay() const { return batch_delay_; }

  /// Re-ship every unacknowledged transaction as one combined batch in
  /// validation order (after a reconnect — the mirror drops what it already
  /// applied as stale and re-acks its cumulative floor). Each resent entry's
  /// ack-timeout clock restarts: a reconnect must get a full timeout window
  /// before escalation, not inherit the dead link's elapsed time. Returns
  /// how many transactions were resent.
  std::size_t resend_pending();

  [[nodiscard]] std::size_t pending_acks() const { return pending_.size(); }

  /// Records of every submitted transaction with validation seq > `seq`,
  /// in seq order — the catch-up stream a rejoining mirror needs between
  /// its snapshot boundary and the live stream. Retention is bounded
  /// (`kTailRetention` transactions); older history requires a snapshot.
  [[nodiscard]] std::vector<Record> tail_since(ValidationTs seq) const;
  static constexpr std::size_t kTailRetention = 4096;

  /// Keep every tail entry with seq > `seq` until unpin_tail(): a served
  /// joiner installs while this writer still logs to disk, and the switch
  /// to kMirror ships what committed meanwhile (DESIGN.md §12). Eviction
  /// past kTailRetention then takes only entries at or below the pin. The
  /// pin is bounded: a tail that would grow past kMaxPinnedTail drops it,
  /// and the join that set it has to start over.
  void pin_tail(ValidationTs seq);
  void unpin_tail();
  /// The pinned floor; nullopt when no pin is held (never set, released,
  /// or dropped at the bound).
  [[nodiscard]] std::optional<ValidationTs> tail_pin() const {
    return tail_pin_;
  }
  static constexpr std::size_t kMaxPinnedTail = 1 << 16;

  /// Telemetry: transactions that commuted through each path, plus batch
  /// shipping and cumulative-ack accounting.
  struct Counters {
    std::uint64_t via_mirror{0};
    std::uint64_t via_disk{0};
    std::uint64_t via_none{0};
    std::uint64_t rerouted{0};
    std::uint64_t resent{0};
    std::uint64_t ack_timeouts{0};
    /// Frames shipped to the mirror (each one kLogBatch message).
    std::uint64_t batches_shipped{0};
    /// Transactions carried by those frames (mean fill = txns / batches).
    std::uint64_t batch_txns_shipped{0};
    std::uint64_t batch_bytes_shipped{0};
    /// Why each batch drained: txn threshold, byte threshold, delay timer,
    /// or forced (explicit flush / unbatched ship-at-submit).
    std::uint64_t batch_fill_txns{0};
    std::uint64_t batch_fill_bytes{0};
    std::uint64_t batch_fill_delay{0};
    std::uint64_t batch_fill_forced{0};
    /// Ack messages received and the pending txns they released — the
    /// coalescing ratio is acks_received : ack_released_txns.
    std::uint64_t acks_received{0};
    std::uint64_t ack_released_txns{0};
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  struct Pending {
    std::vector<Record> records;
    std::function<void()> on_durable;
    /// obs time base (now_us) at ship time; the commit ack closes the
    /// mirror_ack span and feeds the replication-RTT timer. 0 when obs off.
    std::int64_t shipped_at_us{0};
    /// Clock time of the latest (re)shipment — resend_pending() restamps it
    /// so the ack timeout measures the current link attempt, not the total
    /// time-to-durable across reconnects.
    TimePoint shipped_at{};
    /// Lifecycle stage clock of the submitting transaction (may be null).
    obs::StageClock* stages{nullptr};
  };

  enum class FillCause { kTxns, kBytes, kDelay, kForced };

  void submit_to_disk(std::vector<Record> records,
                      std::function<void()> on_durable,
                      obs::StageClock* stages);
  /// Stamp a stage on a transaction's clock using the stage clock.
  void mark_stage(obs::StageClock* stages, obs::Stage s) const;
  void drain_batch(FillCause cause);
  void clear_batch();
  /// Evict past kTailRetention, honouring (and bounding) the pin.
  void trim_tail();

  LogMode mode_;
  LogStorage* disk_;
  Shipper* shipper_;
  const Clock* clock_{nullptr};
  const Clock* stage_clock_{nullptr};
  Duration ack_timeout_{Duration::zero()};
  std::function<void()> on_ack_timeout_;
  std::function<void(TimePoint)> on_ack_deadline_;
  std::map<ValidationTs, Pending> pending_;  // unacked, in seq order
  std::map<ValidationTs, std::vector<Record>> tail_;  // recent submissions
  std::optional<ValidationTs> tail_pin_;

  // ---- group-commit batch buffer ----------------------------------------
  BatchOptions batch_opts_{};
  const Clock* batch_clock_{nullptr};
  std::function<void(Duration)> schedule_flush_;
  std::vector<Record> batch_records_;
  /// Stage clocks of the buffered transactions (parallel bookkeeping, may
  /// hold nulls); stamped kShip when the batch drains.
  std::vector<obs::StageClock*> batch_stages_;
  std::size_t batch_txns_{0};
  std::size_t batch_bytes_{0};
  Duration batch_delay_{Duration::zero()};  // adaptive effective delay
  std::optional<TimePoint> batch_deadline_;

  Counters counters_;
};

}  // namespace rodain::log
