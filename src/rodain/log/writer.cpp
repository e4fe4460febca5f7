#include "rodain/log/writer.hpp"

#include <algorithm>
#include <cassert>

#include "rodain/common/diag.hpp"
#include "rodain/obs/obs.hpp"

namespace rodain::log {

namespace {
struct WriterMetrics {
  obs::Counter& via_mirror = obs::metrics().counter("log.submit.via_mirror");
  obs::Counter& via_disk = obs::metrics().counter("log.submit.via_disk");
  obs::Counter& via_none = obs::metrics().counter("log.submit.via_none");
  obs::Counter& rerouted = obs::metrics().counter("log.rerouted");
  obs::Counter& resent = obs::metrics().counter("log.resent");
  obs::Counter& ack_timeouts = obs::metrics().counter("log.ack_timeouts");
  obs::Gauge& pending_acks = obs::metrics().gauge("log.pending_acks");
  /// Group-commit shipping: frames, txns and bytes per frame, and which
  /// trigger drained each batch (DESIGN.md §9).
  obs::Counter& batch_shipped = obs::metrics().counter("log.batch.shipped");
  obs::Counter& batch_txns = obs::metrics().counter("log.batch.txns");
  obs::Counter& batch_bytes = obs::metrics().counter("log.batch.bytes");
  obs::Counter& batch_fill_txns =
      obs::metrics().counter("log.batch.fill.txns");
  obs::Counter& batch_fill_bytes =
      obs::metrics().counter("log.batch.fill.bytes");
  obs::Counter& batch_fill_delay =
      obs::metrics().counter("log.batch.fill.delay");
  obs::Counter& batch_fill_forced =
      obs::metrics().counter("log.batch.fill.forced");
  obs::Gauge& batch_buffered = obs::metrics().gauge("log.batch.buffered_txns");
  /// Cumulative acks: messages received vs pending txns they released.
  obs::Counter& acks_received = obs::metrics().counter("repl.acks_received");
  obs::Counter& ack_released =
      obs::metrics().counter("repl.ack_released_txns");
  /// One message round-trip from shipping a transaction's records to the
  /// mirror's commit ack — the paper's commit-path cost.
  obs::Timer& commit_rtt = obs::metrics().timer("repl.commit_rtt_us");
};
WriterMetrics& wm() {
  static WriterMetrics m;
  return m;
}
}  // namespace

LogWriter::LogWriter(LogMode mode, LogStorage* disk, Shipper* shipper)
    : mode_(mode), disk_(disk), shipper_(shipper) {
  assert(mode != LogMode::kDirectDisk || disk != nullptr);
  assert(mode != LogMode::kMirror || shipper != nullptr);
}

void LogWriter::set_mode(LogMode mode) {
  assert(mode != LogMode::kDirectDisk || disk_ != nullptr);
  assert(mode != LogMode::kMirror || shipper_ != nullptr);
  mode_ = mode;
}

void LogWriter::configure_batching(
    const Clock* clock, BatchOptions options,
    std::function<void(Duration)> schedule_flush) {
  batch_opts_ = options;
  batch_clock_ = clock;
  schedule_flush_ = std::move(schedule_flush);
  batch_delay_ = options.max_delay;
}

void LogWriter::mark_stage(obs::StageClock* stages, obs::Stage s) const {
  if (stages && stage_clock_ && obs::enabled()) {
    stages->enter(s, stage_clock_->now().us);
  }
}

void LogWriter::submit(ValidationTs seq, std::vector<Record> records,
                       std::function<void()> on_durable,
                       obs::StageClock* stages) {
  tail_[seq] = records;
  trim_tail();
  switch (mode()) {
    case LogMode::kOff:
      ++counters_.via_none;
      wm().via_none.inc();
      if (on_durable) on_durable();
      return;
    case LogMode::kMirror: {
      ++counters_.via_mirror;
      wm().via_mirror.inc();
      const std::int64_t shipped_at = obs::enabled() ? obs::now_us() : 0;
      std::size_t bytes = 0;
      for (const Record& r : records) bytes += r.encoded_size();
      // Register before shipping: a synchronous (loopback) ack must find
      // the pending entry, or the durable callback would be lost.
      batch_records_.insert(batch_records_.end(), records.begin(),
                            records.end());
      batch_stages_.push_back(stages);
      const bool first_unacked = pending_.empty();
      pending_.emplace(seq,
                       Pending{std::move(records), std::move(on_durable),
                               shipped_at,
                               clock_ ? clock_->now() : TimePoint{}, stages});
      wm().pending_acks.set(static_cast<double>(pending_.size()));
      if (first_unacked && on_ack_deadline_) {
        if (const auto at = ack_deadline()) on_ack_deadline_(*at);
      }
      ++batch_txns_;
      batch_bytes_ += bytes;
      wm().batch_buffered.set(static_cast<double>(batch_txns_));
      if (batch_opts_.max_txns != 0 && batch_txns_ >= batch_opts_.max_txns) {
        drain_batch(batch_opts_.max_txns <= 1 ? FillCause::kForced
                                              : FillCause::kTxns);
      } else if (batch_opts_.max_bytes != 0 &&
                 batch_bytes_ >= batch_opts_.max_bytes) {
        drain_batch(FillCause::kBytes);
      } else if (batch_txns_ == 1 && batch_opts_.max_delay.is_positive() &&
                 batch_clock_) {
        // First txn of a fresh batch: open the delay window.
        batch_deadline_ = batch_clock_->now() + batch_delay_;
        if (schedule_flush_) schedule_flush_(batch_delay_);
      }
      return;
    }
    case LogMode::kDirectDisk:
      ++counters_.via_disk;
      wm().via_disk.inc();
      submit_to_disk(std::move(records), std::move(on_durable), stages);
      return;
  }
}

void LogWriter::flush_batch() {
  if (batch_txns_ == 0) return;
  if (batch_deadline_ && batch_clock_ &&
      batch_clock_->now() < *batch_deadline_) {
    // The timer that called us was armed for an older batch that already
    // drained on a threshold; re-arm for this batch's remaining window.
    if (schedule_flush_) {
      schedule_flush_(*batch_deadline_ - batch_clock_->now());
      return;
    }
  }
  drain_batch(batch_deadline_ ? FillCause::kDelay : FillCause::kForced);
}

void LogWriter::drain_batch(FillCause cause) {
  if (batch_txns_ == 0) return;
  if (batch_opts_.adaptive_delay && batch_opts_.max_delay.is_positive()) {
    const Duration floor =
        std::max(Duration::micros(1), batch_opts_.max_delay / 8);
    if (cause == FillCause::kTxns || cause == FillCause::kBytes) {
      batch_delay_ = std::min(batch_opts_.max_delay, batch_delay_ * 2);
    } else if (cause == FillCause::kDelay &&
               batch_txns_ * 2 < batch_opts_.max_txns) {
      // The window expired under half full: light load should not pay it.
      batch_delay_ = std::max(floor, batch_delay_ / 2);
    }
  }
  ++counters_.batches_shipped;
  counters_.batch_txns_shipped += batch_txns_;
  counters_.batch_bytes_shipped += batch_bytes_;
  wm().batch_shipped.inc();
  wm().batch_txns.inc(batch_txns_);
  wm().batch_bytes.inc(batch_bytes_);
  switch (cause) {
    case FillCause::kTxns:
      ++counters_.batch_fill_txns;
      wm().batch_fill_txns.inc();
      break;
    case FillCause::kBytes:
      ++counters_.batch_fill_bytes;
      wm().batch_fill_bytes.inc();
      break;
    case FillCause::kDelay:
      ++counters_.batch_fill_delay;
      wm().batch_fill_delay.inc();
      break;
    case FillCause::kForced:
      ++counters_.batch_fill_forced;
      wm().batch_fill_forced.inc();
      break;
  }
  for (obs::StageClock* stages : batch_stages_) {
    mark_stage(stages, obs::Stage::kShip);
  }
  {
    // Ship from the writer-owned buffer: a synchronous ack may erase
    // pending_ entries while the shipper is still iterating the span.
    obs::ScopedSpan span(obs::tracer(), obs::Phase::kLogShip,
                        pending_.empty() ? 0 : pending_.rbegin()->first);
    shipper_->ship(batch_records_);
  }
  clear_batch();
}

void LogWriter::clear_batch() {
  batch_records_.clear();
  batch_stages_.clear();
  batch_txns_ = 0;
  batch_bytes_ = 0;
  batch_deadline_.reset();
  wm().batch_buffered.set(0.0);
}

void LogWriter::submit_to_disk(std::vector<Record> records,
                               std::function<void()> on_durable,
                               obs::StageClock* stages) {
  // No mirror round-trip: the flush is the ship for attribution purposes.
  mark_stage(stages, obs::Stage::kShip);
  for (const Record& r : records) disk_->append(r);
  disk_->flush([cb = std::move(on_durable)](Status s) {
    if (!s) RODAIN_ERROR("log flush failed: %s", s.to_string().c_str());
    if (cb) cb();
  });
}

void LogWriter::on_mirror_ack(ValidationTs seq) {
  // Cumulative: `seq` is the mirror's contiguous received-commit floor, so
  // every pending transaction at or below it is durable there. Release in
  // validation order.
  std::uint64_t released = 0;
  while (!pending_.empty() && pending_.begin()->first <= seq) {
    auto it = pending_.begin();
    mark_stage(it->second.stages, obs::Stage::kMirrorAck);
    if (it->second.shipped_at_us != 0) {
      const std::int64_t now = obs::now_us();
      if (obs::tracing_enabled()) {
        obs::tracer().record_span(obs::Phase::kMirrorAck,
                                  it->second.shipped_at_us, now, it->first);
      }
      wm().commit_rtt.observe(
          Duration::micros(now - it->second.shipped_at_us));
    }
    auto cb = std::move(it->second.on_durable);
    pending_.erase(it);
    ++released;
    if (cb) cb();
  }
  ++counters_.acks_received;
  counters_.ack_released_txns += released;
  wm().acks_received.inc();
  wm().ack_released.inc(released);
  wm().pending_acks.set(static_cast<double>(pending_.size()));
}

std::vector<Record> LogWriter::tail_since(ValidationTs seq) const {
  std::vector<Record> out;
  for (auto it = tail_.upper_bound(seq); it != tail_.end(); ++it) {
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  return out;
}

void LogWriter::pin_tail(ValidationTs seq) {
  tail_pin_ = seq;
  trim_tail();
}

void LogWriter::unpin_tail() {
  tail_pin_.reset();
  trim_tail();
}

void LogWriter::trim_tail() {
  if (tail_pin_ && tail_.size() > kMaxPinnedTail) {
    RODAIN_WARN("log writer: tail pin above seq %llu dropped at %zu "
                "transactions",
                static_cast<unsigned long long>(*tail_pin_), tail_.size());
    tail_pin_.reset();
  }
  while (tail_.size() > kTailRetention &&
         (!tail_pin_ || tail_.begin()->first <= *tail_pin_)) {
    tail_.erase(tail_.begin());
  }
}

void LogWriter::configure_ack_timeout(
    const Clock* clock, Duration timeout, std::function<void()> on_timeout,
    std::function<void(TimePoint)> on_deadline) {
  clock_ = clock;
  ack_timeout_ = timeout;
  on_ack_timeout_ = std::move(on_timeout);
  on_ack_deadline_ = std::move(on_deadline);
}

std::optional<TimePoint> LogWriter::ack_deadline() const {
  if (mode() != LogMode::kMirror || pending_.empty() || !clock_ ||
      !ack_timeout_.is_positive()) {
    return std::nullopt;
  }
  // The timeout fires once the shipment is strictly older than it.
  return pending_.begin()->second.shipped_at + ack_timeout_ +
         Duration::micros(1);
}

bool LogWriter::check_ack_timeouts() {
  const std::optional<TimePoint> deadline = ack_deadline();
  if (!deadline || clock_->now() < *deadline) return false;
  ++counters_.ack_timeouts;
  wm().ack_timeouts.inc();
  RODAIN_WARN("log writer: commit ack timeout (%zu pending, oldest seq %llu)",
              pending_.size(),
              static_cast<unsigned long long>(pending_.begin()->first));
  // The escalation hook typically calls on_mirror_lost(), clearing
  // pending_ — so one firing cannot repeat for the same transactions.
  if (on_ack_timeout_) on_ack_timeout_();
  return true;
}

std::size_t LogWriter::resend_pending() {
  if (mode() != LogMode::kMirror || !shipper_ || pending_.empty()) {
    return 0;
  }
  // Everything still buffered is also in pending_; drop the buffer so the
  // combined resend below is its only shipment.
  clear_batch();
  std::vector<Record> combined;
  const TimePoint now = clock_ ? clock_->now() : TimePoint{};
  const std::int64_t now_us = obs::enabled() ? obs::now_us() : 0;
  for (auto& [seq, p] : pending_) {
    combined.insert(combined.end(), p.records.begin(), p.records.end());
    // Restart the ack-timeout window and the obs ship stamp together: a
    // resend is a fresh shipment, so the ship→ack latency must anchor at
    // this attempt (0 when obs is off, like submit()).
    p.shipped_at = now;
    p.shipped_at_us = now_us;
    ++counters_.resent;
    wm().resent.inc();
  }
  ++counters_.batches_shipped;
  counters_.batch_txns_shipped += pending_.size();
  ++counters_.batch_fill_forced;
  wm().batch_shipped.inc();
  wm().batch_txns.inc(pending_.size());
  wm().batch_fill_forced.inc();
  shipper_->ship(combined);
  RODAIN_INFO("log writer: re-shipped %zu unacked txns after reconnect",
              pending_.size());
  return pending_.size();
}

void LogWriter::on_mirror_lost() {
  RODAIN_INFO("log writer: mirror lost, rerouting %zu pending txns to disk",
              pending_.size());
  // Buffered-but-unshipped txns are in pending_ too; the reroute below
  // covers them, so the batch buffer is just dropped.
  clear_batch();
  set_mode(LogMode::kDirectDisk);
  // Re-log in validation order so the local log stays ordered.
  auto pending = std::move(pending_);
  pending_.clear();
  wm().pending_acks.set(0.0);
  for (auto& [seq, p] : pending) {
    ++counters_.rerouted;
    wm().rerouted.inc();
    submit_to_disk(std::move(p.records), std::move(p.on_durable), p.stages);
  }
}

}  // namespace rodain::log
