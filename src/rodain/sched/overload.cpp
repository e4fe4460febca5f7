#include "rodain/sched/overload.hpp"

#include <algorithm>

#include "rodain/obs/obs.hpp"

namespace rodain::sched {

namespace {
struct SchedMetrics {
  obs::Counter& admitted = obs::metrics().counter("sched.admitted");
  obs::Counter& rejected = obs::metrics().counter("sched.overload_rejected");
  obs::Counter& deadline_misses =
      obs::metrics().counter("sched.deadline_misses");
  obs::Gauge& active = obs::metrics().gauge("sched.active");
  obs::Gauge& effective_cap = obs::metrics().gauge("sched.effective_cap");
};
SchedMetrics& sm() {
  static SchedMetrics m;
  return m;
}
}  // namespace

void OverloadManager::prune(TimePoint now) {
  const TimePoint horizon = now - config_.observation_window;
  while (!misses_.empty() && misses_.front() < horizon) misses_.pop_front();
}

std::size_t OverloadManager::recent_misses(TimePoint now) {
  prune(now);
  return misses_.size();
}

std::size_t OverloadManager::effective_cap(TimePoint now) {
  if (!config_.miss_feedback) return config_.max_active;
  prune(now);
  if (misses_.size() <= config_.miss_threshold) return config_.max_active;
  // Each miss beyond the threshold sheds one admission slot.
  const std::size_t excess = misses_.size() - config_.miss_threshold;
  const std::size_t cap =
      config_.max_active > excess ? config_.max_active - excess : 0;
  return std::max(cap, config_.min_cap);
}

bool OverloadManager::try_admit(TimePoint now) {
  const std::size_t cap = effective_cap(now);
  sm().effective_cap.set(static_cast<double>(cap));
  if (active_ >= cap) {
    sm().rejected.inc();
    return false;
  }
  ++active_;
  sm().admitted.inc();
  sm().active.set(static_cast<double>(active_));
  return true;
}

void OverloadManager::on_finish() {
  if (active_ > 0) --active_;
  sm().active.set(static_cast<double>(active_));
}

void OverloadManager::on_deadline_miss(TimePoint now) {
  misses_.push_back(now);
  sm().deadline_misses.inc();
}

TxnOutcome tally_finish(const txn::Transaction& t, TxnOutcome outcome,
                        bool late, TimePoint now, TxnCounters& counters,
                        LatencyHistogram& latency, OverloadManager& overload) {
  overload.on_finish();
  counters.restarts += static_cast<std::uint64_t>(t.restarts());
  const bool missed = (outcome == TxnOutcome::kCommitted && late) ||
                      outcome == TxnOutcome::kMissedDeadline;
  if (obs::enabled()) {
    obs::observe_stages(t.stages, now.us);
    if (missed && t.deadline() != TimePoint::max()) {
      // Charge the miss to the lifecycle stage that exhausted the slack.
      obs::charge_deadline_miss(t.stages, (t.deadline() - t.arrival()).us,
                                now.us);
    }
  }
  if (missed) {
    // A late commit is durable, but its client missed the deadline.
    ++counters.missed_deadline;
    overload.on_deadline_miss(now);
    return TxnOutcome::kMissedDeadline;
  }
  switch (outcome) {
    case TxnOutcome::kCommitted:
      ++counters.committed;
      latency.add(now - t.arrival());
      break;
    case TxnOutcome::kMissedDeadline:
      break;  // counted above
    case TxnOutcome::kOverloadRejected:
      ++counters.overload_rejected;
      break;
    case TxnOutcome::kConflictAborted:
      ++counters.conflict_aborted;
      break;
    case TxnOutcome::kSystemAborted:
      ++counters.system_aborted;
      break;
  }
  return outcome;
}

}  // namespace rodain::sched
