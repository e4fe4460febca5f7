// Overload management (paper §2):
//
//   "To handle occasional system overload situations the scheduler can limit
//    the number of active transactions in the database system. We use the
//    number of transactions that have missed their deadlines within the
//    observation period as the indication of the current system load level."
//
// Concretely: at most `max_active` transactions are in the system at once
// (50 in the paper's experiments); when the limit is reached an arriving
// lower-priority transaction is aborted. On top of that, a sliding window
// of deadline misses shrinks the effective cap under sustained overload and
// lets it recover when misses subside.
#pragma once

#include <cstddef>
#include <deque>

#include "rodain/common/stats.hpp"
#include "rodain/common/time.hpp"
#include "rodain/common/types.hpp"
#include "rodain/txn/transaction.hpp"

namespace rodain::sched {

struct OverloadConfig {
  std::size_t max_active{50};
  /// Miss-window feedback (set false for the bare fixed-cap policy).
  bool miss_feedback{true};
  Duration observation_window{Duration::seconds(1)};
  /// Misses inside the window beyond which the cap starts shrinking.
  std::size_t miss_threshold{25};
  /// The cap never shrinks below this.
  std::size_t min_cap{8};
  /// When the cap is reached and the arrival outranks the lowest-priority
  /// abortable active transaction, shed that one instead of the arrival
  /// (the paper sheds "an arriving LOWER priority transaction" — a higher
  /// priority arrival displaces). Off by default: the paper's measured
  /// policy is plain rejection.
  bool displace_on_admission{false};
};

class OverloadManager {
 public:
  explicit OverloadManager(OverloadConfig config) : config_(config) {}

  /// Admission decision for an arriving transaction. On success the
  /// transaction counts as active until on_finish().
  [[nodiscard]] bool try_admit(TimePoint now);

  /// A transaction left the system (any outcome).
  void on_finish();

  /// A transaction missed its deadline — load-level evidence.
  void on_deadline_miss(TimePoint now);

  [[nodiscard]] std::size_t active() const { return active_; }
  /// The cap currently in force (≤ max_active under feedback pressure).
  [[nodiscard]] std::size_t effective_cap(TimePoint now);
  [[nodiscard]] std::size_t recent_misses(TimePoint now);

 private:
  void prune(TimePoint now);

  OverloadConfig config_;
  std::size_t active_{0};
  std::deque<TimePoint> misses_;  // miss times inside the window
};

/// Counts one finished transaction, for both drivers: the outcome into
/// `counters` (a commit past its deadline counts as a miss, as the paper
/// counts it), a timely commit's latency, the overload manager's finish
/// and miss feed, and the lifecycle-stage observation with its
/// deadline-miss charge. Returns the outcome as counted.
TxnOutcome tally_finish(const txn::Transaction& t, TxnOutcome outcome,
                        bool late, TimePoint now, TxnCounters& counters,
                        LatencyHistogram& latency, OverloadManager& overload);

}  // namespace rodain::sched
