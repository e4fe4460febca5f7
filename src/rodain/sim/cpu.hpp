// Simulated single CPU with preemptive priority scheduling.
//
// The paper's prototype runs on one Pentium Pro; transaction operations are
// CPU bursts. Jobs carry a PriorityKey (criticality, deadline) — an arriving
// higher-priority job preempts the running one exactly, charging it only for
// the CPU it actually consumed. This models the modified-EDF processor.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>

#include "rodain/common/types.hpp"
#include "rodain/sim/simulation.hpp"

namespace rodain::sim {

class SimCpu {
 public:
  using JobId = std::uint64_t;
  static constexpr JobId kInvalidJob = 0;

  explicit SimCpu(Simulation& sim) : sim_(sim) {}
  SimCpu(const SimCpu&) = delete;
  SimCpu& operator=(const SimCpu&) = delete;

  /// Enqueue a CPU burst of `cost`; `on_complete` fires (at virtual time)
  /// when the burst has received `cost` of CPU. Preempts the running job if
  /// `key` has higher priority.
  JobId submit(PriorityKey key, Duration cost,
               std::function<void()> on_complete);

  /// Remove a queued or running job (e.g. its transaction was aborted).
  /// Returns false if it already completed or is unknown.
  bool cancel(JobId id);

  /// Raise (or change) the priority of a queued job; may trigger preemption.
  bool reprioritize(JobId id, PriorityKey key);

  [[nodiscard]] bool busy() const { return running_.has_value(); }
  /// Total CPU time consumed by completed or cancelled work so far.
  [[nodiscard]] Duration busy_time() const;

 private:
  struct Job {
    PriorityKey key;
    Duration remaining;
    std::function<void()> on_complete;
  };

  /// Ready-queue ordering key: priority first, then job id so that two jobs
  /// with identical PriorityKeys (e.g. successive steps of one transaction)
  /// coexist and run FIFO instead of colliding in the map.
  struct ReadyKey {
    PriorityKey prio;
    JobId id;
  };
  struct ReadyOrder {
    bool operator()(const ReadyKey& a, const ReadyKey& b) const {
      if (a.prio.higher_than(b.prio)) return true;
      if (b.prio.higher_than(a.prio)) return false;
      return a.id < b.id;
    }
  };

  void dispatch_next();
  void start(JobId id, Job job);
  /// Stop the running job, charging it for consumed CPU; returns it.
  std::pair<JobId, Job> stop_running();
  void on_run_complete();

  Simulation& sim_;
  JobId next_job_{1};
  std::map<ReadyKey, Job, ReadyOrder> ready_;
  std::unordered_map<JobId, PriorityKey> ready_index_;

  struct Running {
    JobId id;
    Job job;
    TimePoint started;
    EventId completion_event;
  };
  std::optional<Running> running_;
  Duration consumed_{Duration::zero()};
};

}  // namespace rodain::sim
