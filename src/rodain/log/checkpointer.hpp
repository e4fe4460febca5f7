// Periodic checkpoint + log-truncation driver (DESIGN.md §10).
//
// One small clock-agnostic component shared by every runtime that owns a
// durable log: the rt::Node timer thread, the simdb::SimNode virtual-time
// event loop, and the mirror apply path (MirrorService::poll). The owner
// supplies a consistent boundary (installed low-water mark on a serving
// node, applied_seq on a mirror) and a write callback; after a successful
// checkpoint the log is truncated up to that boundary, which is what keeps
// restart time and disk footprint bounded.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "rodain/common/status.hpp"
#include "rodain/common/time.hpp"
#include "rodain/common/types.hpp"

namespace rodain::log {

class LogStorage;

class Checkpointer {
 public:
  struct Options {
    Duration interval{Duration::zero()};  ///< non-positive disables tick()
    /// Highest validation seq the checkpoint may cover consistently.
    std::function<ValidationTs()> boundary;
    /// Persist the checkpoint at the given boundary.
    std::function<Status(ValidationTs)> write;
    /// Log to truncate after a successful write (optional).
    LogStorage* log{nullptr};
  };

  struct Stats {
    std::uint64_t checkpoints{0};
    std::uint64_t failures{0};
    /// Units reported by LogStorage::truncate_upto.
    std::uint64_t truncated{0};
    ValidationTs last_boundary{0};
  };

  Checkpointer() = default;
  explicit Checkpointer(Options options) { configure(std::move(options)); }

  /// Also registers log.checkpoints and log.checkpoint_failures.
  void configure(Options options);

  [[nodiscard]] bool enabled() const {
    return options_.interval.is_positive() && options_.boundary &&
           options_.write;
  }

  /// Run a checkpoint when the interval elapsed; returns whether one ran.
  bool tick(TimePoint now);

  /// Run a checkpoint now. By default skips the write when the boundary has
  /// not advanced since the last successful checkpoint; `force` writes even
  /// then (explicit write_checkpoint() requests, which historically always
  /// produced a file). Boundary selection, the write, and the truncation
  /// are a single-flight critical section: a second caller arriving while
  /// one is in flight gets kUnavailable instead of racing an older boundary
  /// over a newer artifact — callers serialize on the owner's commit mutex,
  /// but the fuzzy path drops it mid-write, so the guard is what keeps the
  /// covered boundary monotone.
  Status run(TimePoint now, bool force = false);

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  Options options_;
  std::optional<TimePoint> last_run_;
  /// Set while a run() is between boundary selection and truncation. Guarded
  /// by the owner's external serialization (commit mutex) at entry/exit.
  bool running_{false};
  Stats stats_;
};

}  // namespace rodain::log
