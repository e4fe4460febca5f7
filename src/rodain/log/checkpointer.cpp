#include "rodain/log/checkpointer.hpp"

#include "rodain/log/log_storage.hpp"
#include "rodain/obs/obs.hpp"

namespace rodain::log {

namespace {
/// One counter per fact, whichever runtime or role ran the checkpoint.
struct CheckpointMetrics {
  obs::Counter& written = obs::metrics().counter("log.checkpoints");
  obs::Counter& failures = obs::metrics().counter("log.checkpoint_failures");
};
CheckpointMetrics& cm() {
  static CheckpointMetrics m;
  return m;
}
}  // namespace

void Checkpointer::configure(Options options) {
  options_ = std::move(options);
  (void)cm();  // both counters show on /metrics at 0 from here on
}

bool Checkpointer::tick(TimePoint now) {
  if (!enabled()) return false;
  if (last_run_ && now - *last_run_ < options_.interval) return false;
  (void)run(now);  // failures are counted in stats; the cadence continues
  return true;
}

Status Checkpointer::run(TimePoint now, bool force) {
  if (!options_.boundary || !options_.write) {
    return Status::error(ErrorCode::kFailedPrecondition,
                         "checkpointer not configured");
  }
  if (running_) {
    // Another run is between boundary selection and truncation (the fuzzy
    // write path releases the commit mutex mid-encode). Letting this call
    // proceed would let an older boundary rename over the newer artifact.
    return Status::error(ErrorCode::kUnavailable, "checkpoint already running");
  }
  last_run_ = now;
  const ValidationTs boundary = options_.boundary();
  if (boundary < stats_.last_boundary) {
    return Status::error(ErrorCode::kFailedPrecondition,
                         "checkpoint boundary went backwards");
  }
  if (!force && (boundary == 0 || (stats_.checkpoints > 0 &&
                                   boundary <= stats_.last_boundary))) {
    return Status::ok();  // nothing new to cover
  }
  running_ = true;
  Status status = options_.write(boundary);
  running_ = false;
  if (!status) {
    ++stats_.failures;
    cm().failures.inc();
    return status;
  }
  ++stats_.checkpoints;
  stats_.last_boundary = boundary;
  cm().written.inc();
  if (options_.log) stats_.truncated += options_.log->truncate_upto(boundary);
  return Status::ok();
}

}  // namespace rodain::log
