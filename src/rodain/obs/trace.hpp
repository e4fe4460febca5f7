// Commit-path span tracing: a bounded ring of begin/end events exported in
// Chrome's trace_event JSON format (load the dump at chrome://tracing or
// https://ui.perfetto.dev).
//
// The ring is lock-free for writers: one relaxed fetch_add reserves a slot,
// old events are overwritten once the ring wraps (the dump reports how many
// were lost). Slot writes are not atomic — a dump taken while writers are
// hot may contain a few torn events, which is acceptable for a diagnostics
// artifact and keeps the record path to ~a dozen instructions.
//
// Span taxonomy (see DESIGN.md "Observability"):
//   commit path   execute, validate, write_phase, log_ship, mirror_ack
//   mirror side   reorder, apply, snapshot_install
//   lifecycle     role_change, primary_failure, mirror_takeover, rejoin,
//                 checkpoint, recovery (instant events)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rodain/obs/control.hpp"

namespace rodain::obs {

enum class Phase : std::uint8_t {
  // Commit-path spans (primary).
  kExecute = 0,
  kValidate,
  kWritePhase,
  kLogShip,
  kMirrorAck,
  // Mirror-side spans.
  kReorder,
  kApply,
  /// Epoch barrier instant: one released run fully installed (the value is
  /// the epoch's last seq). Emitted from the mirror's parallel apply path.
  kApplyEpoch,
  kSnapshotInstall,
  // Lifecycle instants.
  kRoleChange,
  kPrimaryFailure,
  kMirrorTakeover,
  kRejoin,
  kCheckpoint,
  kRecovery,
};

[[nodiscard]] const char* phase_name(Phase p);

struct TraceEvent {
  std::int64_t ts_us{0};   ///< begin (spans) or occurrence (instants)
  std::int64_t dur_us{0};  ///< span duration; < 0 marks an instant event
  std::uint64_t arg{0};    ///< txn id / validation seq / role ordinal
  std::uint32_t tid{0};
  Phase phase{Phase::kExecute};
};

class SpanTracer {
 public:
  explicit SpanTracer(std::size_t capacity = 1u << 15);

  /// Drop recorded events and resize the ring (capacity rounded up to a
  /// power of two). Not safe concurrently with writers.
  void reset(std::size_t capacity);

  void record_span(Phase phase, std::int64_t begin_us, std::int64_t end_us,
                   std::uint64_t arg);
  void record_instant(Phase phase, std::uint64_t arg);

  /// Events recorded since the last reset (monotonic; may exceed capacity).
  [[nodiscard]] std::uint64_t recorded() const {
    return next_.load(std::memory_order_relaxed);
  }
  /// Events lost to ring wrap since the last reset. Also surfaced as the
  /// `trace.events_dropped` counter so dashboards can see the loss without
  /// taking a dump.
  [[nodiscard]] std::uint64_t dropped() const {
    const std::uint64_t n = recorded();
    return n > ring_.size() ? n - ring_.size() : 0;
  }
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }

  /// Retained events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  /// Chrome trace_event JSON ({"traceEvents":[...]}).
  [[nodiscard]] std::string dump_json() const;
  /// Write dump_json() to `path`; returns false on I/O failure.
  bool dump_to_file(const std::string& path) const;

 private:
  void record(Phase phase, std::int64_t ts_us, std::int64_t dur_us,
              std::uint64_t arg);

  std::vector<TraceEvent> ring_;
  std::size_t mask_{0};
  std::atomic<std::uint64_t> next_{0};
};

/// RAII span: records [construction, destruction) when tracing is on.
class ScopedSpan {
 public:
  ScopedSpan(SpanTracer& tracer, Phase phase, std::uint64_t arg)
      : tracer_(tracer), phase_(phase), arg_(arg),
        active_(enabled() && tracing_enabled()) {
    if (active_) begin_us_ = now_us();
  }
  ~ScopedSpan() {
    if (active_) tracer_.record_span(phase_, begin_us_, now_us(), arg_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanTracer& tracer_;
  Phase phase_;
  std::uint64_t arg_;
  bool active_;
  std::int64_t begin_us_{0};
};

}  // namespace rodain::obs
