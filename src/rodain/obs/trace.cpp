#include "rodain/obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>

#include "rodain/obs/obs.hpp"

namespace rodain::obs {

namespace {

/// Count a wrap-loss in the registry. The handle is resolved once; the
/// counter itself no-ops while obs is disabled.
void count_dropped_event() {
  static Counter& dropped = metrics().counter("trace.events_dropped");
  dropped.inc();
}

/// Once the ring wraps, two writers can claim the same slot: every field
/// moves as a relaxed atomic, so a torn event is possible, a data race not.
template <typename T>
std::atomic_ref<T> field(const T& f) {
  return std::atomic_ref<T>(const_cast<T&>(f));
}

}  // namespace

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kExecute: return "execute";
    case Phase::kValidate: return "validate";
    case Phase::kWritePhase: return "write_phase";
    case Phase::kLogShip: return "log_ship";
    case Phase::kMirrorAck: return "mirror_ack";
    case Phase::kReorder: return "reorder";
    case Phase::kApply: return "apply";
    case Phase::kApplyEpoch: return "apply_epoch";
    case Phase::kSnapshotInstall: return "snapshot_install";
    case Phase::kRoleChange: return "role_change";
    case Phase::kPrimaryFailure: return "primary_failure";
    case Phase::kMirrorTakeover: return "mirror_takeover";
    case Phase::kRejoin: return "rejoin";
    case Phase::kCheckpoint: return "checkpoint";
    case Phase::kRecovery: return "recovery";
  }
  return "?";
}

SpanTracer::SpanTracer(std::size_t capacity) { reset(capacity); }

void SpanTracer::reset(std::size_t capacity) {
  if (capacity < 2) capacity = 2;
  ring_.assign(std::bit_ceil(capacity), TraceEvent{});
  mask_ = ring_.size() - 1;
  next_.store(0, std::memory_order_relaxed);
}

void SpanTracer::record(Phase phase, std::int64_t ts_us, std::int64_t dur_us,
                        std::uint64_t arg) {
  const std::uint64_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= ring_.size()) count_dropped_event();
  const TraceEvent& e = ring_[slot & mask_];
  constexpr auto kRelaxed = std::memory_order_relaxed;
  field(e.ts_us).store(ts_us, kRelaxed);
  field(e.dur_us).store(dur_us, kRelaxed);
  field(e.arg).store(arg, kRelaxed);
  field(e.tid).store(thread_id(), kRelaxed);
  field(e.phase).store(phase, kRelaxed);
}

void SpanTracer::record_span(Phase phase, std::int64_t begin_us,
                             std::int64_t end_us, std::uint64_t arg) {
  record(phase, begin_us, end_us >= begin_us ? end_us - begin_us : 0, arg);
}

void SpanTracer::record_instant(Phase phase, std::uint64_t arg) {
  record(phase, now_us(), -1, arg);
}

std::vector<TraceEvent> SpanTracer::snapshot() const {
  const std::uint64_t n = next_.load(std::memory_order_relaxed);
  std::vector<TraceEvent> out;
  const std::uint64_t retained = n < ring_.size() ? n : ring_.size();
  out.reserve(retained);
  const std::uint64_t first = n - retained;
  constexpr auto kRelaxed = std::memory_order_relaxed;
  for (std::uint64_t i = first; i < n; ++i) {
    const TraceEvent& e = ring_[i & mask_];
    out.push_back({field(e.ts_us).load(kRelaxed),
                   field(e.dur_us).load(kRelaxed), field(e.arg).load(kRelaxed),
                   field(e.tid).load(kRelaxed), field(e.phase).load(kRelaxed)});
  }
  return out;
}

std::string SpanTracer::dump_json() const {
  const std::uint64_t total = recorded();
  const std::uint64_t lost = dropped();
  const std::vector<TraceEvent> events = snapshot();
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  // Chrome metadata events: name the process and every thread that shows
  // up in the retained window, so the viewer labels the tracks.
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"rodain\"}}";
  std::vector<std::uint32_t> tids;
  for (const TraceEvent& e : events) {
    if (std::find(tids.begin(), tids.end(), e.tid) == tids.end()) {
      tids.push_back(e.tid);
    }
  }
  std::sort(tids.begin(), tids.end());
  for (std::uint32_t tid : tids) {
    std::snprintf(buf, sizeof buf,
                  ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%u,\"args\":{\"name\":\"rodain thread %u\"}}",
                  tid, tid);
    out += buf;
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    out += ',';
    if (e.dur_us < 0) {
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"cat\":\"rodain\",\"ph\":\"i\","
                    "\"s\":\"g\",\"ts\":%lld,\"pid\":1,\"tid\":%u,"
                    "\"args\":{\"id\":%llu}}",
                    phase_name(e.phase), static_cast<long long>(e.ts_us),
                    e.tid, static_cast<unsigned long long>(e.arg));
    } else {
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"cat\":\"rodain\",\"ph\":\"X\","
                    "\"ts\":%lld,\"dur\":%lld,\"pid\":1,\"tid\":%u,"
                    "\"args\":{\"id\":%llu}}",
                    phase_name(e.phase), static_cast<long long>(e.ts_us),
                    static_cast<long long>(e.dur_us), e.tid,
                    static_cast<unsigned long long>(e.arg));
    }
    out += buf;
  }
  out += "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"recorded\":";
  out += std::to_string(total);
  out += ",\"retained\":";
  out += std::to_string(events.size());
  out += ",\"events_dropped\":";
  out += std::to_string(lost);
  out += "}}";
  return out;
}

bool SpanTracer::dump_to_file(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::string json = dump_json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace rodain::obs
