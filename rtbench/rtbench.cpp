// rtbench — wall-clock benchmark of RODAIN's availability argument on the
// threaded runtime: two rt::Node in one process joined by one
// net::TcpChannel over loopback.
//
//   rtbench --workload nt_pair|failover --seed N --seconds S --trace 0|1
//           [--subscribers N] [--plant-divergence] [--work-dir DIR]
//           [--describe TEXT]
//
// A run is kCycles cycles of the same availability story (README.md says
// why each workload was chosen):
//   set-up   load the primary, write a checkpoint, and let an empty node
//            rejoin it under open-loop load (setup_s, rejoin_ms,
//            rejoin_stall_ms)
//   lookups  get_by_key-style lookups on one thread (storage.lookup_ops_s)
//   main     nt_pair: a closed-loop window on the pair; failover: the pair
//            at a fixed open-loop rate (commit_tps, commit_p50_us)
//   kill     the primary is stopped under open-loop load and its socket
//            closed (takeover_ms); the survivor serves alone
//            (rt.transient_p50_us)
// Correctness gates run at paused points and fail the run (exit 1). Every
// thread runs on one CPU, and commit_tps and the join times are taken on the
// benchmark's own clock (own_ns), which leaves out time the host took.
//
// --trace 0 prints the end-to-end metrics. --trace 1 enables the program's
// registry and tracer, records the benchmark's own spans, drives each layer
// alone (the ledger) and prints the per-layer metrics. The last stdout line
// is one JSON object: {"correct","attempted","failed","metrics"}.
#include <malloc.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "rodain/common/diag.hpp"
#include "rodain/common/serialization.hpp"
#include "rodain/engine/engine.hpp"
#include "rodain/log/record.hpp"
#include "rodain/log/segment.hpp"
#include "rodain/net/tcp.hpp"
#include "rodain/obs/obs.hpp"
#include "rodain/repl/protocol.hpp"
#include "rodain/rt/node.hpp"
#include "rodain/workload/number_translation.hpp"

using namespace rodain;
namespace fs = std::filesystem;

namespace {

// ------------------------------------------------------------ utilities ---

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_s(double s) {
  if (s > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(static_cast<std::int64_t>(s * 1e9)));
}

double ms_between(std::int64_t a, std::int64_t b) { return static_cast<double>(b - a) / 1e6; }

/// The one CPU every thread of the benchmark runs on. main() pins itself
/// before any thread starts and threads inherit the mask, so the pair's
/// hand-offs never wait for another vCPU to wake up: on a shared host that
/// wait, not the program, set most of the run-to-run spread (README.md).
int g_cpu = -1;

bool pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return false;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpu = c;
  }
  if (cpu < 0) return false;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) return false;
  g_cpu = cpu;
  return true;
}

std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000LL + ts.tv_nsec;
}

/// Idle (idle + iowait) and steal time of the pinned CPU, from /proc/stat.
struct CpuStat {
  std::int64_t idle_ns{0};
  std::int64_t steal_ns{0};
};

CpuStat cpu_stat() {
  CpuStat s;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (!f) return s;
  const std::string want = "cpu" + std::to_string(g_cpu) + " ";
  const double tick_ns = 1e9 / static_cast<double>(sysconf(_SC_CLK_TCK));
  char line[512];
  while (std::fgets(line, sizeof line, f)) {
    if (std::strncmp(line, want.c_str(), want.size()) != 0) continue;
    unsigned long long v[8]{};
    if (std::sscanf(line + want.size(), "%llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                    &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      s.idle_ns = static_cast<std::int64_t>(static_cast<double>(v[3] + v[4]) * tick_ns);
      s.steal_ns = static_cast<std::int64_t>(static_cast<double>(v[7]) * tick_ns);
    }
    break;
  }
  std::fclose(f);
  return s;
}

/// The benchmark's own clock: CPU time of its threads plus the idle time of
/// its CPU. It runs with the wall clock except while the host runs another
/// guest on the vCPU (steal) or another process runs on the CPU, so a rate
/// or a duration taken on it does not move with the host's load.
std::int64_t own_ns() { return process_cpu_ns() + cpu_stat().idle_ns; }

/// Linear-interpolated quantile (the same rule as numpy's default).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

/// Bytes the process holds from malloc. Exact, unlike RSS deltas: the
/// kernel's per-CPU RSS counters lag by several pages per CPU.
double heap_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

double peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0;
}

/// The dialled number of subscriber `i`, built without snprintf so key
/// generation does not dominate a lookup (checked against number_for).
storage::IndexKey key_for(std::size_t i) {
  char d[12] = {'0', '8', '0', '0'};
  for (int p = 11; p >= 4; --p) {
    d[p] = static_cast<char>('0' + i % 10);
    i /= 10;
  }
  return storage::IndexKey::from_string(std::string_view{d, 12});
}

// ---------------------------------------------------------------- args ---

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{30};
  bool trace{false};
  std::size_t subscribers{0};  ///< 0: the workload's own size
  bool plant_divergence{false};
  std::string work_dir{".bench_build/rtbench/work"};
  std::string describe{"unknown"};
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--plant-divergence") {
      a.plant_divergence = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "rtbench: %s needs a value\n", k.c_str());
      return false;
    }
    const char* v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (k == "--trace") a.trace = std::atoi(v) != 0;
    else if (k == "--subscribers") a.subscribers = std::strtoull(v, nullptr, 10);
    else if (k == "--work-dir") a.work_dir = v;
    else if (k == "--describe") a.describe = v;
    else {
      std::fprintf(stderr, "rtbench: unknown argument %s\n", k.c_str());
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0;
}

// ------------------------------------------------------------ workloads ---

constexpr int kCycles = 10;         ///< set-up -> kill cycles per run
constexpr int kOutstanding = 2;     ///< closed-loop depth: below the knee
constexpr double kWarmup_s = 0.5;   ///< untimed start of each closed window
constexpr double kOpenRate = 2000;  ///< open-loop arrivals/s: well below capacity
constexpr std::size_t kAdmissionCap = 50;

struct Workload {
  std::string name;
  std::size_t subscribers{0};
  /// Segmented logs on disk: the primary serves the rejoin from its
  /// checkpoint and segments, and the survivor logs there. Otherwise the
  /// logs stay in memory and the join is a live encode.
  bool disk_log{false};
  /// Main window: closed loop on the pair (nt_pair) or the open-loop pair
  /// window that runs into the kill (failover).
  bool closed_main{false};
  double main_share{0};  ///< shares of --seconds over the whole run
  double lookup_share{0};
  double survivor_share{0};
};

std::optional<Workload> workload_for(const std::string& name) {
  if (name == "nt_pair") return Workload{name, 30000, false, true, 0.8, 0.05, 0.15};
  if (name == "failover") return Workload{name, 100000, true, false, 0.5, 0.1, 0.4};
  return std::nullopt;
}

/// The paper's number-translation mix, every field stated.
workload::WorkloadConfig nt_mix() {
  workload::WorkloadConfig w;
  w.write_fraction = 0.5;
  w.reads_per_txn = 4;
  w.updates_per_txn = 2;
  w.read_deadline = Duration::millis(50);
  w.write_deadline = Duration::millis(150);
  w.zipf_theta = 0.0;
  w.use_index = true;
  w.nonrt_fraction = 0.0;
  return w;
}

rt::NodeConfig node_config(const std::string& dir, std::size_t subscribers, bool disk_log) {
  rt::NodeConfig c;  // the constructor reads RODAIN_WORKERS: pinned below
  c.worker_threads = 1;
  c.engine.protocol = cc::Protocol::kOccDati;
  c.engine.costs = engine::CostModel::zero();
  c.engine.parallel_commit = false;
  c.engine.capture_reads = false;
  c.overload = sched::OverloadConfig{};
  c.overload.max_active = kAdmissionCap;
  c.log_path = disk_log ? dir + "/log" : "";
  c.fsync_log = false;
  c.log_segment_bytes = disk_log ? 16u << 20 : 0;
  c.checkpoint_path = dir + "/ckpt";
  c.checkpoint_interval = Duration::zero();  // explicit checkpoints only
  c.fuzzy_checkpoint = true;
  c.checkpoint_delta_limit = 4;
  c.instant_recovery = false;
  c.heartbeat_interval = Duration::millis(100);
  c.watchdog_timeout = Duration::millis(500);
  c.ack_timeout = Duration::millis(250);
  c.disconnect_grace = Duration::zero();
  c.log_batch = log::LogWriter::BatchOptions{};
  c.store_capacity_hint = std::max<std::size_t>(subscribers, 1024);
  c.metrics_snapshot_interval = Duration::zero();
  c.http_port = -1;
  return c;
}

void print_config(const Args& a, const Workload& w) {
  const rt::NodeConfig c = node_config("<dir>", w.subscribers, w.disk_log);
  std::printf("# host cores=%u pinned_cpu=%d compiler=\"%s\" build_type=%s describe=\"%s\"\n",
              std::thread::hardware_concurrency(), g_cpu, RTBENCH_CXX_COMPILER, RTBENCH_BUILD_TYPE,
              a.describe.c_str());
  std::printf(
      "# workload %s seed=%llu seconds=%.3f trace=%d subscribers=%zu cycles=%d main=%s "
      "outstanding=%d open_rate=%.0f mix=nt(write_fraction=0.5 reads=4 updates=2 "
      "deadlines=50/150ms) shares(main=%.2f lookup=%.2f survivor=%.2f) generator_threads=1\n",
      w.name.c_str(), static_cast<unsigned long long>(a.seed), a.seconds, a.trace ? 1 : 0,
      w.subscribers, kCycles, w.closed_main ? "closed" : "open", kOutstanding, kOpenRate,
      w.main_share, w.lookup_share, w.survivor_share);
  std::printf(
      "# node worker_threads=%zu protocol=occ-dati parallel_commit=0 max_active=%zu log=%s "
      "fsync_log=%d log_segment_bytes=%zu fuzzy_checkpoint=%d checkpoint_interval=explicit "
      "instant_recovery=0 heartbeat_ms=%lld watchdog_ms=%lld ack_timeout_ms=%lld "
      "disconnect_grace_ms=0 log_batch_max_txns=%zu\n",
      c.worker_threads, c.overload.max_active, w.disk_log ? "segmented" : "memory",
      c.fsync_log ? 1 : 0, c.log_segment_bytes, c.fuzzy_checkpoint ? 1 : 0,
      static_cast<long long>(c.heartbeat_interval.us / 1000),
      static_cast<long long>(c.watchdog_timeout.us / 1000),
      static_cast<long long>(c.ack_timeout.us / 1000), c.log_batch.max_txns);
}

// ---------------------------------------------------------------- gates ---

struct Gates {
  int checked{0};
  std::vector<std::string> failures;
  void check(bool ok, const std::string& what) {
    ++checked;
    if (!ok) {
      failures.push_back(what);
      std::printf("GATE FAIL: %s\n", what.c_str());
      std::fflush(stdout);
    }
  }
};

// ---------------------------------------------------------------- spans ---

/// The benchmark's own spans: request attempts (id = request id, from
/// submit to the callback) and harness steps around module calls (id =
/// cycle). Kept in memory; written at exit.
struct Span {
  std::string name;
  std::uint64_t id{0};
  std::int64_t begin_ns{0};
  std::int64_t end_ns{0};
  int node{-1};
  int outcome{-1};
};

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}
  [[nodiscard]] bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }
  void add(Span s) {
    if (!on()) return;
    std::lock_guard lock(mu_);
    if (spans_.size() < kCap) {
      spans_.push_back(std::move(s));
    } else {
      ++dropped_;
    }
  }
  bool write(const std::string& path, std::int64_t origin_ns) const {
    std::lock_guard lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%llu,\"begin_us\":%.3f,\"dur_us\":%.3f,"
                   "\"node\":%d,\"outcome\":%d}\n",
                   s.name.c_str(), static_cast<unsigned long long>(s.id),
                   static_cast<double>(s.begin_ns - origin_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.begin_ns) / 1e3, s.node, s.outcome);
    }
    return std::fclose(f) == 0;
  }
  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mu_);
    return spans_.size();
  }
  [[nodiscard]] std::size_t dropped() const {
    std::lock_guard lock(mu_);
    return dropped_;
  }

 private:
  static constexpr std::size_t kCap = 1u << 20;
  std::atomic<bool> on_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::size_t dropped_{0};
};

// --------------------------------------------------------------- client ---

enum FailKind { kConflict = 0, kDeadline, kAdmission, kNotServing, kKinds };
const char* kind_name(int k) {
  static const char* const names[] = {"conflict", "deadline", "admission", "not_serving"};
  return names[k];
}

/// What a client did, summed over clients by the benchmark.
struct Tally {
  std::uint64_t attempted{0};       ///< requests created
  std::uint64_t failed{0};          ///< requests still open when the drain timed out
  std::uint64_t acked_updates{0};   ///< update transactions acknowledged
  std::uint64_t update_submits{0};  ///< submit() calls of update programs
  std::uint64_t first_fail[kKinds]{};
  std::uint64_t retries[kKinds]{};
  Tally& operator+=(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    acked_updates += o.acked_updates;
    update_submits += o.update_submits;
    for (int k = 0; k < kKinds; ++k) {
      first_fail[k] += o.first_fail[k];
      retries[k] += o.retries[k];
    }
    return *this;
  }
};

/// One generator thread that never gives up on a request: a refused or
/// aborted attempt is retried (and counted by kind) until it commits, so a
/// run completes every operation it attempts. Requests go to whichever node
/// serves; while none does, the head request keeps knocking on the live
/// standby.
class Client {
 public:
  struct Ack {
    std::int64_t due_ns;
    std::int64_t submit_ns;  ///< first submit
    std::int64_t ack_ns;
    int node;
  };

  Client(std::vector<rt::Node*> nodes, workload::TxnGenerator& gen, SpanLog& spans)
      : nodes_(std::move(nodes)), gen_(gen), spans_(spans) {}
  ~Client() { stop(); }

  /// Closed loop: keep `depth` requests outstanding.
  void start_closed(int depth) { start(depth, 0.0); }
  /// Open loop: one arrival every 1/rate s, each timed from its due time.
  void start_open(double rate) { start(static_cast<int>(kAdmissionCap), rate); }

  /// Stop arrivals and wait until every request committed (or the drain
  /// timed out; the rest count as failed).
  void stop() {
    {
      std::lock_guard lock(mu_);
      if (!thread_.joinable()) return;
      stopping_ = true;
      drain_deadline_ns_ = now_ns() + 10'000'000'000LL;
    }
    cv_.notify_all();
    thread_.join();
  }

  /// Commits acknowledged so far; read while the client runs.
  [[nodiscard]] std::uint64_t committed() const { return committed_.load(std::memory_order_relaxed); }

  // Read after stop().
  [[nodiscard]] const std::vector<Ack>& acks() const { return acks_; }
  [[nodiscard]] const std::vector<double>& lateness_us() const { return lateness_us_; }
  [[nodiscard]] const Tally& tally() const { return tally_; }

 private:
  struct Request {
    std::uint64_t id{0};
    txn::TxnProgram program;
    bool update{false};
    std::int64_t due_ns{0};
    std::int64_t submit_ns{0};
    std::int64_t not_before_ns{0};
    int attempts{0};
    bool failed_once{false};
  };

  void start(int cap, double rate) {
    std::lock_guard lock(mu_);
    cap_ = cap;
    rate_ = rate;
    next_due_ns_ = now_ns();
    thread_ = std::thread([this] { loop(); });
  }

  Request make_request(std::int64_t due) {
    Request r;
    r.id = next_id_++;
    r.program = gen_.next();
    r.update = r.program.num_updates() > 0;
    r.due_ns = due;
    ++tally_.attempted;
    return r;
  }

  /// The serving node, else a live standby (it refuses the attempt, which
  /// is retried: a client keeps knocking until the takeover), else -1.
  int target_node() const {
    int standby = -1;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i]->serving()) return static_cast<int>(i);
      if (standby < 0 && nodes_[i]->role() != NodeRole::kDown) standby = static_cast<int>(i);
    }
    return standby;
  }

  void note_failure(Request& r, int kind) {
    ++tally_.retries[kind];
    if (!r.failed_once) {
      r.failed_once = true;
      ++tally_.first_fail[kind];
    }
  }

  void loop() {
    // Arrivals leave within microseconds of their due time without a spin,
    // which would take the CPU from the nodes (the lateness is reported).
    prctl(PR_SET_TIMERSLACK, 1000UL);
    const bool open = rate_ > 0.0;
    const auto interval = open ? static_cast<std::int64_t>(1e9 / rate_) : 0;
    std::unique_lock lock(mu_);
    while (true) {
      std::int64_t now = now_ns();
      if (stopping_) {
        if (backlog_.empty() && inflight_ == 0) break;
        if (now > drain_deadline_ns_) {
          tally_.failed += backlog_.size() + static_cast<std::uint64_t>(inflight_);
          break;
        }
      } else if (open) {
        const bool none_serving =
            std::none_of(nodes_.begin(), nodes_.end(), [](rt::Node* n) { return n->serving(); });
        while (next_due_ns_ <= now) {
          Request r = make_request(next_due_ns_);
          lateness_us_.push_back(static_cast<double>(now - r.due_ns) / 1e3);
          if (none_serving) note_failure(r, kNotServing);
          backlog_.push_back(std::move(r));
          next_due_ns_ += interval;
        }
      } else {
        while (inflight_ + static_cast<int>(backlog_.size()) < cap_) {
          backlog_.push_back(make_request(now));
        }
      }
      // Submit what is eligible, oldest first.
      std::int64_t wake_ns = now + 1'000'000;
      while (!backlog_.empty() && inflight_ < cap_) {
        Request& head = backlog_.front();
        if (head.not_before_ns > now) {
          wake_ns = std::min(wake_ns, head.not_before_ns);
          break;
        }
        const int node = target_node();
        if (node < 0) {  // no live node at all: hold the backlog and poll
          head.not_before_ns = now + 100'000;
          wake_ns = std::min(wake_ns, head.not_before_ns);
          break;
        }
        Request r = std::move(head);
        backlog_.pop_front();
        if (r.attempts++ == 0) r.submit_ns = now;
        if (r.update) ++tally_.update_submits;
        txn::TxnProgram copy = r.program;
        const std::uint64_t id = r.id;
        flying_.emplace(id, std::move(r));
        ++inflight_;
        lock.unlock();  // a refusal calls back inline
        nodes_[static_cast<std::size_t>(node)]->submit(
            std::move(copy), [this, id, node, now](const rt::CommitInfo& info) {
              on_done(id, node, now, info);
            });
        lock.lock();
        now = now_ns();
      }
      if (stopping_ && backlog_.empty() && inflight_ == 0) break;
      if (open && !stopping_) wake_ns = std::min(wake_ns, next_due_ns_);
      const std::int64_t wait = wake_ns - now_ns();
      if (wait > 0) cv_.wait_for(lock, std::chrono::nanoseconds(wait));
    }
  }

  void on_done(std::uint64_t id, int node, std::int64_t attempt_ns, const rt::CommitInfo& info) {
    const std::int64_t t = now_ns();
    std::lock_guard lock(mu_);
    auto it = flying_.find(id);
    if (it == flying_.end()) return;
    Request r = std::move(it->second);
    flying_.erase(it);
    --inflight_;
    spans_.add(Span{"request", id, attempt_ns, t, node, static_cast<int>(info.outcome)});
    if (info.outcome == TxnOutcome::kCommitted) {
      committed_.fetch_add(1, std::memory_order_relaxed);
      acks_.push_back(Ack{r.due_ns, r.submit_ns, t, node});
      if (r.update) ++tally_.acked_updates;
    } else {
      int kind = kNotServing;  // refused while not serving, or killed in flight
      if (info.outcome == TxnOutcome::kConflictAborted) kind = kConflict;
      if (info.outcome == TxnOutcome::kMissedDeadline) kind = kDeadline;
      if (info.outcome == TxnOutcome::kOverloadRejected) kind = kAdmission;
      note_failure(r, kind);
      r.not_before_ns = (kind == kAdmission || kind == kNotServing) ? t + 200'000 : t;
      backlog_.push_front(std::move(r));
    }
    cv_.notify_one();
  }

  const std::vector<rt::Node*> nodes_;
  workload::TxnGenerator& gen_;
  SpanLog& spans_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::thread thread_;
  int cap_{kOutstanding};
  double rate_{0};
  bool stopping_{false};
  std::int64_t drain_deadline_ns_{0};
  std::int64_t next_due_ns_{0};
  std::uint64_t next_id_{1};
  std::deque<Request> backlog_;
  std::unordered_map<std::uint64_t, Request> flying_;
  int inflight_{0};
  std::vector<Ack> acks_;
  std::atomic<std::uint64_t> committed_{0};
  std::vector<double> lateness_us_;
  Tally tally_;
};

// ------------------------------------------------------------------ rig ---

/// One primary/mirror pair over a fresh loopback connection.
struct Rig {
  std::string dir;
  std::unique_ptr<net::TcpServer> server;
  std::unique_ptr<net::TcpChannel> p_end;  ///< the primary's side
  std::unique_ptr<net::TcpChannel> m_end;  ///< the mirror's side
  std::unique_ptr<rt::Node> primary;
  std::unique_ptr<rt::Node> mirror;

  bool connect() {
    struct Accept {
      std::mutex mu;
      std::condition_variable cv;
      std::unique_ptr<net::TcpChannel> ch;
    };
    auto accept = std::make_shared<Accept>();
    auto srv = net::TcpServer::listen(0, [accept](std::unique_ptr<net::TcpChannel> ch) {
      std::lock_guard lock(accept->mu);
      accept->ch = std::move(ch);
      accept->cv.notify_all();
    });
    if (!srv.is_ok()) return false;
    server = std::move(srv).value();
    auto client = net::TcpChannel::connect("127.0.0.1", server->port(), Duration::seconds(2));
    if (!client.is_ok()) return false;
    p_end = std::move(client).value();
    std::unique_lock lock(accept->mu);
    accept->cv.wait_for(lock, std::chrono::seconds(2), [&] { return accept->ch != nullptr; });
    m_end = std::move(accept->ch);
    return m_end != nullptr;
  }

  void teardown() {
    // Mirror first: stopping the primary first would start a takeover.
    if (mirror) mirror->stop();
    if (primary) primary->stop();
    if (p_end) p_end->close();
    if (m_end) m_end->close();
    p_end.reset();  // joins the reader threads
    m_end.reset();
    if (server) server->stop();
    server.reset();
    primary.reset();
    mirror.reset();
    std::error_code ec;
    if (!dir.empty()) fs::remove_all(dir, ec);
  }
  ~Rig() { teardown(); }
};

int serving_count(const Rig& rig) {
  return (rig.primary && rig.primary->serving() ? 1 : 0) +
         (rig.mirror && rig.mirror->serving() ? 1 : 0);
}

/// Byte-identical check of the mirror against the primary: every record's
/// value bytes, wts and tombstone flag, and every index entry.
bool stores_identical(rt::Node& a, rt::Node& b, std::string& why) {
  if (a.store().size() != b.store().size()) {
    why = "store sizes differ: " + std::to_string(a.store().size()) + " vs " +
          std::to_string(b.store().size());
    return false;
  }
  std::size_t diffs = 0;
  ObjectId first = 0;
  a.store().for_each([&](ObjectId oid, const storage::ObjectRecord& ra) {
    const storage::ObjectRecord* rb = b.store().find(oid);
    const bool same = rb && rb->wts == ra.wts && rb->deleted == ra.deleted &&
                      rb->value.size() == ra.value.size() &&
                      std::memcmp(rb->value.data(), ra.value.data(), ra.value.size()) == 0;
    if (!same && diffs++ == 0) first = oid;
  });
  if (diffs != 0) {
    why = std::to_string(diffs) + " records differ (first oid " + std::to_string(first) + ")";
    return false;
  }
  if (a.index().size() != b.index().size()) {
    why = "index sizes differ";
    return false;
  }
  std::size_t index_diffs = 0;
  a.index().range_scan(storage::IndexKey::min(), storage::IndexKey::max(),
                       [&](const storage::IndexKey& k, ObjectId oid) {
                         const auto other = b.index().find(k);
                         if (!other || *other != oid) ++index_diffs;
                         return true;
                       });
  if (index_diffs != 0) {
    why = std::to_string(index_diffs) + " index entries differ";
    return false;
  }
  return true;
}

std::uint64_t counter_sum(rt::Node& n) {
  std::uint64_t sum = 0;
  n.store().for_each([&](ObjectId, const storage::ObjectRecord& r) {
    if (!r.deleted) sum += r.value.read_u64(workload::kCounterOffset);
  });
  return sum;
}

// ------------------------------------------------------------- registry ---

/// Exact sum (us) of a timer's samples. The histogram keeps it but exposes
/// only mean(), truncated to whole microseconds. Merging one probe sample
/// of v us gives floor((sum + v) / (n + 1)); the smallest v that lifts it
/// above v = 0 makes sum + v a multiple of n + 1, which recovers the sum.
double timer_sum_us(const LatencyHistogram& h) {
  const auto n1 = static_cast<std::int64_t>(h.count()) + 1;
  auto lifted = [&](std::int64_t v) {
    LatencyHistogram merged = h;
    LatencyHistogram probe;
    probe.add(Duration::micros(v));
    merged.merge(probe);
    return merged.mean().us;
  };
  const std::int64_t j0 = lifted(0);
  std::int64_t lo = 1;
  std::int64_t hi = n1;  // lifted(n1) == j0 + 1
  while (lo < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (lifted(mid) > j0) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return static_cast<double>((j0 + 1) * n1 - lo);
}

/// Counter/timer snapshot of obs::metrics() (source R).
struct Snap {
  std::map<std::string, std::uint64_t> c;
  std::map<std::string, std::pair<double, double>> t;  ///< count, sum_us

  static Snap take() {
    static const char* const counters[] = {
        "engine.commits",        "engine.validations",   "engine.restarts",
        "engine.read_retries",   "ckpt.bytes_full",      "sched.overload_rejected",
        "sched.deadline_misses", "log.batch.bytes",      "log.batch.txns",
        "log.batch.shipped",     "repl.batches_shipped", "mirror.acks_sent",
        "repl.snapshots_served", "mirror.join_retries",  "node.takeovers",
        "node.split_brain_detected"};
    static const char* const timers[] = {
        "lifecycle.stage.queue_wait_us", "lifecycle.stage.read_phase_us",
        "lifecycle.stage.validate_us",   "lifecycle.stage.write_phase_us",
        "lifecycle.stage.log_flush_us",  "lifecycle.stage.ship_us",
        "lifecycle.stage.mirror_ack_us", "repl.commit_rtt_us",
        "node.commit_mu_wait"};
    Snap s;
    for (const char* n : counters) s.c[n] = obs::metrics().counter(n).value();
    for (const char* n : timers) {
      const LatencyHistogram h = obs::metrics().timer(n).merged();
      s.t[n] = {static_cast<double>(h.count()), timer_sum_us(h)};
    }
    return s;
  }
  [[nodiscard]] double dc(const Snap& before, const std::string& n) const {
    return static_cast<double>(c.at(n) - before.c.at(n));
  }
  [[nodiscard]] double count(const Snap& before, const std::string& n) const {
    return t.at(n).first - before.t.at(n).first;
  }
  [[nodiscard]] double sum_us(const Snap& before, const std::string& n) const {
    return t.at(n).second - before.t.at(n).second;
  }
  [[nodiscard]] double mean_us(const Snap& before, const std::string& n) const {
    const double k = count(before, n);
    return k > 0 ? sum_us(before, n) / k : 0.0;
  }
};

/// Registry and program tracer on or off. Called only at drained points:
/// obs::init resets the tracer ring, which must not race a writer.
void set_obs(bool on) {
  obs::ObsConfig cfg;
  cfg.enabled = on;
  cfg.tracing = on;
  cfg.trace_capacity = 1u << 16;
  obs::init(cfg);
}

// --------------------------------------------------------------- bench ---

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string base;  ///< what the number rests on (printed, not in JSON)
};

/// Commits of one measured window.
struct Window {
  std::vector<double> lat_us;       ///< submit -> callback, committed
  std::vector<double> tps_buckets;  ///< commits/s per bucket
  std::vector<double> p99_buckets;  ///< p99 (us) per bucket
  double commits{0};                ///< closed windows: commits timed
  double own_s{0};                  ///< closed windows: own-clock seconds timed
};

/// Commits acked in [t0, t1) by `node` (-1: any), cut into buckets of at
/// least `bucket_ns`.
Window bucketize(const std::vector<Client::Ack>& acks, std::int64_t t0, std::int64_t t1, int node,
                 std::int64_t bucket_ns) {
  Window out;
  const auto n = static_cast<std::size_t>(std::max<std::int64_t>(1, (t1 - t0) / bucket_ns));
  const std::int64_t width = (t1 - t0) / static_cast<std::int64_t>(n);
  std::vector<std::vector<double>> lat(n);
  for (const Client::Ack& k : acks) {
    if ((node >= 0 && k.node != node) || k.ack_ns < t0 || k.ack_ns >= t1) continue;
    const double us = static_cast<double>(k.ack_ns - k.submit_ns) / 1e3;
    out.lat_us.push_back(us);
    lat[std::min(n - 1, static_cast<std::size_t>((k.ack_ns - t0) / width))].push_back(us);
  }
  for (const std::vector<double>& b : lat) {
    out.tps_buckets.push_back(static_cast<double>(b.size()) * 1e9 / static_cast<double>(width));
    if (!b.empty()) out.p99_buckets.push_back(quantile(b, 0.99));
  }
  return out;
}

/// Keeps a ledger result alive so the timed loop is not optimized away.
void keep(std::uint64_t v) {
  static std::atomic<std::uint64_t> sink;
  sink.store(v, std::memory_order_relaxed);
}

class Bench {
 public:
  Bench(const Args& args, Workload w) : a_(args), w_(std::move(w)), spans_(args.trace) {
    db_.num_objects = w_.subscribers;
    db_.profile_bytes = 32;
    db_.seed = 0x5eed0000ULL ^ a_.seed;
  }

  int run();

 private:
  std::unique_ptr<Rig> set_up(int cycle);
  void pair_gates(Rig& rig, const char* where);
  void lookup_window(rt::Node& node, double seconds);
  Window closed_window(Rig& rig, double seconds);
  void kill_and_survive(Rig& rig, int cycle);
  void overhead_slice(Rig& rig, const Window& traced, double seconds);
  void ledger();
  void report();

  /// Each generator gets its own stream of the run's seed.
  Rng next_rng() { return Rng(a_.seed * 0x9e3779b97f4a7c15ULL + ++streams_); }
  void span(const std::string& name, int cycle, std::int64_t b, std::int64_t e) {
    spans_.add(Span{name, static_cast<std::uint64_t>(cycle), b, e, -1, -1});
  }
  void absorb(const Client& c) {
    total_ += c.tally();
    rig_ += c.tally();
    append(lateness_us_, c.lateness_us());
  }

  const Args a_;
  const Workload w_;
  workload::DatabaseConfig db_;
  SpanLog spans_;
  Gates gates_;
  const std::int64_t origin_ns_{now_ns()};
  std::uint64_t streams_{0};
  /// Routing target per subscriber, captured from the first loaded store.
  std::vector<std::uint64_t> routing_;

  Tally total_;  ///< the whole run
  Tally rig_;    ///< since the current pair was set up (gates)
  std::vector<double> lateness_us_;

  // end-to-end samples
  std::vector<double> setup_s_, rejoin_ms_, stall_ms_, takeover_ms_;
  std::vector<double> transient_us_;  ///< per-cycle medians
  std::size_t transient_samples_{0};
  std::vector<double> commit_lat_us_, tps_windows_, p99_windows_, lookup_windows_;
  double main_commits_{0}, main_own_s_{0};  ///< closed main windows, after warm-up
  std::uint64_t lookups_{0}, lookup_fallbacks_{0}, lookup_retries_{0};
  double rss_mb_{0};
  int kills_{0};

  // per-layer samples
  std::vector<double> checkpoint_ms_, join_serve_ms_, join_install_ms_;
  std::vector<double> kill_to_serving_ms_, serving_to_commit_ms_;
  double ckpt_bytes_per_sub_{0};
  double heap_bytes_per_sub_{0};
  std::optional<Snap> run_before_, main_before_, main_after_;
  std::vector<double> traced_lat_us_, traced_tps_, untraced_lat_us_, untraced_tps_;
  std::map<std::string, double> ledger_;
  std::map<std::string, std::string> ledger_base_;
};

std::unique_ptr<Rig> Bench::set_up(int cycle) {
  const std::int64_t t0 = now_ns();
  auto rig = std::make_unique<Rig>();
  rig->dir = a_.work_dir + "/c" + std::to_string(cycle);
  std::error_code ec;
  fs::remove_all(rig->dir, ec);
  fs::create_directories(rig->dir + "/primary", ec);
  fs::create_directories(rig->dir + "/mirror", ec);

  const double heap0 = a_.trace && routing_.empty() ? heap_bytes() : 0.0;
  rig->primary = std::make_unique<rt::Node>(
      node_config(rig->dir + "/primary", w_.subscribers, w_.disk_log), "primary");
  workload::load_database(db_, rig->primary->store(), rig->primary->index());
  if (routing_.empty()) {
    if (a_.trace) heap_bytes_per_sub_ = (heap_bytes() - heap0) / static_cast<double>(w_.subscribers);
    routing_.resize(w_.subscribers);
    for (std::size_t i = 0; i < w_.subscribers; ++i) {
      const storage::ObjectRecord* r = rig->primary->store().find(workload::oid_for(i));
      routing_[i] = r ? r->value.read_u64(workload::kRoutingOffset) : ~0ULL;
    }
  }
  gates_.check(rig->connect(), "loopback connection for the pair");

  // The primary serves alone (kDirectDisk to its log) and writes a
  // checkpoint; an empty node then rejoins it under open-loop load.
  rig->primary->start_primary(LogMode::kDirectDisk, rig->p_end.get());
  rig->p_end->start();
  const auto ckpt_bytes0 = obs::metrics().counter("ckpt.bytes_full").value();
  const std::int64_t c0 = now_ns();
  const Status st = rig->primary->write_checkpoint();
  const std::int64_t c1 = now_ns();
  span("storage.checkpoint_write", cycle, c0, c1);
  checkpoint_ms_.push_back(ms_between(c0, c1));
  gates_.check(st.is_ok(), "checkpoint write: " + st.to_string());
  if (cycle == 0) {
    ckpt_bytes_per_sub_ =
        static_cast<double>(obs::metrics().counter("ckpt.bytes_full").value() - ckpt_bytes0) /
        static_cast<double>(w_.subscribers);
  }

  workload::TxnGenerator gen(db_, nt_mix(), next_rng());
  Client client({rig->primary.get()}, gen, spans_);
  client.start_open(kOpenRate);
  sleep_s(0.1);
  // The joiner is built after the primary has loaded, as a restarted node
  // would be: node clocks start at construction and snapshot ids embed
  // them (README.md, defects).
  rig->mirror = std::make_unique<rt::Node>(
      node_config(rig->dir + "/mirror", w_.subscribers, w_.disk_log), "mirror");
  const CpuStat s0 = cpu_stat();
  const std::int64_t own0 = own_ns();
  const std::int64_t j0 = now_ns();
  rig->mirror->start_rejoin(*rig->m_end);
  rig->m_end->start();
  std::int64_t served = 0;
  std::int64_t formed = 0;
  // Poll by sleeping: a spinning or yielding poll would take the one CPU
  // from the serve and the install it times.
  while (now_ns() - j0 < 20'000'000'000LL) {
    const std::int64_t t = now_ns();
    if (!served && rig->primary->role() == NodeRole::kPrimaryWithMirror) served = t;
    if (served && rig->mirror->role() == NodeRole::kMirror) {
      formed = t;
      break;
    }
    sleep_s(50e-6);
  }
  const std::int64_t own1 = own_ns();
  const CpuStat s1 = cpu_stat();
  gates_.check(formed != 0, "pair formed by rejoin within 20 s");
  sleep_s(0.1);  // acks resume after the join
  client.stop();
  absorb(client);
  if (formed) {
    span("repl.join_serve", cycle, j0, served);
    span("repl.join_install", cycle, served, formed);
    join_serve_ms_.push_back(ms_between(j0, served));
    join_install_ms_.push_back(ms_between(served, formed));
    rejoin_ms_.push_back(ms_between(own0, own1));
    // Longest gap between acknowledged commits that overlaps the join. The
    // gap spans the join, so it is moved to the own clock by taking off the
    // time the join lost to the host.
    std::vector<std::int64_t> acks;
    for (const Client::Ack& k : client.acks()) acks.push_back(k.ack_ns);
    std::sort(acks.begin(), acks.end());
    std::int64_t stall = 0;
    for (std::size_t i = 1; i < acks.size(); ++i) {
      if (acks[i] >= j0 && acks[i - 1] <= formed) stall = std::max(stall, acks[i] - acks[i - 1]);
    }
    const std::int64_t lost = std::max<std::int64_t>(0, (formed - j0) - (own1 - own0));
    stall_ms_.push_back(static_cast<double>(stall - lost) / 1e6);
    std::printf("# join %d: serve %.2f ms, install %.2f ms; join %.2f ms wall, %.2f ms own; stall %.2f ms "
                "wall, %.2f ms own; %.0f ms stolen\n",
                cycle, ms_between(j0, served), ms_between(served, formed), ms_between(j0, formed),
                rejoin_ms_.back(), static_cast<double>(stall) / 1e6, stall_ms_.back(),
                ms_between(s0.steal_ns, s1.steal_ns));
  }
  gates_.check(serving_count(*rig) == 1, "exactly one node serving after set-up");
  gates_.check(rig->mirror->role() == NodeRole::kMirror, "the joiner is a mirror after set-up");
  setup_s_.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  return rig;
}

void Bench::pair_gates(Rig& rig, const char* where) {
  // Paused point: the client drained, so every commit is acked, and a
  // kMirror ack means the mirror applied it.
  if (a_.plant_divergence) {
    storage::ObjectRecord* r = rig.mirror->store().find_mutable(workload::oid_for(0));
    if (r) r->value.write_u64(workload::kCounterOffset, r->value.read_u64(workload::kCounterOffset) + 1);
  }
  std::string why;
  gates_.check(stores_identical(*rig.primary, *rig.mirror, why),
               std::string("mirror byte-identical to primary (") + where + "): " + why);
  const std::uint64_t want = 2 * rig_.acked_updates;
  const std::uint64_t p = counter_sum(*rig.primary);
  const std::uint64_t m = counter_sum(*rig.mirror);
  gates_.check(p == want && m == want,
               std::string("call-counter sums = 2 x acked updates (") + where + "): primary " +
                   std::to_string(p) + ", mirror " + std::to_string(m) + ", want " +
                   std::to_string(want));
  gates_.check(serving_count(rig) == 1, std::string("exactly one node serving (") + where + ")");
}

void Bench::lookup_window(rt::Node& node, double seconds) {
  // As db::Database::get_by_key: BPlusTree::find, then Node::read_committed,
  // with the transactional fallback on kUnavailable.
  Rng r = next_rng();
  const obs::Counter& retries = obs::metrics().counter("engine.read_retries");
  const std::uint64_t retries0 = retries.value();
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::uint64_t errors = 0;
  std::uint64_t total = 0;
  while (now_ns() < end) {
    const std::int64_t w0 = now_ns();
    std::uint64_t n = 0;
    do {
      for (int k = 0; k < 256; ++k) {
        const std::size_t i = r.next_below(w_.subscribers);
        const auto oid = node.index().find(key_for(i));
        if (!oid || *oid != workload::oid_for(i)) {
          ++errors;
          continue;
        }
        Result<storage::Value> v = node.read_committed(*oid);
        if (!v.is_ok() && v.status().code() == ErrorCode::kUnavailable) {
          ++lookup_fallbacks_;
          v = node.get(*oid);
        }
        if (!v.is_ok() || v.value().read_u64(workload::kRoutingOffset) != routing_[i]) ++errors;
      }
      n += 256;
    } while (now_ns() - w0 < 50'000'000);
    lookup_windows_.push_back(static_cast<double>(n) * 1e9 / static_cast<double>(now_ns() - w0));
    total += n;
  }
  lookups_ += total;
  lookup_retries_ += retries.value() - retries0;
  gates_.check(errors == 0, "every lookup finds its subscriber with its routing target (" +
                                std::to_string(errors) + " errors in " + std::to_string(total) + ")");
}

Window Bench::closed_window(Rig& rig, double seconds) {
  workload::TxnGenerator gen(db_, nt_mix(), next_rng());
  Client client({rig.primary.get(), rig.mirror.get()}, gen, spans_);
  client.start_closed(kOutstanding);
  // Timing starts after a warm-up: a fresh pair's first half second runs
  // slower while its caches and buffers fill.
  const double warmup_s = std::min(kWarmup_s, seconds / 2);
  sleep_s(warmup_s);
  const std::int64_t t0 = now_ns();
  const std::int64_t o0 = own_ns();
  const std::uint64_t c0 = client.committed();
  sleep_s(seconds - warmup_s);
  const std::int64_t o1 = own_ns();
  const std::uint64_t c1 = client.committed();
  const std::int64_t t1 = now_ns();
  client.stop();
  absorb(client);
  // 250 ms buckets hold ~4 000 commits: each p99 has 40 samples beyond it.
  Window w = bucketize(client.acks(), t0, t1, -1, 250'000'000);
  // The window's commit rate on the benchmark's own clock.
  const double own_tps = static_cast<double>(c1 - c0) * 1e9 / static_cast<double>(o1 - o0);
  std::printf("# closed window: %.3f s wall, %.3f s own, %.1f txn/s wall, %.1f txn/s own\n",
              ms_between(t0, t1) / 1e3, ms_between(o0, o1) / 1e3,
              static_cast<double>(c1 - c0) * 1e9 / static_cast<double>(t1 - t0), own_tps);
  w.tps_buckets = {own_tps};
  w.commits = static_cast<double>(c1 - c0);
  w.own_s = static_cast<double>(o1 - o0) / 1e9;
  return w;
}

void Bench::kill_and_survive(Rig& rig, int cycle) {
  workload::TxnGenerator gen(db_, nt_mix(), next_rng());
  Client client({rig.primary.get(), rig.mirror.get()}, gen, spans_);
  const std::int64_t p0 = now_ns();
  client.start_open(kOpenRate);
  // failover: the measured pair window; nt_pair: a lead-in so the kill
  // lands with load flowing.
  sleep_s(w_.closed_main ? 0.3 : w_.main_share * a_.seconds / kCycles);
  const std::int64_t kill = now_ns();
  rig.primary->stop();
  rig.p_end->close();
  ++kills_;
  std::int64_t serving = 0;
  while (now_ns() - kill < 10'000'000'000LL) {
    if (rig.mirror->serving()) {
      serving = now_ns();
      break;
    }
    sleep_s(50e-6);
  }
  gates_.check(serving != 0, "the mirror takes over within 10 s of the kill");
  gates_.check(serving_count(rig) == 1, "exactly one node serving after the takeover");
  sleep_s(w_.survivor_share * a_.seconds / kCycles);
  client.stop();
  absorb(client);

  std::int64_t first_commit = 0;
  for (const Client::Ack& k : client.acks()) {
    if (k.node == 1 && (first_commit == 0 || k.ack_ns < first_commit)) first_commit = k.ack_ns;
  }
  gates_.check(first_commit != 0, "the survivor acknowledges a commit");
  if (serving && first_commit) {
    takeover_ms_.push_back(ms_between(kill, first_commit));
    kill_to_serving_ms_.push_back(ms_between(kill, serving));
    serving_to_commit_ms_.push_back(ms_between(serving, first_commit));
    span("repl.kill_to_serving", cycle, kill, serving);
    span("repl.serving_to_commit", cycle, serving, first_commit);
  }
  std::vector<double> transient;
  for (const Client::Ack& k : client.acks()) {
    if (k.node == 1 && first_commit && k.due_ns >= first_commit) {
      transient.push_back(static_cast<double>(k.ack_ns - k.due_ns) / 1e3);
    }
  }
  transient_us_.push_back(quantile(transient, 0.5));
  transient_samples_ += transient.size();
  // 500 ms buckets at 2 000/s hold 1 000 commits: 10 samples beyond p99.
  const Window pair = bucketize(client.acks(), p0, kill, 0, 500'000'000);
  if (!w_.closed_main) {
    append(commit_lat_us_, pair.lat_us);
    append(tps_windows_, pair.tps_buckets);
    append(p99_windows_, pair.p99_buckets);
  }
  std::printf("# cycle %d: pair n=%zu p50=%.1f us | survivor n=%zu p50=%.1f us | takeover %.1f ms\n",
              cycle, pair.lat_us.size(), quantile(pair.lat_us, 0.5), transient.size(),
              quantile(transient, 0.5), first_commit ? ms_between(kill, first_commit) : -1.0);
  // No acknowledged transaction was lost: the survivor's counters cover
  // every acked update and no more than every submitted one.
  const std::uint64_t sum = counter_sum(*rig.mirror);
  gates_.check(sum >= 2 * rig_.acked_updates && sum <= 2 * rig_.update_submits,
               "survivor counter sum within [2 x acked, 2 x submitted]: " + std::to_string(sum) +
                   " vs [" + std::to_string(2 * rig_.acked_updates) + ", " +
                   std::to_string(2 * rig_.update_submits) + "]");
}

/// After the traced closed window `traced`, the same window with the
/// registry, the program's tracer and the benchmark's spans off. Traced and
/// untraced windows alternate, so both see the same stretch of host noise.
void Bench::overhead_slice(Rig& rig, const Window& traced, double seconds) {
  set_obs(false);
  spans_.set_on(false);
  const Window u = closed_window(rig, seconds);
  spans_.set_on(true);
  set_obs(true);
  append(traced_lat_us_, traced.lat_us);
  append(traced_tps_, traced.tps_buckets);
  append(untraced_lat_us_, u.lat_us);
  append(untraced_tps_, u.tps_buckets);
}

int Bench::run() {
  if (a_.trace) {
    set_obs(true);
    run_before_ = Snap::take();
  }
  for (std::size_t i : {std::size_t{0}, std::size_t{7}, std::size_t{12345678}, w_.subscribers - 1}) {
    gates_.check(key_for(i) == workload::number_for(i), "fast key formatting matches number_for");
  }
  // Every cycle sets up a pair, runs its lookup and main windows, and kills
  // the primary: each metric samples the whole run, not one stretch of it.
  const double lookup_s = w_.lookup_share * a_.seconds / kCycles;
  const double main_s = w_.main_share * a_.seconds / kCycles;
  for (int cycle = 0; cycle < kCycles && gates_.failures.empty(); ++cycle) {
    rig_ = Tally{};
    std::unique_ptr<Rig> rig = set_up(cycle);
    // Footprint of a formed pair, before any timed window (nt_pair's
    // in-memory logs grow with throughput after this point).
    if (cycle == 0) rss_mb_ = peak_rss_bytes() / 1e6;
    pair_gates(*rig, "after the rejoin");
    if (!gates_.failures.empty()) break;
    const bool r_window = a_.trace && cycle == 0;
    lookup_window(*rig->primary, lookup_s);
    if (w_.closed_main) {
      if (r_window) main_before_ = Snap::take();
      const Window w = closed_window(*rig, main_s);
      main_commits_ += w.commits;
      main_own_s_ += w.own_s;
      append(commit_lat_us_, w.lat_us);
      append(tps_windows_, w.tps_buckets);
      append(p99_windows_, w.p99_buckets);
      if (r_window) main_after_ = Snap::take();
      if (a_.trace) overhead_slice(*rig, w, main_s);
    } else if (a_.trace) {
      // The open-loop workload's tracing overhead: a traced and an
      // untraced closed window of the nt mix on each cycle's pair.
      const double probe_s = 0.25 * a_.seconds / kCycles;
      overhead_slice(*rig, closed_window(*rig, probe_s), probe_s);
    }
    pair_gates(*rig, "before the kill");
    if (!gates_.failures.empty()) break;
    if (r_window && !w_.closed_main) main_before_ = Snap::take();
    kill_and_survive(*rig, cycle);
    if (r_window && !w_.closed_main) main_after_ = Snap::take();
    rig->teardown();
  }
  if (a_.trace) {
    const Snap end = Snap::take();
    const double takeovers = end.dc(*run_before_, "node.takeovers");
    const double split = end.dc(*run_before_, "node.split_brain_detected");
    gates_.check(takeovers == kills_, "node.takeovers (" + std::to_string(takeovers) +
                                          ") equals kills (" + std::to_string(kills_) + ")");
    gates_.check(split == 0, "node.split_brain_detected is 0 (" + std::to_string(split) + ")");
    if (gates_.failures.empty()) ledger();
  }
  report();
  return gates_.failures.empty() ? 0 : 1;
}

// -------------------------------------------------------------- ledger ---

/// Source L: each layer's public API driven alone with the workload's own
/// database seed and program stream.
void Bench::ledger() {
  set_obs(false);  // measure the layers, not the instrumentation
  const double budget_s = std::max(0.2, 0.03 * a_.seconds);
  const auto budget_ns = static_cast<std::int64_t>(budget_s * 1e9);
  std::vector<txn::TxnProgram> programs;
  workload::TxnGenerator gen(db_, nt_mix(), next_rng());
  for (int i = 0; i < 4096; ++i) programs.push_back(gen.next());
  auto per_op = [&](const std::string& name, double scale, const std::function<void(std::size_t)>& op) {
    for (std::size_t i = 0; i < 256; ++i) op(i);  // warm up
    std::size_t n = 0;
    const std::int64_t t0 = now_ns();
    std::int64_t t = t0;
    while (t - t0 < budget_ns) {
      for (int k = 0; k < 64; ++k) op(n++);
      t = now_ns();
    }
    ledger_[name] = static_cast<double>(t - t0) / static_cast<double>(n) / scale;
    ledger_base_[name] = std::to_string(n) + " ops in " + std::to_string(budget_s) + " s";
  };

  {
    // Storage and engine on a freshly loaded store, as bench/micro_engine.
    storage::ObjectStore store(std::max<std::size_t>(w_.subscribers, 1024));
    storage::BPlusTree index;
    workload::load_database(db_, store, index);
    Rng r = next_rng();
    std::vector<std::size_t> subs(1u << 16);
    for (std::size_t& x : subs) x = r.next_below(w_.subscribers);
    std::vector<storage::IndexKey> keys;
    for (std::size_t x : subs) keys.push_back(key_for(x));
    const std::size_t mask = subs.size() - 1;
    per_op("storage.index_find_ns", 1, [&](std::size_t i) {
      keep(index.find(keys[i & mask]).value_or(0));
    });
    per_op("storage.read_optimistic_ns", 1, [&](std::size_t i) {
      storage::ObjectRecord snap;
      std::uint32_t retries = 0;
      (void)store.read_optimistic(workload::oid_for(subs[i & mask]), snap, retries);
      keep(snap.wts);
    });
    per_op("storage.upsert_ns", 1, [&](std::size_t i) {
      const ObjectId oid = workload::oid_for(subs[i & mask]);
      const storage::ObjectRecord* rec = store.find(oid);
      storage::Value v = rec->value;
      v.write_u64(workload::kCounterOffset, v.read_u64(workload::kCounterOffset) + 1);
      store.upsert(oid, std::move(v), rec->wts);
    });
    log::MemoryLogStorage disk;
    log::LogWriter writer(LogMode::kOff, &disk, nullptr);
    engine::EngineConfig ec;
    ec.protocol = cc::Protocol::kOccDati;
    ec.costs = engine::CostModel::zero();
    engine::Engine eng(ec, store, &index, writer, engine::Engine::Hooks{});
    TxnId id = 1;
    std::uint64_t not_committed = 0;
    per_op("engine.txn_ns", 1, [&](std::size_t i) {
      txn::Transaction t(id, id, programs[i % programs.size()], TimePoint::origin(), TimePoint::max());
      ++id;
      eng.begin(t);
      while (true) {
        const engine::StepAction a = eng.step(t).action;
        if (a == engine::StepAction::kCommitted) break;
        if (a == engine::StepAction::kAborted || a == engine::StepAction::kBlocked) {
          ++not_committed;
          break;
        }
      }
    });
    gates_.check(not_committed == 0, "ledger engine transactions all commit");
  }
  {
    // rt: Node::execute on a lone node at kOff over the same store.
    rt::NodeConfig c = node_config(a_.work_dir + "/ledger", w_.subscribers, false);
    c.checkpoint_path.clear();
    rt::Node node(c, "ledger");
    workload::load_database(db_, node.store(), node.index());
    node.start_primary(LogMode::kOff);
    std::uint64_t not_committed = 0;
    per_op("rt.execute_off_ns", 1, [&](std::size_t i) {
      not_committed += node.execute(programs[i % programs.size()]).outcome != TxnOutcome::kCommitted;
    });
    node.stop();
    gates_.check(not_committed == 0, "ledger kOff executes all commit");
  }
  ledger_["rt.dispatch_ns"] = ledger_["rt.execute_off_ns"] - ledger_["engine.txn_ns"];
  ledger_base_["rt.dispatch_ns"] = "rt.execute_off_ns - engine.txn_ns";

  // log: the redo records of the workload's update transactions.
  std::vector<std::vector<log::Record>> commits;
  const std::vector<std::byte> payload(16 + db_.profile_bytes, std::byte{0x5a});
  for (const txn::TxnProgram& p : programs) {
    if (p.num_updates() == 0) continue;
    const TxnId t = commits.size() + 1;
    std::vector<log::Record> recs;
    for (const txn::Op& op : p.ops) {
      if (const auto* u = std::get_if<txn::UpdateOp>(&op)) {
        recs.push_back(log::Record::write_image(t, u->oid, storage::Value{std::span<const std::byte>{payload}}));
      }
    }
    recs.push_back(log::Record::commit(t, t, t, static_cast<std::uint32_t>(recs.size())));
    commits.push_back(std::move(recs));
  }
  per_op("log.record_encode_ns", 1, [&](std::size_t i) {
    ByteWriter bw(256);
    for (const log::Record& r : commits[i % commits.size()]) log::encode_record(r, bw);
    keep(crc32c(bw.take()));
  });
  {
    const std::string dir = a_.work_dir + "/ledger-seglog";
    std::error_code ec;
    fs::remove_all(dir, ec);
    log::SegmentedLogStorage::Options o;
    o.segment_bytes = 16u << 20;
    o.fsync_on_flush = false;
    auto seg = log::SegmentedLogStorage::open(dir, o);
    gates_.check(seg.is_ok(), "ledger segmented log opens");
    if (seg.is_ok()) {
      std::unique_ptr<log::SegmentedLogStorage> storage = std::move(seg).value();
      std::uint64_t flush_failures = 0;
      ValidationTs seq = 1;
      per_op("log.segment_append_us", 1e3, [&](std::size_t i) {
        for (log::Record r : commits[i % commits.size()]) {
          if (r.is_commit()) r.seq = r.serial_ts = seq++;
          storage->append(r);
        }
        storage->flush([&](Status s) { flush_failures += !s.is_ok(); });
      });
      gates_.check(flush_failures == 0, "ledger segment flushes succeed");
    }
    fs::remove_all(dir, ec);
  }
  {
    // net: ping-pong of one commit-sized frame over a fresh loopback pair.
    Rig rig;
    gates_.check(rig.connect(), "ledger loopback connection");
    const std::vector<std::byte> frame =
        repl::encode_framed(1, 1, repl::Message::log_batch(commits[0]));
    std::mutex mu;
    std::condition_variable cv;
    std::uint64_t echoed = 0;
    net::TcpChannel* echo = rig.m_end.get();
    rig.m_end->set_message_handler([echo](std::vector<std::byte> f) { (void)echo->send(std::move(f)); });
    rig.p_end->set_message_handler([&](std::vector<std::byte>) {
      std::lock_guard lock(mu);
      ++echoed;
      cv.notify_all();
    });
    rig.m_end->start();
    rig.p_end->start();
    std::vector<double> rtt;
    const std::int64_t end = now_ns() + budget_ns;
    for (std::uint64_t k = 1; now_ns() < end || k <= 200; ++k) {
      const std::int64_t t0 = now_ns();
      (void)rig.p_end->send(frame);
      std::unique_lock lock(mu);
      cv.wait_for(lock, std::chrono::seconds(1), [&] { return echoed >= k; });
      rtt.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
    rig.teardown();
    ledger_["net.tcp_rtt_us"] = median(rtt);
    ledger_base_["net.tcp_rtt_us"] = "median of " + std::to_string(rtt.size()) + " round trips, " +
                                     std::to_string(frame.size()) + " B frame";
  }
  set_obs(true);
}

// -------------------------------------------------------------- report ---

void Bench::report() {
  std::vector<Metric> m;
  auto add = [&](const std::string& name, double value, const std::string& unit,
                 const std::string& base) { m.push_back(Metric{name, value, unit, base}); };
  auto n = [](std::size_t v) { return std::to_string(v); };
  auto cnt = [](double v) { return std::to_string(static_cast<long long>(v)); };

  if (!a_.trace) {
    const std::string samples = n(commit_lat_us_.size()) + " commits";
    if (w_.closed_main) {
      add("commit_tps", main_own_s_ > 0 ? main_commits_ / main_own_s_ : 0.0, "txn/s",
          "commits / own-clock seconds over " + n(tps_windows_.size()) + " main windows, " + samples);
    } else {
      add("commit_tps", median(tps_windows_), "txn/s",
          "median of " + n(tps_windows_.size()) + " windows, " + samples);
    }
    add("commit_p50_us", quantile(commit_lat_us_, 0.5), "us", samples);
    add("rejoin_ms", median(rejoin_ms_), "ms", "median of " + n(rejoin_ms_.size()) + " joins");
    add("rejoin_stall_ms", median(stall_ms_), "ms", "median of " + n(stall_ms_.size()) + " joins");
    add("takeover_ms", median(takeover_ms_), "ms", "median of " + n(takeover_ms_.size()) + " kills");
    add("setup_s", median(setup_s_), "s", "median of " + n(setup_s_.size()) + " set-ups");
    add("rss_mb", rss_mb_, "MB", "peak resident once the first pair is formed (ru_maxrss)");
  } else {
    const Snap run_after = Snap::take();
    if (!main_before_ || !main_after_) main_before_ = main_after_ = run_after;  // a gate failed first
    const Snap& mb = *main_before_;
    const Snap& ma = *main_after_;
    const Snap& rb = *run_before_;
    const double commits = std::max(1.0, ma.dc(mb, "engine.commits"));
    const std::string win = "R window: cycle 0's main window (failover: pair, kill and survivor), " +
                            cnt(commits) + " engine commits";
    for (const auto& [name, value] : ledger_) {
      const bool us = name.size() > 3 && name.compare(name.size() - 3, 3, "_us") == 0;
      add(name, value, us ? "us" : "ns", "L: " + ledger_base_[name]);
    }
    add("storage.lookup_ops_s", median(lookup_windows_), "lookups/s",
        "median of " + n(lookup_windows_.size()) + " 50 ms windows, " + std::to_string(lookups_) +
            " lookups, " + std::to_string(lookup_fallbacks_) + " transactional fallbacks");
    add("storage.read_retries_per_mlookup",
        lookups_ ? static_cast<double>(lookup_retries_) * 1e6 / static_cast<double>(lookups_) : 0.0,
        "count", "R engine.read_retries over " + std::to_string(lookups_) + " lookups");
    add("storage.checkpoint_write_ms", median(checkpoint_ms_), "ms",
        "S: median of " + n(checkpoint_ms_.size()) + " Node::write_checkpoint calls");
    add("storage.checkpoint_bytes_per_subscriber", ckpt_bytes_per_sub_, "B",
        "R ckpt.bytes_full of the first checkpoint / " + n(w_.subscribers));
    add("storage.heap_bytes_per_subscriber", heap_bytes_per_sub_, "B",
        "malloc'd bytes (mallinfo2) added by loading the first primary / " + n(w_.subscribers));
    auto stage = [&](const std::string& metric, const std::string& timer) {
      add(metric, ma.mean_us(mb, timer), "us",
          "R " + timer + " mean over " + cnt(ma.count(mb, timer)) + " samples");
    };
    stage("engine.read_phase_us", "lifecycle.stage.read_phase_us");
    stage("engine.validate_us", "lifecycle.stage.validate_us");
    stage("engine.write_phase_us", "lifecycle.stage.write_phase_us");
    stage("rt.queue_wait_us", "lifecycle.stage.queue_wait_us");
    stage("log.log_flush_us", "lifecycle.stage.log_flush_us");
    stage("repl.ship_us", "lifecycle.stage.ship_us");
    stage("repl.mirror_ack_us", "lifecycle.stage.mirror_ack_us");
    stage("repl.commit_rtt_us", "repl.commit_rtt_us");
    add("engine.validations_per_commit", ma.dc(mb, "engine.validations") / commits, "count", win);
    add("engine.restarts_per_kcommit", ma.dc(mb, "engine.restarts") * 1000.0 / commits, "count", win);
    add("rt.commit_mu_wait_us_per_commit", ma.sum_us(mb, "node.commit_mu_wait") / commits, "us",
        win + ", " + cnt(ma.count(mb, "node.commit_mu_wait")) + " contended waits");
    add("sched.overload_rejected", run_after.dc(rb, "sched.overload_rejected"), "count", "R whole run");
    add("sched.deadline_misses", run_after.dc(rb, "sched.deadline_misses"), "count", "R whole run");
    const double batches = std::max(1.0, ma.dc(mb, "log.batch.shipped"));
    const double batch_txns = std::max(1.0, ma.dc(mb, "log.batch.txns"));
    add("log.bytes_per_commit", ma.dc(mb, "log.batch.bytes") / batch_txns, "B",
        "R log.batch.bytes / log.batch.txns over " + cnt(batch_txns) + " shipped txns");
    add("log.txns_per_batch", batch_txns / batches, "count", "R over " + cnt(batches) + " batches");
    add("net.frames_per_commit",
        (ma.dc(mb, "repl.batches_shipped") + ma.dc(mb, "mirror.acks_sent")) / commits, "count", win);
    add("repl.snapshots_served_per_join",
        run_after.dc(rb, "repl.snapshots_served") / std::max<double>(1, rejoin_ms_.size()), "count",
        "R whole run over " + n(rejoin_ms_.size()) + " joins");
    add("repl.join_retries", run_after.dc(rb, "mirror.join_retries"), "count", "R whole run");
    add("repl.join_serve_ms", median(join_serve_ms_), "ms", "S: median of " + n(join_serve_ms_.size()));
    add("repl.join_install_ms", median(join_install_ms_), "ms",
        "S: median of " + n(join_install_ms_.size()));
    add("client.commit_p99_us", median(p99_windows_), "us",
        "median of " + n(p99_windows_.size()) + " per-window p99s, " + n(commit_lat_us_.size()) +
            " commits");
    add("rt.transient_p50_us", median(transient_us_), "us",
        "median of " + n(transient_us_.size()) + " per-takeover medians, " + n(transient_samples_) +
            " survivor commits");
    add("repl.kill_to_serving_ms", median(kill_to_serving_ms_), "ms",
        "S: median of " + n(kill_to_serving_ms_.size()));
    add("repl.serving_to_commit_ms", median(serving_to_commit_ms_), "ms",
        "S: median of " + n(serving_to_commit_ms_.size()));
    add("client.lateness_p50_us", quantile(lateness_us_, 0.5), "us",
        "open-loop actual - due send time, " + n(lateness_us_.size()) + " arrivals");
    add("client.lateness_p99_us", quantile(lateness_us_, 0.99), "us",
        n(lateness_us_.size()) + " arrivals");
    for (int k = 0; k < kKinds; ++k) {
      add(std::string("client.first_fail_") + kind_name(k),
          static_cast<double>(total_.first_fail[k]), "count",
          "requests whose first attempt failed this way (retried to commit)");
    }
    const double tp50 = quantile(traced_lat_us_, 0.5);
    const double up50 = quantile(untraced_lat_us_, 0.5);
    const double ttps = median(traced_tps_);
    const double utps = median(untraced_tps_);
    add("trace.overhead_commit_p50_pct", up50 > 0 ? (tp50 - up50) / up50 * 100 : 0, "%",
        "traced p50 " + std::to_string(tp50) + " us vs untraced " + std::to_string(up50) + " us");
    add("trace.overhead_commit_tps_pct", utps > 0 ? (utps - ttps) / utps * 100 : 0, "%",
        "traced " + std::to_string(ttps) + " txn/s vs untraced " + std::to_string(utps) + " txn/s");
    const std::string path = fs::path(a_.work_dir).parent_path().string() + "/rtbench-spans-" +
                             w_.name + ".jsonl";
    const bool wrote = spans_.write(path, origin_ns_);
    std::printf("# spans: %zu kept, %zu dropped, %s %s\n", spans_.size(), spans_.dropped(),
                wrote ? "written to" : "NOT written to", path.c_str());
  }

  std::uint64_t first_total = 0;
  for (int k = 0; k < kKinds; ++k) {
    first_total += total_.first_fail[k];
    std::printf("# base failures %s: first_attempt=%llu retries=%llu\n", kind_name(k),
                static_cast<unsigned long long>(total_.first_fail[k]),
                static_cast<unsigned long long>(total_.retries[k]));
  }
  std::printf("# base attempted=%llu failed=%llu first_attempt_failure_ratio=%.6g\n",
              static_cast<unsigned long long>(total_.attempted),
              static_cast<unsigned long long>(total_.failed),
              total_.attempted ? static_cast<double>(first_total) / static_cast<double>(total_.attempted)
                               : 0.0);
  std::printf("# base generator lateness p50=%.2f us p99=%.2f us, %zu arrivals\n",
              quantile(lateness_us_, 0.5), quantile(lateness_us_, 0.99), lateness_us_.size());
  auto spread = [](const char* what, const std::vector<double>& v) {
    std::printf("# base %s windows p10=%.6g p50=%.6g p90=%.6g, %zu windows\n", what,
                quantile(v, 0.1), quantile(v, 0.5), quantile(v, 0.9), v.size());
  };
  spread("commit_tps", tps_windows_);
  spread("commit_p99_us", p99_windows_);
  spread("lookup_ops_s", lookup_windows_);
  for (const Metric& x : m) {
    std::printf("# metric %s = %.6g %s (%s)\n", x.name.c_str(), x.value, x.unit.c_str(), x.base.c_str());
  }
  std::printf("# gates checked=%d failed=%zu\n", gates_.checked, gates_.failures.size());

  std::string json = std::string("{\"correct\": ") + (gates_.failures.empty() ? "true" : "false");
  json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(total_.attempted + lookups_, 1));
  json += ", \"failed\": " + std::to_string(total_.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < m.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(m[i].value) ? m[i].value : 0.0);
    json += (i ? ", \"" : "\"") + m[i].name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: rtbench --workload nt_pair|failover --seed N --seconds S --trace 0|1 "
                 "[--subscribers N] [--plant-divergence] [--work-dir DIR] [--describe TEXT]\n");
    return 2;
  }
  std::optional<Workload> w = workload_for(args.workload);
  if (!w) {
    std::fprintf(stderr, "rtbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  if (args.subscribers) w->subscribers = args.subscribers;
  if (!pin_to_one_cpu()) {
    std::fprintf(stderr, "rtbench: cannot pin the process to one CPU\n");
    return 2;
  }
  diag::set_level(diag::Level::kWarn);
  std::error_code ec;
  fs::create_directories(args.work_dir, ec);
  print_config(args, *w);
  Bench bench(args, *w);
  const int rc = bench.run();
  fs::remove_all(args.work_dir, ec);
  return rc;
}
