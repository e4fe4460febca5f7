// Checkpoint stall sweep (DESIGN.md §15): run the same write-heavy
// closed-loop workload at two store sizes 10x apart, with checkpointing
// off ("none") and on ("fuzzy": CoW snapshot checkpoints). Per point:
// committed throughput, commit-latency tails while checkpoints land
// mid-run, and the write stall the checkpoint path charged to
// node.checkpoint_stall_us.
//
// The two headline ratios the trend gate watches:
//   stall_flat_ratio        fuzzy mean stall at the large store over the
//                           small one — the flip is O(1), so growing the
//                           store 10x must NOT grow the stall 10x.
//   fuzzy_p99_over_none_large  p99 commit latency with fuzzy checkpoints
//                           landing mid-run over the no-checkpoint
//                           baseline at the large store (target: ~1x,
//                           acceptance < 2x).
//
// Points run for a fixed wall-clock window (not a fixed txn count) so the
// 25ms cadence fires several times inside every point even in --smoke.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "rodain/common/stats.hpp"
#include "rodain/exp/args.hpp"
#include "rodain/exp/report.hpp"
#include "rodain/obs/obs.hpp"
#include "rodain/rt/node.hpp"
#include "rodain/workload/number_translation.hpp"

using namespace rodain;
using namespace rodain::literals;

namespace {

enum class Mode { kNone, kFuzzy };

const char* mode_name(Mode m) {
  return m == Mode::kFuzzy ? "fuzzy" : "none";
}

struct StallPoint {
  Mode mode{Mode::kNone};
  std::size_t store_size{0};
  std::uint64_t committed{0};
  std::uint64_t submitted{0};
  double seconds{0};
  double tps{0};
  LatencyHistogram latency;
  std::uint64_t checkpoints{0};
  std::uint64_t failures{0};
  std::uint64_t stall_count{0};
  double stall_mean_us{0};
  double stall_total_ms{0};
  std::uint64_t bytes_full{0};
  std::uint64_t bytes_delta{0};
};

double timer_total_ms(const LatencyHistogram& h) {
  return h.mean().to_ms() * static_cast<double>(h.count());
}

StallPoint run_point(Mode mode, std::size_t store_size, double window_s,
                     const exp::BenchArgs& args,
                     const std::filesystem::path& dir) {
  workload::DatabaseConfig dbc;
  dbc.num_objects = store_size;
  workload::WorkloadConfig wlc;
  // Write-heavy: every committed txn dirties records, so deltas have
  // something to carry and the encode races real commit traffic.
  wlc.write_fraction = 0.6;
  wlc.reads_per_txn = 4;
  wlc.updates_per_txn = 4;
  // Latency experiment, not a deadline one: give every txn room so the
  // miss path never confounds the p99-during-checkpoint signal.
  wlc.read_deadline = Duration::seconds(30);
  wlc.write_deadline = Duration::seconds(30);

  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  rt::NodeConfig config;
  config.overload.max_active = 100000;
  config.store_capacity_hint = store_size * 2;
  if (mode == Mode::kFuzzy) {
    config.checkpoint_path = (dir / "db.ckpt").string();
    config.checkpoint_interval = 50_ms;
  }
  rt::Node node(config, "ckpt_stall");
  workload::load_database(dbc, node.store(), node.index());
  node.start_primary(LogMode::kOff);

  obs::Timer& stall = obs::metrics().timer("node.checkpoint_stall_us");
  obs::Counter& checkpoints = obs::metrics().counter("log.checkpoints");
  obs::Counter& failures = obs::metrics().counter("log.checkpoint_failures");
  obs::Counter& bytes_full = obs::metrics().counter("ckpt.bytes_full");
  obs::Counter& bytes_delta = obs::metrics().counter("ckpt.bytes_delta");
  const LatencyHistogram stall0 = stall.merged();
  const std::uint64_t ckpt0 = checkpoints.value();
  const std::uint64_t fail0 = failures.value();
  const std::uint64_t full0 = bytes_full.value();
  const std::uint64_t delta0 = bytes_delta.value();

  // Closed loop for a fixed wall-clock window so the checkpoint cadence
  // fires mid-run regardless of host speed or --smoke txn budget. Two
  // clients keep the single worker fed without drowning small hosts —
  // the p99 comparison needs the encoder, not the clients, to be the
  // contended party.
  const std::size_t clients = 2;
  std::mutex merge_mu;
  LatencyHistogram latency;
  std::uint64_t committed = 0;

  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
               std::chrono::duration<double>(window_s));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      workload::TxnGenerator gen(dbc, wlc, Rng(args.seed + 1000 * c + 1));
      LatencyHistogram local;
      std::uint64_t ok = 0;
      while (std::chrono::steady_clock::now() < deadline) {
        const rt::CommitInfo info = node.execute(gen.next());
        if (info.outcome == TxnOutcome::kCommitted) {
          ++ok;
          local.add(info.latency);
        }
      }
      std::lock_guard lock(merge_mu);
      latency.merge(local);
      committed += ok;
    });
  }
  for (std::thread& t : threads) t.join();
  const auto t1 = std::chrono::steady_clock::now();

  StallPoint point;
  point.mode = mode;
  point.store_size = store_size;
  point.committed = committed;
  point.submitted = node.counters().submitted;
  point.seconds = std::chrono::duration<double>(t1 - t0).count();
  point.tps = point.seconds > 0
                  ? static_cast<double>(committed) / point.seconds
                  : 0.0;
  point.latency = latency;
  const LatencyHistogram stall1 = stall.merged();
  point.stall_count = stall1.count() - stall0.count();
  point.stall_total_ms = timer_total_ms(stall1) - timer_total_ms(stall0);
  point.stall_mean_us =
      point.stall_count > 0
          ? point.stall_total_ms * 1000.0 /
                static_cast<double>(point.stall_count)
          : 0.0;
  point.checkpoints = checkpoints.value() - ckpt0;
  point.failures = failures.value() - fail0;
  point.bytes_full = bytes_full.value() - full0;
  point.bytes_delta = bytes_delta.value() - delta0;
  node.stop();
  std::filesystem::remove_all(dir);
  return point;
}

void report_point(exp::BenchReport& rep, const StallPoint& p) {
  char label[48];
  std::snprintf(label, sizeof(label), "%s size=%zu", mode_name(p.mode),
                p.store_size);
  rep.begin_result(label);
  rep.field("mode", mode_name(p.mode));
  rep.field("store_size", static_cast<std::int64_t>(p.store_size));
  rep.field("committed", static_cast<std::int64_t>(p.committed));
  rep.field("submitted", static_cast<std::int64_t>(p.submitted));
  rep.field("txns_per_sec", p.tps);
  rep.field("p99_commit_ms", p.latency.quantile(0.99).to_ms());
  rep.field("p50_commit_ms", p.latency.quantile(0.5).to_ms());
  rep.field("checkpoints", static_cast<std::int64_t>(p.checkpoints));
  rep.field("checkpoint_failures", static_cast<std::int64_t>(p.failures));
  rep.field("stall_count", static_cast<std::int64_t>(p.stall_count));
  rep.field("stall_mean_us", p.stall_mean_us);
  rep.field("stall_total_ms", p.stall_total_ms);
  rep.field("bytes_full", static_cast<std::int64_t>(p.bytes_full));
  rep.field("bytes_delta", static_cast<std::int64_t>(p.bytes_delta));
}

void print_point(const StallPoint& p) {
  std::printf(
      "  %-5s size=%-7zu %9.0f txn/s  p99=%7.3fms  ckpts=%llu  "
      "stall_mean=%.0fus  stall_total=%.1fms  full=%lluB  delta=%lluB\n",
      mode_name(p.mode), p.store_size, p.tps,
      p.latency.quantile(0.99).to_ms(),
      static_cast<unsigned long long>(p.checkpoints), p.stall_mean_us,
      p.stall_total_ms, static_cast<unsigned long long>(p.bytes_full),
      static_cast<unsigned long long>(p.bytes_delta));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

int main(int argc, char** argv) {
  const exp::BenchArgs args = exp::BenchArgs::parse(argc, argv);
  obs::ObsConfig obs_config;
  obs_config.enabled = true;
  obs_config.tracing = false;
  obs::init(obs_config);

  // Store sizes a decade apart; --smoke shrinks both but keeps the 10x.
  const std::size_t small =
      std::clamp<std::size_t>(args.txns * 4, 2000, 10000);
  const std::size_t large = small * 10;
  // Long enough for several 50ms cadence ticks per point.
  const double window_s = args.txns <= 1000 ? 0.4 : 1.0;

  exp::BenchReport rep("checkpoint_stall");
  rep.set("txns", static_cast<std::int64_t>(args.txns));
  rep.set("seed", static_cast<std::int64_t>(args.seed));
  rep.set("store_small", static_cast<std::int64_t>(small));
  rep.set("store_large", static_cast<std::int64_t>(large));
  rep.set("window_s", window_s);

  const auto dir =
      std::filesystem::temp_directory_path() / "rodain_bench_ckpt_stall";

  std::printf("=== Checkpoint stall: store %zu -> %zu ===\n", small, large);

  const StallPoint none_s = run_point(Mode::kNone, small, window_s, args, dir);
  const StallPoint none_l = run_point(Mode::kNone, large, window_s, args, dir);
  const StallPoint fuzzy_s =
      run_point(Mode::kFuzzy, small, window_s, args, dir);
  const StallPoint fuzzy_l =
      run_point(Mode::kFuzzy, large, window_s, args, dir);
  const double fuzzy_stall_max_us =
      static_cast<double>(obs::metrics()
                              .timer("node.checkpoint_stall_us")
                              .merged()
                              .max_value()
                              .us);

  for (const StallPoint* p : {&none_s, &none_l, &fuzzy_s, &fuzzy_l}) {
    print_point(*p);
    report_point(rep, *p);
  }

  const double stall_flat_ratio =
      ratio(fuzzy_l.stall_mean_us, fuzzy_s.stall_mean_us);
  const double p99_over_none =
      ratio(fuzzy_l.latency.quantile(0.99).to_ms(),
            none_l.latency.quantile(0.99).to_ms());
  const bool fuzzy_ok = fuzzy_s.checkpoints > 0 && fuzzy_l.checkpoints > 0 &&
                        fuzzy_s.failures == 0 && fuzzy_l.failures == 0;

  rep.set("stall_flat_ratio", stall_flat_ratio);
  rep.set("fuzzy_p99_over_none_large", p99_over_none);
  rep.set("fuzzy_stall_max_us", fuzzy_stall_max_us);
  rep.set("fuzzy_checkpoints_ok", static_cast<std::int64_t>(fuzzy_ok));

  std::printf("  -> fuzzy stall growth over 10x store: %.2fx\n",
              stall_flat_ratio);
  std::printf(
      "  -> p99 during fuzzy checkpoints / no-checkpoint baseline: %.2fx "
      "(target < 2x)\n",
      p99_over_none);
  std::printf("  -> fuzzy max stall: %.0fus over %llu checkpoints\n",
              fuzzy_stall_max_us,
              static_cast<unsigned long long>(fuzzy_s.checkpoints +
                                              fuzzy_l.checkpoints));
  rep.write_file();
  return 0;
}
