// Worker scaling of the primary (DESIGN.md §11): sweep the worker count
// 1 -> 8 over the paper's number-translation workload and report committed
// throughput, commit latency tails, seqlock retries, reader fences and
// commit-mutex wait per point. Two mixes per sweep: the paper's read-heavy
// service-provision mix and a write-heavy mix. Every engine step runs
// under the node's commit mutex, so extra workers cannot add throughput;
// the sweep shows what they cost (lock_wait_ms, speedup_vs_1 below 1).
#include <algorithm>
#include <chrono>
#include <cstdio>
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

namespace {

struct Mix {
  const char* name;          // report-label prefix ("" = legacy read-heavy)
  double write_fraction;
  std::size_t reads_per_txn;
  std::size_t updates_per_txn;
};

struct SweepPoint {
  std::size_t workers{0};
  std::uint64_t committed{0};
  std::uint64_t submitted{0};
  double seconds{0};
  double tps{0};
  LatencyHistogram latency;
  std::uint64_t seqlock_retries{0};
  std::uint64_t rehash_fences{0};
  double lock_wait_ms{0};
};

double timer_total_ms(const LatencyHistogram& h) {
  return h.mean().to_ms() * static_cast<double>(h.count());
}

SweepPoint run_point(std::size_t workers, const Mix& mix,
                     const exp::BenchArgs& args) {
  workload::DatabaseConfig dbc;
  dbc.num_objects = std::min<std::size_t>(30000, std::max<std::size_t>(
                                                     args.txns * 4, 2000));
  workload::WorkloadConfig wlc;
  wlc.write_fraction = mix.write_fraction;
  wlc.reads_per_txn = mix.reads_per_txn;
  wlc.updates_per_txn = mix.updates_per_txn;
  // Throughput sweep, not a deadline experiment: give every transaction
  // room so the miss path never confounds the scaling signal.
  wlc.read_deadline = Duration::seconds(30);
  wlc.write_deadline = Duration::seconds(30);

  rt::NodeConfig config;
  config.worker_threads = workers;  // explicit: overrides any RODAIN_WORKERS
  config.overload.max_active = 100000;
  config.store_capacity_hint = dbc.num_objects * 2;
  rt::Node node(config, "scaling");
  workload::load_database(dbc, node.store(), node.index());
  node.start_primary(LogMode::kOff);

  obs::Counter& retries = obs::metrics().counter("engine.read_retries");
  obs::Counter& fences = obs::metrics().counter("store.rehash_fences");
  obs::Timer& mu_wait = obs::metrics().timer("node.commit_mu_wait");
  const std::uint64_t retries0 = retries.value();
  const std::uint64_t fences0 = fences.value();
  const double wait0_ms = timer_total_ms(mu_wait.merged());

  // Closed loop: 2 clients per worker keep every worker fed without the
  // open-loop overload machinery entering the picture.
  const std::size_t clients = std::max<std::size_t>(workers * 2, 2);
  const std::size_t per_client = std::max<std::size_t>(args.txns / clients, 1);
  std::mutex merge_mu;
  LatencyHistogram latency;
  std::uint64_t committed = 0;

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      workload::TxnGenerator gen(dbc, wlc, Rng(args.seed + 1000 * c + 1));
      LatencyHistogram local;
      std::uint64_t ok = 0;
      for (std::size_t i = 0; i < per_client; ++i) {
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

  SweepPoint point;
  point.workers = workers;
  point.committed = committed;
  point.submitted = node.counters().submitted;
  point.seconds = std::chrono::duration<double>(t1 - t0).count();
  point.tps = point.seconds > 0
                  ? static_cast<double>(committed) / point.seconds
                  : 0.0;
  point.latency = latency;
  point.seqlock_retries = retries.value() - retries0;
  point.rehash_fences = fences.value() - fences0;
  point.lock_wait_ms = timer_total_ms(mu_wait.merged()) - wait0_ms;
  node.stop();
  return point;
}

void report_point(exp::BenchReport& rep, const Mix& mix, const SweepPoint& p,
                  double speedup) {
  char label[48];
  if (mix.name[0] == '\0') {
    std::snprintf(label, sizeof(label), "workers=%zu", p.workers);
  } else {
    std::snprintf(label, sizeof(label), "%s workers=%zu", mix.name, p.workers);
  }
  rep.begin_result(label);
  rep.field("workers", static_cast<std::int64_t>(p.workers));
  rep.field("committed", static_cast<std::int64_t>(p.committed));
  rep.field("submitted", static_cast<std::int64_t>(p.submitted));
  rep.field("txns_per_sec", p.tps);
  rep.field("p99_commit_ms", p.latency.quantile(0.99).to_ms());
  rep.field("p50_commit_ms", p.latency.quantile(0.5).to_ms());
  rep.field("seqlock_retries", static_cast<std::int64_t>(p.seqlock_retries));
  rep.field("rehash_fences", static_cast<std::int64_t>(p.rehash_fences));
  rep.field("lock_wait_ms", p.lock_wait_ms);
  rep.field("speedup_vs_1", speedup);
}

}  // namespace

int main(int argc, char** argv) {
  const exp::BenchArgs args = exp::BenchArgs::parse(argc, argv);
  obs::ObsConfig obs_config;
  obs_config.enabled = true;
  obs_config.tracing = false;
  obs::init(obs_config);

  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  exp::BenchReport rep("scaling");
  rep.set("txns", static_cast<std::int64_t>(args.txns));
  rep.set("seed", static_cast<std::int64_t>(args.seed));
  rep.set("write_fraction", 0.1);
  rep.set("write_fraction_heavy", 0.6);
  rep.set("hardware_concurrency", static_cast<std::int64_t>(cores));

  std::printf("=== Primary: worker sweep over number translation ===\n");
  std::printf(
      "    (CostModel::zero, logging off, %zu txns per point, %zu cores)\n",
      args.txns, cores);
  if (cores < 4) {
    std::printf(
        "    NOTE: fewer than 4 cores — the sweep is oversubscribed.\n");
  }

  // Legacy read-heavy mix keeps its unprefixed labels.
  const Mix mixes[] = {
      {"", 0.1, 8, 2},
      {"write_heavy", 0.6, 4, 4},
  };
  const std::size_t sweep[] = {1, 2, 4, 8};
  double speedup_at_4 = 0.0;
  double wh_speedup_at_8 = 0.0;
  double wh_mu_wait_at_8 = 0.0;
  for (const Mix& mix : mixes) {
    std::printf("  --- %s mix: write_fraction=%.1f ---\n",
                mix.name[0] ? mix.name : "read_heavy", mix.write_fraction);
    double tps_at_1 = 0.0;
    for (std::size_t workers : sweep) {
      const SweepPoint p = run_point(workers, mix, args);
      const double speedup = tps_at_1 > 0 ? p.tps / tps_at_1 : 1.0;
      if (workers == 1) tps_at_1 = p.tps;
      if (mix.name[0] == '\0' && workers == 4) speedup_at_4 = speedup;
      if (mix.name[0] != '\0' && workers == 8) {
        wh_speedup_at_8 = speedup;
        wh_mu_wait_at_8 = p.lock_wait_ms;
      }
      std::printf(
          "  workers=%zu  %9.0f txn/s  p99=%7.3fms  speedup=%.2fx  "
          "retries=%llu  fences=%llu  mu_wait=%.1fms\n",
          workers, p.tps, p.latency.quantile(0.99).to_ms(), speedup,
          static_cast<unsigned long long>(p.seqlock_retries),
          static_cast<unsigned long long>(p.rehash_fences), p.lock_wait_ms);
      report_point(rep, mix, p, speedup);
    }
  }
  rep.set("speedup_at_4", speedup_at_4);
  rep.set("wh_speedup_at_8", wh_speedup_at_8);
  rep.set("wh_mu_wait_at_8_ms", wh_mu_wait_at_8);

  std::printf("  -> 4-worker speedup over 1 worker (read-heavy): %.2fx\n",
              speedup_at_4);
  std::printf("  -> 8-worker speedup over 1 worker (write-heavy): %.2fx\n",
              wh_speedup_at_8);
  rep.write_file();
  return 0;
}
