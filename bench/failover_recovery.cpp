// Claims C4 and C5 (paper §2/§4):
//
//   C4 "the Mirror Node can almost instantaneously serve incoming requests"
//      versus recovering a lone node from the disk backup: we measure the
//      failover gap (watchdog detection + takeover activation) against the
//      modelled time to reload a checkpoint and replay the log tail from a
//      late-1990s disk.
//
//   C5 "a sequential failure of both nodes does not lose data, if the time
//      difference between the failures is large enough for the Mirror Node
//      to store the buffered logs to the disk": we crash the primary, then
//      crash the survivor after an increasing gap and count committed
//      transactions that were not yet durable on its disk.
#include <chrono>
#include <cstdio>
#include <filesystem>

#include "rodain/exp/args.hpp"
#include "rodain/exp/report.hpp"
#include "rodain/exp/session.hpp"
#include "rodain/log/recovery.hpp"
#include "rodain/log/segment.hpp"
#include "rodain/rt/node.hpp"
#include "rodain/storage/fuzzy_checkpoint.hpp"

using namespace rodain;
using namespace rodain::literals;

namespace {

// ---------------------------------------------------------------- C4 ----

void measure_failover(const exp::BenchArgs& args, exp::BenchReport& rep) {
  std::printf(
      "--- C4a: failover gap vs watchdog timeout (two-node, 200 txn/s) ---\n");
  exp::SeriesPrinter printer("watchdog[ms]", {"failover gap [ms]"});
  for (double timeout_ms : {50.0, 100.0, 200.0, 500.0, 1000.0}) {
    sim::Simulation sim;
    auto cluster_config = workload::PaperSetup::two_node(true);
    cluster_config.node.watchdog_timeout = Duration::millis_f(timeout_ms);
    cluster_config.node.heartbeat_interval = Duration::millis_f(timeout_ms / 4);
    simdb::SimCluster cluster(sim, cluster_config);
    auto db = workload::PaperSetup::database();
    cluster.populate([&](storage::ObjectStore& s, storage::BPlusTree& i) {
      workload::load_database(db, s, i);
    });
    cluster.start();
    auto trace =
        workload::Trace::generate(db, workload::PaperSetup::workload(0.5),
                                  200.0, args.txns / 2, args.seed);
    for (const auto& e : trace.entries()) {
      sim.schedule_after(e.offset, [&cluster, &e] {
        cluster.submit(e.program, {});
      });
    }
    sim.schedule_at(TimePoint{2'000'000},
                    [&] { cluster.fail_node(cluster.node_a()); });
    sim.run_until(TimePoint::origin() + trace.duration() + 5_s);
    const double gap_ms = cluster.last_failover_gap()
                              ? cluster.last_failover_gap()->to_ms()
                              : -1.0;
    printer.add_row(timeout_ms, {gap_ms});
    char label[48];
    std::snprintf(label, sizeof label, "C4a watchdog=%.0fms", timeout_ms);
    rep.begin_result(label);
    rep.field("watchdog_ms", timeout_ms);
    rep.field("failover_gap_ms", gap_ms);
  }
  printer.print();
}

void measure_recovery(const exp::BenchArgs& args, exp::BenchReport& rep) {
  (void)args;
  std::printf(
      "\n--- C4b: lone-node restart from disk backup "
      "(checkpoint + log replay) ---\n");
  exp::SeriesPrinter printer("objects",
                             {"ckpt[MB]", "1998-disk load [ms]",
                              "replay cpu [ms]", "total restart [ms]"});
  const auto dir =
      std::filesystem::temp_directory_path() / "rodain_recovery_bench";
  std::filesystem::create_directories(dir);
  for (std::size_t objects : {10000uz, 30000uz, 100000uz}) {
    workload::DatabaseConfig db;
    db.num_objects = objects;
    storage::ObjectStore store(objects);
    storage::BPlusTree index;
    workload::load_database(db, store, index);

    const std::string ckpt_path = (dir / "db.ckpt").string();
    const std::string log_path = (dir / "tail.log").string();
    std::filesystem::remove(log_path);
    storage::CheckpointChain chain(ckpt_path);
    (void)chain.write(store, index, 0);
    // A plausible log tail: ~2000 committed update txns since the checkpoint.
    {
      auto log_file = log::FileLogStorage::open(log_path);
      Rng rng(7);
      for (ValidationTs seq = 1; seq <= 2000; ++seq) {
        for (int w = 0; w < 2; ++w) {
          storage::Value v{
              std::string_view{"updated-payload-bytes-0123456789", 32}};
          log_file.value()->append(log::Record::write_image(
              seq, workload::oid_for(rng.next_below(objects)), v));
        }
        log_file.value()->append(
            log::Record::commit(seq, seq, seq * cc::kTsSpacing, 2));
      }
      log_file.value()->flush({});
    }

    const auto ckpt_bytes = chain.manifest().entries.at(0).bytes;
    const auto log_bytes = std::filesystem::file_size(log_path);

    // Actual replay work (CPU), measured on this machine.
    storage::ObjectStore recovered(objects);
    const auto t0 = std::chrono::steady_clock::now();
    auto meta = storage::load_checkpoint_artifacts(ckpt_path, recovered);
    auto stats = log::recover_from_file(
        log_path, recovered, meta.is_ok() ? meta.value().last_applied : 0);
    const auto t1 = std::chrono::steady_clock::now();
    const double cpu_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (!stats.is_ok()) {
      std::printf("recovery failed: %s\n", stats.status().to_string().c_str());
      continue;
    }
    // Modelled sequential load from the paper's disk (~4 MB/s + seeks).
    const double disk_ms =
        (static_cast<double>(ckpt_bytes + log_bytes) / (4.0 * 1024 * 1024)) *
            1e3 +
        2 * 8.0;
    printer.add_row(static_cast<double>(objects),
                    {static_cast<double>(ckpt_bytes) / (1024.0 * 1024.0),
                     disk_ms, cpu_ms, disk_ms + cpu_ms});
    char label[48];
    std::snprintf(label, sizeof label, "C4b restart objects=%zu", objects);
    rep.begin_result(label);
    rep.field("objects", static_cast<std::int64_t>(objects));
    rep.field("checkpoint_mb",
              static_cast<double>(ckpt_bytes) / (1024.0 * 1024.0));
    rep.field("disk_load_ms", disk_ms);
    rep.field("replay_cpu_ms", cpu_ms);
    rep.field("total_restart_ms", disk_ms + cpu_ms);
  }
  printer.print();
  std::printf("  => a mirror takeover (~watchdog timeout, 50-1000 ms above) "
              "replaces seconds of disk reload (claim C4).\n");
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------- C5 ----

void measure_sequential_failure(const exp::BenchArgs& args,
                                exp::BenchReport& rep) {
  std::printf(
      "\n--- C5: committed-but-lost txns vs gap between the two failures "
      "---\n");
  struct DiskCase {
    const char* name;
    Duration seek;
    double throughput;
  };
  const DiskCase disks[] = {
      {"paper disk (8ms, 4MB/s)", Duration::millis(8), 4.0 * 1024 * 1024},
      {"slow disk (40ms, 0.5MB/s)", Duration::millis(40), 0.5 * 1024 * 1024},
  };
  for (const DiskCase& disk : disks) {
    std::printf("  %s:\n", disk.name);
    exp::SeriesPrinter printer("gap[ms]",
                               {"lost committed txns", "mirror backlog@t1"});
    for (double gap_ms : {0.0, 5.0, 20.0, 50.0, 200.0, 1000.0}) {
      sim::Simulation sim;
      auto cluster_config = workload::PaperSetup::two_node(true);
      cluster_config.node.disk.seek_time = disk.seek;
      cluster_config.node.disk.throughput_bytes_per_sec = disk.throughput;
      simdb::SimCluster cluster(sim, cluster_config);
      auto db = workload::PaperSetup::database();
      cluster.populate([&](storage::ObjectStore& s, storage::BPlusTree& i) {
        workload::load_database(db, s, i);
      });
      cluster.start();
      auto trace =
          workload::Trace::generate(db, workload::PaperSetup::workload(0.5),
                                    250.0, args.txns / 2, args.seed);
      for (const auto& e : trace.entries()) {
        sim.schedule_after(e.offset,
                           [&cluster, &e] { cluster.submit(e.program, {}); });
      }

      const TimePoint t1{3'000'000};
      std::uint64_t backlog_at_t1 = 0;
      std::uint64_t lost = 0;
      ValidationTs acked_boundary = 0;
      sim.schedule_at(t1, [&] {
        if (auto* d = dynamic_cast<log::SimDiskLogStorage*>(
                cluster.node_b().disk())) {
          backlog_at_t1 = d->backlog();
        }
        if (auto* m = cluster.node_b().mirror_service()) {
          // Transactions the mirror acknowledged while A was alive: these
          // committed on the primary's side and exist only in B's memory
          // until the disk flush catches up.
          acked_boundary = m->applied_seq() + m->reorder_staged();
        }
        cluster.fail_node(cluster.node_a());
      });
      sim.schedule_at(t1 + Duration::millis_f(gap_ms), [&] {
        // Second failure: mirror-acked commits that the survivor has not
        // flushed yet are committed data lost. (Post-takeover commits wait
        // for their own flush, so an un-flushed suffix of those is merely
        // uncommitted, not lost.)
        auto* d =
            dynamic_cast<log::SimDiskLogStorage*>(cluster.node_b().disk());
        if (d) {
          const auto& records = d->records();
          for (std::size_t i = d->durable(); i < records.size(); ++i) {
            lost += records[i].is_commit() && records[i].seq <= acked_boundary;
          }
        }
        cluster.fail_node(cluster.node_b());
      });
      sim.run_until(t1 + Duration::millis_f(gap_ms) + 1_s);
      printer.add_row(gap_ms, {static_cast<double>(lost),
                               static_cast<double>(backlog_at_t1)});
      char label[64];
      std::snprintf(label, sizeof label, "C5 %s gap=%.0fms", disk.name, gap_ms);
      rep.begin_result(label);
      rep.field("gap_ms", gap_ms);
      rep.field("lost_committed_txns", static_cast<std::int64_t>(lost));
      rep.field("mirror_backlog_at_t1",
                static_cast<std::int64_t>(backlog_at_t1));
    }
    printer.print();
  }
  std::printf("  => the loss window closes once the survivor has flushed its "
              "buffered logs (claim C5).\n");
}

// ---------------------------------------------------------------- C6 ----

// Restart time vs committed-transaction count with the segmented log and
// checkpoint-coordinated truncation: as the history grows 10x, periodic
// checkpoints delete covered segments, so both the on-disk log and the
// restart replay stay bounded by the work since the last checkpoint.
void measure_segmented_restart(const exp::BenchArgs& args,
                               exp::BenchReport& rep) {
  std::printf("\n--- C6: segmented-log restart vs committed txns "
              "(checkpoint truncation) ---\n");
  exp::SeriesPrinter printer(
      "txns", {"segments", "truncated", "log[KB]", "recover[ms]", "replayed"});
  const auto dir =
      std::filesystem::temp_directory_path() / "rodain_seglog_bench";
  const std::size_t base = std::max<std::size_t>(args.txns / 10, 200);
  for (const std::size_t txns : {base, base * 3, base * 10}) {
    std::filesystem::remove_all(dir);
    const std::string log_dir = (dir / "log").string();
    const std::string ckpt_path = (dir / "db.ckpt").string();

    workload::DatabaseConfig db;
    db.num_objects = 2000;
    storage::ObjectStore store(db.num_objects + 16);
    storage::BPlusTree index;
    workload::load_database(db, store, index);

    log::SegmentedLogStorage::Options opt;
    opt.segment_bytes = 64 * 1024;
    auto seg = log::SegmentedLogStorage::open(log_dir, opt);
    if (!seg.is_ok()) {
      std::printf("segment dir open failed: %s\n",
                  seg.status().to_string().c_str());
      return;
    }
    log::SegmentedLogStorage& log_store = *seg.value();
    storage::CheckpointChain chain(ckpt_path);

    // The paper's write mix, applied and logged: checkpoint every quarter
    // of the run, then truncate segments the checkpoint covers.
    Rng rng(args.seed);
    const std::size_t ckpt_every = txns / 4 + 1;
    std::uint64_t truncated = 0;
    for (ValidationTs seq = 1; seq <= txns; ++seq) {
      for (int w = 0; w < 2; ++w) {
        const ObjectId oid = workload::oid_for(rng.next_below(db.num_objects));
        storage::Value v{
            std::string_view{"updated-payload-bytes-0123456789", 32}};
        log_store.append(log::Record::write_image(seq, oid, v));
        store.upsert(oid, v, seq);
      }
      log_store.append(log::Record::commit(seq, seq, seq * cc::kTsSpacing, 2));
      if (seq % 64 == 0) log_store.flush({});
      if (seq % ckpt_every == 0) {
        log_store.flush({});
        (void)chain.write(store, index, seq);
        truncated += log_store.truncate_upto(seq);
      }
    }
    log_store.flush({});
    const std::uint64_t log_bytes = log_store.disk_bytes();
    const std::size_t segments = log_store.segment_count();

    // Cold restart: checkpoint + surviving segments only.
    storage::ObjectStore recovered(db.num_objects + 16);
    storage::BPlusTree rec_index;
    const auto t0 = std::chrono::steady_clock::now();
    auto stats = log::recover_checkpoint_and_segments(ckpt_path, log_dir,
                                                      recovered, &rec_index);
    const auto t1 = std::chrono::steady_clock::now();
    const double recover_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (!stats.is_ok()) {
      std::printf("segmented recovery failed: %s\n",
                  stats.status().to_string().c_str());
      return;
    }
    printer.add_row(static_cast<double>(txns),
                    {static_cast<double>(segments),
                     static_cast<double>(truncated),
                     static_cast<double>(log_bytes) / 1024.0, recover_ms,
                     static_cast<double>(stats.value().committed_applied)});
    char label[48];
    std::snprintf(label, sizeof label, "C6 restart txns=%zu", txns);
    rep.begin_result(label);
    rep.field("committed_txns", static_cast<std::int64_t>(txns));
    rep.field("segments_live", static_cast<std::int64_t>(segments));
    rep.field("segments_truncated", static_cast<std::int64_t>(truncated));
    rep.field("log_disk_bytes", static_cast<std::int64_t>(log_bytes));
    rep.field("recovery_replay_ms", recover_ms);
    rep.field("txns_replayed",
              static_cast<std::int64_t>(stats.value().committed_applied));
  }
  printer.print();
  std::printf("  => checkpoint truncation keeps the surviving log (and so the "
              "restart replay) bounded as history grows 10x.\n");
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------- C7 ----

// Availability flight recorder: the same outages as C4, but measured by the
// AvailabilityTimeline — downtime per outage plus time-to-first-commit,
// anchored at the moment service was lost (the client-observed gap).
void measure_availability_timeline(const exp::BenchArgs& args,
                                   exp::BenchReport& rep) {
  std::printf("\n--- C7: availability flight recorder "
              "(downtime + time to first commit) ---\n");

  // Kill -> takeover on the virtual timeline: fully deterministic, so the
  // downtime and time-to-first-commit fields gate the trend check.
  {
    sim::Simulation sim;
    auto cluster_config = workload::PaperSetup::two_node(true);
    simdb::SimCluster cluster(sim, cluster_config);
    auto db = workload::PaperSetup::database();
    cluster.populate([&](storage::ObjectStore& s, storage::BPlusTree& i) {
      workload::load_database(db, s, i);
    });
    cluster.start();
    auto trace = workload::Trace::generate(
        db, workload::PaperSetup::workload(0.5), 300.0, args.txns, args.seed);
    for (const auto& e : trace.entries()) {
      sim.schedule_after(e.offset,
                         [&cluster, &e] { cluster.submit(e.program, {}); });
    }
    // Kill the primary halfway through the trace so the surviving half of
    // the load exercises the takeover primary (and stamps the outage's
    // time-to-first-commit).
    const TimePoint fail_at =
        TimePoint::origin() + Duration::micros(trace.duration().us / 2);
    sim.schedule_at(fail_at, [&] { cluster.fail_node(cluster.node_a()); });
    sim.run_until(TimePoint::origin() + trace.duration() + 5_s);

    const obs::AvailabilityTimeline& avail = cluster.availability();
    const double downtime_ms =
        static_cast<double>(avail.last_downtime_us(sim.now().us)) / 1000.0;
    const double ttfc_ms =
        avail.outages().empty()
            ? -1.0
            : static_cast<double>(
                  avail.outages().back().time_to_first_commit_us) /
                  1000.0;
    std::printf("  kill->takeover: outages=%zu downtime=%.2f ms "
                "time-to-first-commit=%.2f ms\n",
                avail.outages().size(), downtime_ms, ttfc_ms);
    rep.begin_result("C7 avail_kill_takeover");
    rep.field("outages", static_cast<std::int64_t>(avail.outages().size()));
    rep.field("downtime_ms", downtime_ms);
    rep.field("time_to_first_commit_ms", ttfc_ms);
    rep.field("total_downtime_ms", cluster.total_downtime().to_ms());
  }

  // Restart -> recovery on a real node: the outage opens when local
  // recovery starts and closes at the first post-restart commit. Wall
  // clock, so informational (not trend-gated).
  {
    const auto dir =
        std::filesystem::temp_directory_path() / "rodain_avail_bench";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    rt::NodeConfig config;
    config.log_path = (dir / "log").string();
    config.log_segment_bytes = 256 * 1024;
    config.checkpoint_path = (dir / "db.ckpt").string();
    const storage::Value zeros{std::string_view{"\0\0\0\0\0\0\0\0", 8}};
    {
      rt::Node node(config, "avail-gen1");
      node.store().upsert(1, zeros, 0);
      node.start_primary(LogMode::kDirectDisk);
      for (int i = 0; i < 200; ++i) {
        txn::TxnProgram p;
        p.add_to_field(1, 0, 1);
        p.relative_deadline = 5_s;
        node.execute(std::move(p));
      }
      node.stop();
    }
    rt::Node node(config, "avail-gen2");
    node.store().upsert(1, zeros, 0);
    auto stats = node.recover_from_local_state();
    if (!stats.is_ok()) {
      std::printf("  restart recovery failed: %s\n",
                  stats.status().to_string().c_str());
      std::filesystem::remove_all(dir);
      return;
    }
    node.start_primary(LogMode::kDirectDisk);
    txn::TxnProgram p;
    p.add_to_field(1, 0, 1);
    p.relative_deadline = 5_s;
    node.execute(std::move(p));
    const obs::AvailabilityTimeline avail = node.availability();
    const double downtime_ms =
        static_cast<double>(avail.last_downtime_us(0)) / 1000.0;
    const double ttfc_ms =
        static_cast<double>(avail.last_time_to_first_commit_us()) / 1000.0;
    std::printf(
        "  restart->recovery: %llu txns replayed, downtime=%.2f ms "
        "time-to-first-commit=%.2f ms\n",
        static_cast<unsigned long long>(stats.value().committed_applied),
        downtime_ms, ttfc_ms);
    rep.begin_result("C7 avail_restart_recovery");
    rep.field("txns_replayed",
              static_cast<std::int64_t>(stats.value().committed_applied));
    rep.field("downtime_ms", downtime_ms);
    rep.field("time_to_first_commit_ms", ttfc_ms);
    node.stop();
    std::filesystem::remove_all(dir);
  }
  std::printf("  => every outage carries its downtime and time-to-first-"
              "commit in BENCH_failover_recovery.json.\n");
}

// ---------------------------------------------------------------- C8 ----

// Instant restart (DESIGN.md §12): index the surviving log instead of
// replaying it, serve after the bare activation delay, and drain the
// deferred chains on first touch + background sweeps. Time-to-first-commit
// stays roughly flat as the log grows 10x, while the classical full replay
// grows linearly with it — and the instantly-restarted node commits real
// transactions during the whole window the classical node is still silent.
// Entirely on the virtual timeline, so every field is deterministic and
// trend-gated.
void measure_instant_restart(const exp::BenchArgs& args,
                             exp::BenchReport& rep) {
  std::printf("\n--- C8: instant restart vs full replay "
              "(time to first commit) ---\n");
  exp::SeriesPrinter printer(
      "txns", {"instant ttfc[ms]", "full ttfc[ms]", "commits@window",
               "deferred", "ondemand", "background"});
  const std::size_t base = std::max<std::size_t>(args.txns / 10, 200);
  struct ModeResult {
    double ttfc_ms{-1.0};
    double window_ms{0.0};
    std::uint64_t commits_in_window{0};
    std::uint64_t replayable{0};
    std::uint64_t deferred{0};
    std::uint64_t ondemand{0};
    std::uint64_t background{0};
  };
  for (const std::size_t txns : {base, base * 3, base * 10}) {
    auto run_mode = [&](bool instant) {
      ModeResult out;
      sim::Simulation sim;
      simdb::SimNodeConfig cfg;
      // Group-committed fast-ish disk so populating the log dominates
      // neither the virtual nor the real runtime; no checkpoint cadence,
      // so the whole history survives the crash (the point: the log grows).
      cfg.disk.coalesce_flushes = true;
      cfg.disk.seek_time = Duration::micros(100);
      cfg.instant_recovery = instant;
      simdb::SimNode node(sim, instant ? "instant" : "full", 1, cfg);
      workload::DatabaseConfig db;
      db.num_objects = 2000;
      workload::load_database(db, node.store(), node.index());
      node.start_as_primary(LogMode::kDirectDisk);

      // Populate: `txns` single-update transactions, one every 500us.
      Rng rng(args.seed);
      for (std::size_t i = 0; i < txns; ++i) {
        const ObjectId oid = workload::oid_for(rng.next_below(db.num_objects));
        sim.schedule_after(
            Duration::micros(500) * static_cast<std::int64_t>(i),
            [&node, oid] {
              txn::TxnProgram p;
              p.add_to_field(oid, 0, 1);
              p.relative_deadline = 5_s;
              node.submit(std::move(p), {});
            });
      }
      const TimePoint restart_at =
          TimePoint::origin() +
          Duration::micros(500) * static_cast<std::int64_t>(txns) + 2_s;
      TimePoint first_commit = TimePoint::max();
      Duration window = Duration::zero();
      Rng probe_rng(args.seed + 1);
      sim.schedule_at(restart_at, [&] {
        node.fail();
        const auto rstats = node.restart_from_disk(LogMode::kDirectDisk);
        out.replayable = rstats.replayable_txns;
        out.deferred = rstats.deferred_txns;
        // The comparison window: how long the classical replay keeps this
        // log's node silent. Probe with client load every 200us across it
        // (plus slack) — submissions while not serving are rejected, so
        // the first *committed* probe stamps the time to first commit.
        window = cfg.takeover_activation +
                 cfg.replay_cost_per_txn *
                     static_cast<std::int64_t>(rstats.replayable_txns);
        const std::size_t probes =
            static_cast<std::size_t>(window.us / 200) + 64;
        for (std::size_t k = 0; k < probes; ++k) {
          const ObjectId oid =
              workload::oid_for(probe_rng.next_below(db.num_objects));
          sim.schedule_after(
              Duration::micros(100 + 200 * static_cast<std::int64_t>(k)),
              [&, oid] {
                txn::TxnProgram p;
                p.add_to_field(oid, 0, 1);
                p.relative_deadline = 5_s;
                node.submit(std::move(p), [&](const simdb::TxnResult& r) {
                  if (r.outcome != TxnOutcome::kCommitted) return;
                  if (r.finish < first_commit) first_commit = r.finish;
                  if (r.finish - restart_at <= window) ++out.commits_in_window;
                });
              });
        }
      });
      sim.run_until(restart_at + 30_s);
      out.window_ms = window.to_ms();
      if (first_commit != TimePoint::max()) {
        out.ttfc_ms = (first_commit - restart_at).to_ms();
      }
      if (auto* r = node.recovery()) {
        out.ondemand = r->ondemand_applied();
        out.background = r->background_applied();
      }
      return out;
    };
    const ModeResult inst = run_mode(true);
    const ModeResult full = run_mode(false);
    printer.add_row(static_cast<double>(txns),
                    {inst.ttfc_ms, full.ttfc_ms,
                     static_cast<double>(inst.commits_in_window),
                     static_cast<double>(inst.deferred),
                     static_cast<double>(inst.ondemand),
                     static_cast<double>(inst.background)});
    const double window_s = inst.window_ms / 1000.0;
    char label[48];
    std::snprintf(label, sizeof label, "C8 instant_restart txns=%zu", txns);
    rep.begin_result(label);
    rep.field("committed_txns", static_cast<std::int64_t>(inst.replayable));
    rep.field("time_to_first_commit_ms", inst.ttfc_ms);
    rep.field("full_replay_ttfc_ms", full.ttfc_ms);
    rep.field("recovery_window_ms", inst.window_ms);
    rep.field("commits_during_recovery",
              static_cast<std::int64_t>(inst.commits_in_window));
    rep.field("throughput_during_recovery",
              window_s > 0.0
                  ? static_cast<double>(inst.commits_in_window) / window_s
                  : 0.0);
    rep.field("deferred_txns", static_cast<std::int64_t>(inst.deferred));
    rep.field("ondemand_replays", static_cast<std::int64_t>(inst.ondemand));
    rep.field("background_replays", static_cast<std::int64_t>(inst.background));
  }
  printer.print();
  std::printf("  => serving starts at the activation delay regardless of log "
              "size; the classical replay window grows with it (claim C8).\n");
}

}  // namespace

int main(int argc, char** argv) {
  const exp::BenchArgs args = exp::BenchArgs::parse(argc, argv);
  exp::BenchReport rep("failover_recovery");
  rep.set("txns", static_cast<std::int64_t>(args.txns));
  rep.set("seed", static_cast<std::int64_t>(args.seed));
  std::printf("=== Availability study: failover (C4) and sequential-failure "
              "loss window (C5) ===\n\n");
  measure_failover(args, rep);
  measure_recovery(args, rep);
  measure_sequential_failure(args, rep);
  measure_segmented_restart(args, rep);
  measure_availability_timeline(args, rep);
  measure_instant_restart(args, rep);
  rep.write_file();
  return 0;
}
