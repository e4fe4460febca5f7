// End-to-end tests of the simulated RODAIN pair: normal two-node commits,
// direct-disk mode, logging off, failover, rejoin, and data survival.
#include <gtest/gtest.h>

#include <map>

#include "rodain/exp/session.hpp"
#include "rodain/simdb/sim_cluster.hpp"
#include "rodain/workload/calibration.hpp"

namespace rodain {
namespace {

using namespace rodain::literals;
using workload::PaperSetup;

exp::SessionConfig small_session(simdb::SimClusterConfig cluster,
                                 double rate_tps, double write_fraction,
                                 std::size_t count = 500) {
  exp::SessionConfig c;
  c.cluster = std::move(cluster);
  c.database = PaperSetup::database();
  c.database.num_objects = 2000;  // small DB for fast tests
  c.cluster.node.store_capacity_hint = 2000;
  c.workload = PaperSetup::workload(write_fraction);
  c.arrival_rate_tps = rate_tps;
  c.txn_count = count;
  c.seed = 7;
  return c;
}

TEST(SimCluster, TwoNodeLightLoadCommitsEverything) {
  auto result =
      exp::run_session(small_session(PaperSetup::two_node(true), 50, 0.5));
  EXPECT_EQ(result.counters.submitted, 500u);
  EXPECT_EQ(result.counters.committed, 500u);
  EXPECT_EQ(result.counters.missed_total(), 0u);
}

TEST(SimCluster, TwoNodeCommitLatencyIncludesRoundTrip) {
  auto result =
      exp::run_session(small_session(PaperSetup::two_node(true), 50, 0.5));
  // Commit path: CPU work (~3-4 ms) + 1 ms RTT. Everything well under 10 ms
  // at this load, but strictly above the no-log latency.
  auto no_log =
      exp::run_session(small_session(PaperSetup::no_logging(), 50, 0.5));
  EXPECT_GT(result.commit_latency.mean(), no_log.commit_latency.mean());
  EXPECT_LT(result.commit_latency.quantile(0.99), 30_ms);
}

TEST(SimCluster, SingleNodeDiskSaturatesEarly) {
  // The disk serializes ~8 ms per commit: at 200 txn/s a lone node must
  // shed a large share; the two-node system handles it.
  auto lone = exp::run_session(
      small_session(PaperSetup::single_node(true), 200, 0.5, 1000));
  auto pair_result = exp::run_session(
      small_session(PaperSetup::two_node(true), 200, 0.5, 1000));
  EXPECT_GT(lone.miss_ratio(), 0.3);
  EXPECT_LT(pair_result.miss_ratio(), lone.miss_ratio() / 2);
}

TEST(SimCluster, NoLogsBeatsEverything) {
  auto no_log = exp::run_session(
      small_session(PaperSetup::no_logging(), 250, 0.5, 1000));
  auto lone = exp::run_session(
      small_session(PaperSetup::single_node(true), 250, 0.5, 1000));
  EXPECT_LE(no_log.miss_ratio(), lone.miss_ratio());
}

TEST(SimCluster, MirrorKeepsAnIdenticalCopy) {
  sim::Simulation sim;
  auto config = PaperSetup::two_node(true);
  config.node.store_capacity_hint = 500;
  simdb::SimCluster cluster(sim, config);
  workload::DatabaseConfig db;
  db.num_objects = 500;
  cluster.populate([&](storage::ObjectStore& s, storage::BPlusTree& i) {
    workload::load_database(db, s, i);
  });
  cluster.start();

  workload::Trace trace =
      workload::Trace::generate(db, PaperSetup::workload(1.0), 100, 300, 11);
  std::size_t committed = 0;
  for (const auto& e : trace.entries()) {
    sim.schedule_after(e.offset, [&] {
      cluster.submit(e.program, [&](const simdb::TxnResult& r) {
        committed += (r.outcome == TxnOutcome::kCommitted);
      });
    });
  }
  sim.run_until(TimePoint::origin() + trace.duration() + 5_s);
  ASSERT_GT(committed, 0u);

  // Every object on the primary must equal the mirror's copy.
  std::size_t checked = 0;
  cluster.node_a().store().for_each(
      [&](ObjectId id, const storage::ObjectRecord& rec) {
        const storage::ObjectRecord* mirror_rec =
            cluster.node_b().store().find(id);
        ASSERT_NE(mirror_rec, nullptr) << id;
        EXPECT_EQ(mirror_rec->value, rec.value) << id;
        ++checked;
      });
  EXPECT_EQ(checked, 500u);
}

TEST(SimCluster, FailoverMirrorTakesOver) {
  sim::Simulation sim;
  auto config = PaperSetup::two_node(true);
  config.node.store_capacity_hint = 500;
  simdb::SimCluster cluster(sim, config);
  workload::DatabaseConfig db;
  db.num_objects = 500;
  cluster.populate([&](storage::ObjectStore& s, storage::BPlusTree& i) {
    workload::load_database(db, s, i);
  });
  cluster.start();

  // Steady trickle of transactions for 10 s; primary dies at t=3 s.
  workload::Trace trace =
      workload::Trace::generate(db, PaperSetup::workload(0.5), 50, 500, 23);
  TxnCounters seen;
  for (const auto& e : trace.entries()) {
    sim.schedule_after(e.offset, [&] {
      cluster.submit(e.program, [&](const simdb::TxnResult& r) {
        ++seen.submitted;
        if (r.outcome == TxnOutcome::kCommitted) ++seen.committed;
        if (r.outcome == TxnOutcome::kSystemAborted) ++seen.system_aborted;
      });
    });
  }
  sim.schedule_at(TimePoint{3'000'000},
                  [&] { cluster.fail_node(cluster.node_a()); });
  sim.run_until(TimePoint::origin() + trace.duration() + 5_s);

  // The mirror must have taken over and served the tail of the load.
  EXPECT_EQ(cluster.node_b().role(), NodeRole::kPrimaryAlone);
  EXPECT_EQ(cluster.node_a().role(), NodeRole::kDown);
  ASSERT_TRUE(cluster.last_failover_gap().has_value());
  // Detection (watchdog 200 ms) + activation (1 ms) bounds the outage.
  EXPECT_LT(cluster.last_failover_gap()->to_ms(), 400.0);
  EXPECT_GT(seen.committed, 400u);  // most of the 500 still committed
  EXPECT_GT(cluster.node_b().counters().committed, 0u);
}

TEST(SimCluster, RecoveredNodeRejoinsAsMirror) {
  sim::Simulation sim;
  auto config = PaperSetup::two_node(true);
  config.node.store_capacity_hint = 300;
  simdb::SimCluster cluster(sim, config);
  workload::DatabaseConfig db;
  db.num_objects = 300;
  cluster.populate([&](storage::ObjectStore& s, storage::BPlusTree& i) {
    workload::load_database(db, s, i);
  });
  cluster.start();

  workload::Trace trace =
      workload::Trace::generate(db, PaperSetup::workload(0.5), 50, 600, 31);
  std::size_t committed = 0;
  for (const auto& e : trace.entries()) {
    sim.schedule_after(e.offset, [&] {
      cluster.submit(e.program, [&](const simdb::TxnResult& r) {
        committed += (r.outcome == TxnOutcome::kCommitted);
      });
    });
  }
  sim.schedule_at(TimePoint{3'000'000},
                  [&] { cluster.fail_node(cluster.node_a()); });
  sim.schedule_at(TimePoint{6'000'000},
                  [&] { cluster.recover_node(cluster.node_a()); });
  sim.run_until(TimePoint::origin() + trace.duration() + 5_s);

  // The failed node is back as Mirror ("the failed node will always become
  // a Mirror Node when it recovers", paper §2) and B serves with logs
  // shipped to it again.
  EXPECT_EQ(cluster.node_a().role(), NodeRole::kMirror);
  EXPECT_EQ(cluster.node_b().role(), NodeRole::kPrimaryWithMirror);
  EXPECT_GT(committed, 450u);

  // After rejoin the copies must converge.
  std::size_t mismatches = 0;
  cluster.node_b().store().for_each(
      [&](ObjectId id, const storage::ObjectRecord& rec) {
        const storage::ObjectRecord* copy = cluster.node_a().store().find(id);
        if (!copy || !(copy->value == rec.value)) ++mismatches;
      });
  EXPECT_EQ(mismatches, 0u);
}

TEST(SimCluster, CommittedDataSurvivesFailover) {
  // Commit a known update, then kill the primary; the value must be
  // readable from the survivor's store.
  sim::Simulation sim;
  auto config = PaperSetup::two_node(true);
  config.node.store_capacity_hint = 100;
  simdb::SimCluster cluster(sim, config);
  workload::DatabaseConfig db;
  db.num_objects = 100;
  cluster.populate([&](storage::ObjectStore& s, storage::BPlusTree& i) {
    workload::load_database(db, s, i);
  });
  cluster.start();

  bool committed = false;
  sim.schedule_at(TimePoint{100'000}, [&] {
    txn::TxnProgram p;
    p.add_to_field(workload::oid_for(7), workload::kCounterOffset, 41);
    p.with_deadline(150_ms);
    cluster.submit(std::move(p), [&](const simdb::TxnResult& r) {
      committed = (r.outcome == TxnOutcome::kCommitted);
    });
  });
  sim.schedule_at(TimePoint{1'000'000},
                  [&] { cluster.fail_node(cluster.node_a()); });
  sim.run_until(TimePoint{5'000'000});

  ASSERT_TRUE(committed);
  EXPECT_EQ(cluster.node_b().role(), NodeRole::kPrimaryAlone);
  const storage::ObjectRecord* rec =
      cluster.node_b().store().find(workload::oid_for(7));
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->value.read_u64(workload::kCounterOffset), 41u);
}

TEST(SimCluster, SubmissionsDuringOutageAreRejected) {
  sim::Simulation sim;
  auto config = PaperSetup::two_node(true);
  config.node.store_capacity_hint = 100;
  simdb::SimCluster cluster(sim, config);
  workload::DatabaseConfig db;
  db.num_objects = 100;
  cluster.populate([&](storage::ObjectStore& s, storage::BPlusTree& i) {
    workload::load_database(db, s, i);
  });
  cluster.start();

  sim.schedule_at(TimePoint{1'000'000},
                  [&] { cluster.fail_node(cluster.node_a()); });
  TxnOutcome outage_outcome = TxnOutcome::kCommitted;
  // 50 ms after the crash the watchdog (200 ms) has not fired yet: no
  // serving node.
  sim.schedule_at(TimePoint{1'050'000}, [&] {
    txn::TxnProgram p;
    p.read(workload::oid_for(1));
    cluster.submit(std::move(p), [&](const simdb::TxnResult& r) {
      outage_outcome = r.outcome;
    });
  });
  sim.run_until(TimePoint{3'000'000});
  EXPECT_EQ(outage_outcome, TxnOutcome::kSystemAborted);
  EXPECT_GT(cluster.total_downtime(), 100_ms);
}


// ---- the replica controller acts at its due times ------------------------

/// A two-node pair over a fault-free FaultyLink with 100 objects.
struct DuePair {
  sim::Simulation sim;
  std::unique_ptr<simdb::SimCluster> cluster;

  explicit DuePair(const std::function<void(simdb::SimNodeConfig&)>& tweak) {
    auto config = PaperSetup::two_node(false);
    config.node.store_capacity_hint = 100;
    config.faults = net::FaultyLink::Options{};
    tweak(config.node);
    cluster = std::make_unique<simdb::SimCluster>(sim, config);
    workload::DatabaseConfig db;
    db.num_objects = 100;
    cluster->populate([&](storage::ObjectStore& s, storage::BPlusTree& i) {
      workload::load_database(db, s, i);
    });
    cluster->start();
  }

  /// Runs in 100 us steps until `done` holds (at most `limit`); returns
  /// the time it first held.
  TimePoint run_until(const std::function<bool()>& done, Duration limit) {
    const TimePoint end = sim.now() + limit;
    while (!done() && sim.now() < end) {
      sim.run_until(sim.now() + Duration::micros(100));
    }
    return sim.now();
  }
};

TEST(SimCluster, AckTimeoutEscalatesAtItsDueTime) {
  // The beat is 50 times the ack timeout: a check made only on beats would
  // escalate 870 ms after the submit.
  DuePair pair([](simdb::SimNodeConfig& c) {
    c.heartbeat_interval = 1_s;
    c.watchdog_timeout = 10_s;  // out of the way
    c.ack_timeout = 20_ms;
  });
  simdb::SimNode& a = pair.cluster->node_a();
  pair.sim.run_until(TimePoint::origin() + 130_ms);
  pair.cluster->faulty_link()->set_partition(1, true);  // b -> a
  const TimePoint submitted = pair.sim.now();
  txn::TxnProgram p;
  p.add_to_field(workload::oid_for(1), 0, 1);
  p.with_deadline(5_s);
  pair.cluster->submit(std::move(p), {});
  const TimePoint alone = pair.run_until(
      [&] { return a.role() == NodeRole::kPrimaryAlone; }, 2_s);
  ASSERT_EQ(a.role(), NodeRole::kPrimaryAlone);
  EXPECT_GE(alone - submitted, 20_ms);
  EXPECT_LT(alone - submitted, 40_ms) << (alone - submitted).us << " us";
}

TEST(SimCluster, DisconnectGraceEscalatesWhenItEnds) {
  DuePair pair([](simdb::SimNodeConfig& c) {
    c.heartbeat_interval = 1_s;
    c.watchdog_timeout = 10_s;
    c.disconnect_grace = 50_ms;
  });
  simdb::SimNode& a = pair.cluster->node_a();
  pair.sim.run_until(TimePoint::origin() + 130_ms);
  pair.cluster->faulty_link()->sever();
  const TimePoint severed = pair.sim.now();
  const TimePoint alone = pair.run_until(
      [&] { return a.role() == NodeRole::kPrimaryAlone; }, 2_s);
  ASSERT_EQ(a.role(), NodeRole::kPrimaryAlone);
  EXPECT_GE(alone - severed, 50_ms);
  EXPECT_LT(alone - severed, 60_ms) << (alone - severed).us << " us";
}

TEST(SimCluster, MirrorTakesOverAtWatchdogExpiry) {
  // The watchdog is not a whole number of beats: a check made only on
  // beats would serve 371 ms after the kill instead of about 172.
  DuePair pair([](simdb::SimNodeConfig& c) {
    c.heartbeat_interval = 250_ms;
    c.watchdog_timeout = 300_ms;
  });
  simdb::SimNode& b = pair.cluster->node_b();
  pair.sim.run_until(TimePoint::origin() + 1130_ms);
  pair.cluster->fail_node(pair.cluster->node_a());
  ASSERT_NE(b.mirror_service(), nullptr);
  const TimePoint heard = b.mirror_service()->serving_last_heard();
  const TimePoint killed = pair.sim.now();
  const TimePoint serving = pair.run_until([&] { return b.serving(); }, 2_s);
  ASSERT_TRUE(b.serving());
  const simdb::SimNodeConfig& c = PaperSetup::node(false);
  EXPECT_GE(serving - heard, 300_ms);
  EXPECT_LE(serving - heard, 300_ms + c.takeover_activation + 1_ms)
      << (serving - killed).us << " us after the kill";
}

TEST(SimCluster, SplitBrainLoserDropsItsDeferredRedo) {
  // a logs alone through a partition, crashes, and restarts instantly: it
  // serves with deferred redo while b, which took over, commits further.
  // At the heal a has the lower height and rejoins from b. Its redo index
  // must die with the demotion, or a later takeover replays a's old
  // after-images over the history it installed from b.
  DuePair pair([](simdb::SimNodeConfig& c) {
    c.heartbeat_interval = 20_ms;
    c.watchdog_timeout = 100_ms;
    c.ack_timeout = 50_ms;
    c.instant_recovery = true;
    c.recovery_sweep_interval = 10_s;  // the index outlives the test
  });
  simdb::SimNode& a = pair.cluster->node_a();
  simdb::SimNode& b = pair.cluster->node_b();
  net::FaultyLink& link = *pair.cluster->faulty_link();
  int committed = 0;
  const auto add = [&](simdb::SimNode& node, ObjectId k, std::uint64_t n) {
    txn::TxnProgram p;
    p.add_to_field(workload::oid_for(k), workload::kCounterOffset, n);
    p.with_deadline(5_s);
    node.submit(std::move(p), [&](const simdb::TxnResult& r) {
      committed += r.outcome == TxnOutcome::kCommitted ? 1 : 0;
    });
  };
  const auto value = [](simdb::SimNode& node, ObjectId k) {
    return node.store()
        .find(workload::oid_for(k))
        ->value.read_u64(workload::kCounterOffset);
  };
  pair.sim.run_until(TimePoint::origin() + 100_ms);
  link.set_partition(0, true);
  link.set_partition(1, true);
  for (ObjectId k = 1; k <= 5; ++k) add(a, k, 100);
  pair.run_until([&] { return committed == 5 && b.serving(); }, 2_s);
  ASSERT_EQ(committed, 5);
  ASSERT_EQ(a.role(), NodeRole::kPrimaryAlone);
  ASSERT_TRUE(b.serving());

  a.fail();
  a.restart_from_disk(LogMode::kDirectDisk);
  for (int i = 0; i < 20; ++i) add(b, 1 + i % 5, 1);
  pair.run_until([&] { return committed == 25 && a.serving(); }, 2_s);
  ASSERT_EQ(committed, 25);
  ASSERT_TRUE(a.serving());
  ASSERT_TRUE(a.recovering());
  link.set_partition(0, false);
  link.set_partition(1, false);
  pair.run_until(
      [&] {
        return a.role() == NodeRole::kMirror &&
               b.role() == NodeRole::kPrimaryWithMirror;
      },
      2_s);
  ASSERT_EQ(a.role(), NodeRole::kMirror);
  ASSERT_EQ(b.role(), NodeRole::kPrimaryWithMirror);
  EXPECT_EQ(a.recovery(), nullptr);
  std::size_t mismatches = 0;
  b.store().for_each([&](ObjectId id, const storage::ObjectRecord& rec) {
    const storage::ObjectRecord* copy = a.store().find(id);
    if (!copy || !(copy->value == rec.value)) ++mismatches;
  });
  EXPECT_EQ(mismatches, 0u);

  // b dies; a takes over and touches every object its old log wrote.
  std::map<ObjectId, std::uint64_t> expected;
  for (ObjectId k = 1; k <= 5; ++k) expected[k] = value(b, k) + 1;
  pair.cluster->fail_node(b);
  pair.run_until([&] { return a.serving(); }, 1_s);
  ASSERT_TRUE(a.serving());
  for (ObjectId k = 1; k <= 5; ++k) add(a, k, 1);
  pair.run_until([&] { return committed == 30; }, 1_s);
  ASSERT_EQ(committed, 30);
  for (ObjectId k = 1; k <= 5; ++k) {
    EXPECT_EQ(value(a, k), expected[k]) << "object " << k;
  }
}

}  // namespace
}  // namespace rodain
