// Unit-level tests of the simulated node driver: admission, deadlines,
// displacement, soft vs firm semantics, and the non-RT reservation.
#include "rodain/simdb/sim_node.hpp"

#include <gtest/gtest.h>

namespace rodain::simdb {
namespace {

using namespace rodain::literals;

storage::Value zeros8() {
  return storage::Value{std::string_view{"\0\0\0\0\0\0\0\0", 8}};
}

struct NodeRig {
  sim::Simulation sim;
  SimNodeConfig config;
  std::unique_ptr<SimNode> node;
  std::vector<TxnResult> results;

  explicit NodeRig(std::function<void(SimNodeConfig&)> tweak = {}) {
    config.disk_enabled = false;
    config.engine.costs = engine::CostModel::zero();
    config.engine.costs.per_read = 100_us;
    config.engine.costs.per_update = 100_us;
    if (tweak) tweak(config);
    node = std::make_unique<SimNode>(sim, "t", 1, config);
    for (ObjectId oid = 1; oid <= 32; ++oid) node->store().upsert(oid, zeros8(), 0);
    node->start_as_primary(LogMode::kOff);
  }

  void submit(txn::TxnProgram p) {
    node->submit(std::move(p), [this](const TxnResult& r) { results.push_back(r); });
  }

  static txn::TxnProgram reader(ObjectId oid, Duration deadline,
                                Criticality crit = Criticality::kFirm) {
    txn::TxnProgram p;
    p.read(oid);
    p.with_deadline(deadline);
    p.with_criticality(crit);
    return p;
  }
};

TEST(SimNode, CommitsAndReportsLatency) {
  NodeRig rig;
  rig.submit(NodeRig::reader(1, 50_ms));
  rig.sim.run();
  ASSERT_EQ(rig.results.size(), 1u);
  EXPECT_EQ(rig.results[0].outcome, TxnOutcome::kCommitted);
  EXPECT_GT(rig.results[0].finish.us, 0);
  EXPECT_EQ(rig.node->counters().committed, 1u);
}

TEST(SimNode, FirmDeadlineExpiryAborts) {
  NodeRig rig([](SimNodeConfig& c) {
    c.engine.costs.per_read = Duration::millis(20);  // too slow for 10 ms
  });
  rig.submit(NodeRig::reader(1, 10_ms, Criticality::kFirm));
  rig.sim.run();
  ASSERT_EQ(rig.results.size(), 1u);
  EXPECT_EQ(rig.results[0].outcome, TxnOutcome::kMissedDeadline);
  EXPECT_EQ(rig.node->counters().missed_deadline, 1u);
}

TEST(SimNode, SoftDeadlineCompletesLate) {
  NodeRig rig([](SimNodeConfig& c) {
    c.engine.costs.per_read = Duration::millis(20);
  });
  rig.submit(NodeRig::reader(1, 10_ms, Criticality::kSoft));
  rig.sim.run();
  ASSERT_EQ(rig.results.size(), 1u);
  // Soft deadline: the transaction commits, late.
  EXPECT_EQ(rig.results[0].outcome, TxnOutcome::kCommitted);
  EXPECT_TRUE(rig.results[0].late);
  // Late completion still counts against the miss statistics.
  EXPECT_EQ(rig.node->counters().missed_deadline, 1u);
  EXPECT_EQ(rig.node->counters().committed, 0u);
}

TEST(SimNode, EdfOrdersExecution) {
  NodeRig rig;
  // Three transactions submitted together: later-submitted but
  // earlier-deadline work finishes first.
  rig.submit(NodeRig::reader(1, 90_ms));
  rig.submit(NodeRig::reader(2, 50_ms));
  rig.submit(NodeRig::reader(3, 10_ms));
  rig.sim.run();
  ASSERT_EQ(rig.results.size(), 3u);
  // Completion order follows deadlines: oid 3, 2, 1 (results arrive in
  // completion order; identify by deadline-implied latency ordering).
  EXPECT_LT(rig.results[0].finish, rig.results[1].finish);
  EXPECT_LT(rig.results[1].finish, rig.results[2].finish);
}

TEST(SimNode, AdmissionCapRejectsLowPriorityArrival) {
  NodeRig rig([](SimNodeConfig& c) {
    c.overload.max_active = 2;
    c.overload.miss_feedback = false;
    c.engine.costs.per_read = Duration::millis(5);
  });
  rig.submit(NodeRig::reader(1, 100_ms));
  rig.submit(NodeRig::reader(2, 100_ms));
  rig.submit(NodeRig::reader(3, 200_ms));  // cap reached: rejected
  rig.sim.run();
  ASSERT_EQ(rig.results.size(), 3u);
  EXPECT_EQ(rig.node->counters().overload_rejected, 1u);
  EXPECT_EQ(rig.node->counters().committed, 2u);
}

TEST(SimNode, DisplacementShedsLowerPriorityActive) {
  NodeRig rig([](SimNodeConfig& c) {
    c.overload.max_active = 2;
    c.overload.miss_feedback = false;
    c.overload.displace_on_admission = true;
    c.engine.costs.per_read = Duration::millis(5);
  });
  rig.submit(NodeRig::reader(1, 500_ms));  // low priority (late deadline)
  rig.submit(NodeRig::reader(2, 400_ms));
  rig.submit(NodeRig::reader(3, 20_ms));  // urgent: displaces #1
  rig.sim.run();
  ASSERT_EQ(rig.results.size(), 3u);
  EXPECT_EQ(rig.node->counters().overload_rejected, 1u);
  EXPECT_EQ(rig.node->counters().committed, 2u);
  // The urgent transaction committed; the victim was a 500 ms one.
  bool urgent_committed = false;
  for (const TxnResult& r : rig.results) {
    if (r.outcome == TxnOutcome::kCommitted && (r.finish - r.arrival) < 20_ms) {
      urgent_committed = true;
    }
  }
  EXPECT_TRUE(urgent_committed);
}

TimePoint run_reservation_scenario(double fraction, TimePoint& last_finish) {
  NodeRig rig([&](SimNodeConfig& c) {
    c.nonrt_fraction = fraction;
    c.overload.max_active = 1000;
    c.engine.costs.per_read = Duration::millis(2);
  });
  // Continuous firm load with one non-RT transaction in the middle.
  TimePoint nonrt_finish{};
  for (int i = 0; i < 50; ++i) rig.submit(NodeRig::reader(1 + i % 32, 500_ms));
  rig.node->submit(NodeRig::reader(1, 0_ms, Criticality::kNonRealTime),
                   [&](const TxnResult& r) {
                     EXPECT_EQ(r.outcome, TxnOutcome::kCommitted);
                     nonrt_finish = r.finish;
                   });
  for (int i = 0; i < 50; ++i) rig.submit(NodeRig::reader(1 + i % 32, 500_ms));
  rig.sim.run();
  EXPECT_EQ(rig.results.size(), 100u);
  last_finish = TimePoint::origin();
  for (const TxnResult& r : rig.results) {
    EXPECT_EQ(r.outcome, TxnOutcome::kCommitted);
    last_finish = std::max(last_finish, r.finish);
  }
  return nonrt_finish;
}

TEST(SimNode, NonRtReservationPreventsStarvation) {
  // Without the reservation the non-RT transaction runs only when no
  // real-time work is ready: it finishes dead last.
  TimePoint last_off{};
  const TimePoint starved = run_reservation_scenario(0.0, last_off);
  EXPECT_GE(starved, last_off);

  // With a 20% demand-based reservation it is served amid the firm load
  // (paper §2): strictly earlier than the tail of the schedule.
  TimePoint last_on{};
  const TimePoint served = run_reservation_scenario(0.2, last_on);
  EXPECT_LT(served, last_on);
  EXPECT_LT(served, starved);
}

TEST(SimNode, SubmitWhileDownIsRejected) {
  sim::Simulation sim;
  SimNodeConfig config;
  config.disk_enabled = false;
  SimNode node(sim, "down", 1, config);
  TxnResult result;
  node.submit(NodeRig::reader(1, 50_ms),
              [&](const TxnResult& r) { result = r; });
  sim.run();
  EXPECT_EQ(result.outcome, TxnOutcome::kSystemAborted);
}

// ---- restart_from_disk (DESIGN.md §12) -----------------------------------

struct RestartRig {
  sim::Simulation sim;
  SimNodeConfig config;
  std::unique_ptr<SimNode> node;

  explicit RestartRig(bool instant) {
    config.engine.costs = engine::CostModel::zero();
    config.instant_recovery = instant;
    node = std::make_unique<SimNode>(sim, "r", 1, config);
    for (ObjectId oid = 1; oid <= 32; ++oid) {
      node->store().upsert(oid, zeros8(), 0);
    }
    node->start_as_primary(LogMode::kDirectDisk);
    for (int i = 0; i < 40; ++i) {
      txn::TxnProgram p;
      p.add_to_field(static_cast<ObjectId>(1 + i % 32), 0, 1);
      p.with_deadline(500_ms);
      node->submit(std::move(p), [](const TxnResult&) {});
    }
    sim.run();  // every commit hits the simulated disk
    node->fail();
  }

  std::uint64_t store_total() {
    std::uint64_t total = 0;
    node->store().for_each([&](ObjectId, const storage::ObjectRecord& rec) {
      total += rec.value.read_u64(0);
    });
    return total;
  }
};

TEST(SimNode, RestartFromDiskInstantServesAfterActivation) {
  RestartRig rig(/*instant=*/true);
  const auto stats = rig.node->restart_from_disk(LogMode::kDirectDisk);
  EXPECT_TRUE(stats.instant);
  EXPECT_EQ(stats.replayable_txns, 40u);
  EXPECT_GT(stats.deferred_txns, 0u);
  // Serving is gated only on the activation delay — not on the log size.
  EXPECT_EQ(stats.time_to_serve.us, rig.config.takeover_activation.us);
  rig.sim.run();  // activation fires, then the sweeper drains the index
  EXPECT_TRUE(rig.node->serving());
  EXPECT_FALSE(rig.node->recovering());
  ASSERT_NE(rig.node->recovery(), nullptr);
  EXPECT_EQ(rig.node->recovery()->background_applied() +
                rig.node->recovery()->ondemand_applied(),
            rig.node->recovery()->deferred_writes());
  EXPECT_EQ(rig.store_total(), 40u);
}

TEST(SimNode, RestartFromDiskFullReplayDelaysServing) {
  RestartRig rig(/*instant=*/false);
  const auto stats = rig.node->restart_from_disk(LogMode::kDirectDisk);
  EXPECT_FALSE(stats.instant);
  EXPECT_EQ(stats.replayable_txns, 40u);
  // The classical restart pays for every logged transaction before serving.
  EXPECT_EQ(stats.time_to_serve.us,
            rig.config.takeover_activation.us +
                rig.config.replay_cost_per_txn.us * 40);
  EXPECT_FALSE(rig.node->serving());
  rig.sim.run();
  EXPECT_TRUE(rig.node->serving());
  EXPECT_EQ(rig.store_total(), 40u);
}

}  // namespace
}  // namespace rodain::simdb
