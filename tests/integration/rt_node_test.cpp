// End-to-end tests of the real-time runtime: real threads, real TCP
// between a primary and a mirror in one process.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "rodain/log/recovery.hpp"

#include "rodain/db/database.hpp"
#include "rodain/net/tcp.hpp"
#include "rodain/obs/obs.hpp"
#include "rodain/rt/node.hpp"
#include "rodain/storage/ckpt_manifest.hpp"
#include "rodain/workload/number_translation.hpp"

namespace rodain {
namespace {

using namespace rodain::literals;

storage::Value val(std::string_view s) { return storage::Value{s}; }
storage::Value zeros8() {
  return storage::Value{std::string_view{"\0\0\0\0\0\0\0\0", 8}};
}

/// A temp path unique to this process and test case: ctest -j runs each
/// case in its own process, and a shared name would race.
std::filesystem::path unique_temp_path(const std::string& stem) {
  return std::filesystem::temp_directory_path() /
         (stem + "_" + std::to_string(::getpid()) + "_" +
          ::testing::UnitTest::GetInstance()->current_test_info()->name());
}

TEST(RtNode, SingleNodeCommitAndRead) {
  rt::NodeConfig config;
  rt::Node node(config, "solo");
  node.store().upsert(1, val("initial"), 0);
  node.start_primary(LogMode::kOff);

  txn::TxnProgram p;
  p.set_value(1, val("updated"));
  p.relative_deadline = 5_s;
  auto info = node.execute(std::move(p));
  EXPECT_EQ(info.outcome, TxnOutcome::kCommitted);

  auto value = node.get(1);
  ASSERT_TRUE(value.is_ok());
  EXPECT_EQ(value.value(), val("updated"));
  EXPECT_EQ(node.counters().committed, 2u);  // the update + the read
  node.stop();
}

TEST(RtNode, CounterIncrementsAreAtomic) {
  rt::NodeConfig config;
  config.worker_threads = 2;
  config.overload.max_active = 10000;  // admit the whole burst
  rt::Node node(config, "solo");
  node.store().upsert(1, zeros8(), 0);
  node.start_primary(LogMode::kOff);

  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  const int kTxns = 200;
  for (int i = 0; i < kTxns; ++i) {
    txn::TxnProgram p;
    p.add_to_field(1, 0, 1);
    p.relative_deadline = 5_s;
    node.submit(std::move(p), [&](const rt::CommitInfo& info) {
      EXPECT_EQ(info.outcome, TxnOutcome::kCommitted);
      std::lock_guard lock(mu);
      ++done;
      cv.notify_all();
    });
  }
  std::unique_lock lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                          [&] { return done == kTxns; }));
  lock.unlock();

  auto value = node.get(1);
  ASSERT_TRUE(value.is_ok());
  EXPECT_EQ(value.value().read_u64(0), static_cast<std::uint64_t>(kTxns));
  node.stop();
}

TEST(RtNode, DirectDiskLoggingSurvivesRestart) {
  const std::string log_path = unique_temp_path("rodain_rt_restart").string();
  std::filesystem::remove(log_path);
  {
    rt::NodeConfig config;
    config.log_path = log_path;
    rt::Node node(config, "durable");
    node.store().upsert(1, zeros8(), 0);
    node.start_primary(LogMode::kDirectDisk);
    txn::TxnProgram p;
    p.add_to_field(1, 0, 42);
    p.relative_deadline = 5_s;
    ASSERT_EQ(node.execute(std::move(p)).outcome, TxnOutcome::kCommitted);
    node.stop();
  }
  // Recover from the log alone.
  storage::ObjectStore recovered;
  recovered.upsert(1, zeros8(), 0);
  auto stats = log::recover_from_file(log_path, recovered);
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  EXPECT_EQ(stats.value().committed_applied, 1u);
  EXPECT_EQ(recovered.find(1)->value.read_u64(0), 42u);
  std::filesystem::remove(log_path);
}

struct TcpPair {
  std::unique_ptr<net::TcpServer> server;
  std::unique_ptr<net::TcpChannel> client_end;
  std::unique_ptr<net::TcpChannel> server_end;

  static TcpPair make() {
    TcpPair p;
    std::mutex mu;
    std::condition_variable cv;
    auto server =
        net::TcpServer::listen(0, [&](std::unique_ptr<net::TcpChannel> ch) {
          std::lock_guard lock(mu);
          p.server_end = std::move(ch);
          cv.notify_all();
        });
    p.server = std::move(server).value();
    p.client_end =
        std::move(
            net::TcpChannel::connect("127.0.0.1", p.server->port(), 2_s))
            .value();
    std::unique_lock lock(mu);
    cv.wait_for(lock, std::chrono::seconds(2),
                [&] { return p.server_end != nullptr; });
    return p;
  }
};

TEST(RtNode, TwoNodeLogShippingOverTcp) {
  auto tcp = TcpPair::make();

  rt::NodeConfig config;
  rt::Node primary(config, "primary");
  rt::Node mirror(config, "mirror");
  for (ObjectId oid = 1; oid <= 100; ++oid) {
    primary.store().upsert(oid, zeros8(), 0);
    mirror.store().upsert(oid, zeros8(), 0);
  }

  mirror.start_mirror(*tcp.server_end);
  primary.start_primary(LogMode::kMirror, tcp.client_end.get());
  tcp.server_end->start();
  tcp.client_end->start();

  for (int i = 0; i < 50; ++i) {
    txn::TxnProgram p;
    p.add_to_field(static_cast<ObjectId>(1 + i % 100), 0, 1);
    p.relative_deadline = 5_s;
    ASSERT_EQ(primary.execute(std::move(p)).outcome, TxnOutcome::kCommitted)
        << i;
  }
  EXPECT_EQ(primary.counters().committed, 50u);

  // The mirror applied everything the primary committed.
  for (int waited = 0; waited < 100 && mirror.mirror_applied_seq() < 50;
       ++waited) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(mirror.mirror_applied_seq(), 50u);
  std::uint64_t total = 0;
  mirror.store().for_each([&](ObjectId, const storage::ObjectRecord& rec) {
    total += rec.value.read_u64(0);
  });
  EXPECT_EQ(total, 50u);

  primary.stop();
  mirror.stop();
}

TEST(RtNode, MirrorTakesOverWhenPrimaryStops) {
  auto tcp = TcpPair::make();

  rt::NodeConfig config;
  config.watchdog_timeout = 300_ms;
  config.heartbeat_interval = 50_ms;
  rt::Node primary(config, "primary");
  rt::Node mirror(config, "mirror");
  primary.store().upsert(1, zeros8(), 0);
  mirror.store().upsert(1, zeros8(), 0);

  mirror.start_mirror(*tcp.server_end);
  primary.start_primary(LogMode::kMirror, tcp.client_end.get());
  tcp.server_end->start();
  tcp.client_end->start();

  txn::TxnProgram p;
  p.add_to_field(1, 0, 7);
  p.relative_deadline = 5_s;
  ASSERT_EQ(primary.execute(std::move(p)).outcome, TxnOutcome::kCommitted);

  // Primary dies; the TCP link drops; the mirror's watchdog fires.
  primary.stop();
  tcp.client_end->close();

  for (int waited = 0; waited < 300 && !mirror.serving(); ++waited) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(mirror.serving());

  // The committed value survived and the survivor serves reads and writes.
  auto value = mirror.get(1);
  ASSERT_TRUE(value.is_ok());
  EXPECT_EQ(value.value().read_u64(0), 7u);
  txn::TxnProgram q;
  q.add_to_field(1, 0, 1);
  q.relative_deadline = 5_s;
  EXPECT_EQ(mirror.execute(std::move(q)).outcome, TxnOutcome::kCommitted);
  mirror.stop();
}

TEST(RtNode, RejoinIsServedFromDiskArtifacts) {
  // A restarted peer rejoins via checkpoint bytes + surviving log segments
  // (DESIGN.md §12) instead of a live store encode: the primary's commit
  // path never pauses to serialize its state. Records arriving while the
  // snapshot assembles stage in the mirror's held reorderer and apply after
  // the snapshot boundary installs.
  obs::ObsConfig obs_config;
  obs_config.enabled = true;
  obs::init(obs_config);
  const std::uint64_t disk_serves_before =
      obs::metrics().counter("repl.snapshots_from_disk").value();

  const auto dir = unique_temp_path("rodain_rejoin_disk");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto tcp = TcpPair::make();

  rt::NodeConfig config;
  config.log_path = (dir / "segments").string();
  config.log_segment_bytes = 2048;
  config.checkpoint_path = (dir / "db.ckpt").string();
  rt::Node primary(config, "primary");
  for (ObjectId oid = 1; oid <= 20; ++oid) {
    primary.store().upsert(oid, zeros8(), 0);
  }

  primary.start_primary(LogMode::kDirectDisk, tcp.client_end.get());
  tcp.client_end->start();
  auto commit_n = [&](int n) {
    for (int i = 0; i < n; ++i) {
      txn::TxnProgram p;
      p.add_to_field(static_cast<ObjectId>(1 + i % 20), 0, 1);
      p.relative_deadline = 5_s;
      ASSERT_EQ(primary.execute(std::move(p)).outcome, TxnOutcome::kCommitted);
    }
  };
  commit_n(30);
  ASSERT_TRUE(primary.write_checkpoint().is_ok());  // covers seq 1..30
  commit_n(10);  // the tail lives only in the segments + writer tail

  // The restarted peer joins with an empty store: everything it learns
  // comes from the disk artifacts and the streamed catch-up.
  rt::NodeConfig rc;
  rt::Node rejoiner(rc, "rejoiner");
  rejoiner.start_rejoin(*tcp.server_end);
  tcp.server_end->start();
  commit_n(5);  // reaches the joiner as catch-up or, after the switch, live

  for (int waited = 0; waited < 500 && rejoiner.mirror_applied_seq() < 45;
       ++waited) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(rejoiner.mirror_applied_seq(), 45u);
  EXPECT_EQ(primary.role(), NodeRole::kPrimaryWithMirror);
  EXPECT_EQ(obs::metrics().counter("repl.snapshots_from_disk").value(),
            disk_serves_before + 1);

  std::uint64_t total = 0;
  rejoiner.store().for_each([&](ObjectId, const storage::ObjectRecord& rec) {
    total += rec.value.read_u64(0);
  });
  EXPECT_EQ(total, 45u);

  primary.stop();
  rejoiner.stop();
  std::filesystem::remove_all(dir);
}

/// Starts a kMirror pair over `tcp` with `objects` zeroed counters on both.
void start_pair(TcpPair& tcp, rt::Node& primary, rt::Node& mirror,
                ObjectId objects) {
  for (ObjectId oid = 1; oid <= objects; ++oid) {
    primary.store().upsert(oid, zeros8(), 0);
    mirror.store().upsert(oid, zeros8(), 0);
  }
  mirror.start_mirror(*tcp.server_end);
  primary.start_primary(LogMode::kMirror, tcp.client_end.get());
  tcp.server_end->start();
  tcp.client_end->start();
}

txn::TxnProgram increment(ObjectId oid) {
  txn::TxnProgram p;
  p.add_to_field(oid, 0, 1);
  p.relative_deadline = 10_s;
  return p;
}

TEST(RtNode, OneCheckpointChainAcrossRoles) {
  // Every role writes the same chain: the mirror's cadence starts it while
  // the mirror applies, the survivor's cadence extends it after the
  // takeover, and a node restarted from the directory recovers the
  // survivor's store.
  const auto dir = unique_temp_path("rodain_chain_roles");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir / "primary");
  std::filesystem::create_directories(dir / "mirror");
  auto tcp = TcpPair::make();
  rt::NodeConfig config;
  config.watchdog_timeout = 300_ms;
  config.heartbeat_interval = 50_ms;
  config.checkpoint_interval = 20_ms;
  config.checkpoint_delta_limit = 1000;
  config.log_segment_bytes = 4096;
  rt::NodeConfig pc = config;
  pc.log_path = (dir / "primary" / "segments").string();
  pc.checkpoint_path = (dir / "primary" / "db.ckpt").string();
  rt::NodeConfig mc = config;
  mc.log_path = (dir / "mirror" / "segments").string();
  mc.checkpoint_path = (dir / "mirror" / "db.ckpt").string();
  rt::Node primary(pc, "primary");
  rt::Node mirror(mc, "mirror");
  start_pair(tcp, primary, mirror, 50);

  const auto chain = [&] {
    auto m = storage::read_manifest_file(
        storage::manifest_path_for(mc.checkpoint_path));
    return m.is_ok() ? m.value() : storage::CkptManifest{};
  };
  int commits = 0;
  const auto within = [](std::chrono::seconds limit) {
    return [end = std::chrono::steady_clock::now() + limit] {
      return std::chrono::steady_clock::now() < end;
    };
  };
  const auto commit_some = [&](rt::Node& node) {
    for (int i = 0; i < 10; ++i, ++commits) {
      ASSERT_EQ(node.execute(increment(1 + commits % 50)).outcome,
                TxnOutcome::kCommitted);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  };
  for (auto go = within(std::chrono::seconds(5));
       go() && chain().entries.size() < 2;) {
    commit_some(primary);
  }
  const storage::CkptManifest mirror_chain = chain();
  ASSERT_GE(mirror_chain.entries.size(), 2u) << "no base + delta on mirror";
  EXPECT_EQ(mirror_chain.entries[0].kind, storage::ManifestEntry::Kind::kBase);

  primary.stop();
  tcp.client_end->close();
  for (int waited = 0; waited < 300 && !mirror.serving(); ++waited) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(mirror.serving());
  // The mirror's cadence may have run once more before the takeover; from
  // here on only the survivor's can cover its own commits.
  const storage::CkptManifest at_takeover = chain();
  for (auto go = within(std::chrono::seconds(5));
       go() && chain().covered_boundary() <= at_takeover.covered_boundary();) {
    commit_some(mirror);
  }
  const storage::CkptManifest survivor_chain = chain();
  ASSERT_GT(survivor_chain.covered_boundary(), at_takeover.covered_boundary())
      << "the survivor never checkpointed";
  EXPECT_GT(survivor_chain.entries.size(), at_takeover.entries.size());
  EXPECT_EQ(survivor_chain.entries[0].file, mirror_chain.entries[0].file);
  mirror.stop();

  rt::Node restarted(mc, "restarted");
  auto stats = restarted.recover_from_local_state();
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  EXPECT_EQ(restarted.store().live_size(), mirror.store().live_size());
  mirror.store().for_each([&](ObjectId oid, const storage::ObjectRecord& r) {
    const storage::ObjectRecord* got = restarted.store().find(oid);
    ASSERT_NE(got, nullptr) << oid;
    EXPECT_EQ(got->value, r.value) << oid;
    EXPECT_EQ(got->wts, r.wts) << oid;
  });
  std::uint64_t total = 0;
  restarted.store().for_each([&](ObjectId, const storage::ObjectRecord& r) {
    total += r.value.read_u64(0);
  });
  EXPECT_EQ(total, static_cast<std::uint64_t>(commits));
  std::filesystem::remove_all(dir);
}

TEST(RtNode, HeartbeatRateDoesNotFollowLoad) {
  // Heartbeats go out on beats only: no commit wakes the heartbeat thread.
  obs::ObsConfig obs_config;
  obs_config.enabled = true;
  obs::init(obs_config);
  auto tcp = TcpPair::make();
  rt::NodeConfig config;
  rt::Node primary(config, "primary");
  rt::Node mirror(config, "mirror");
  start_pair(tcp, primary, mirror, 100);

  const obs::Counter& heartbeats =
      obs::metrics().counter("repl.heartbeats_sent");
  const std::uint64_t before = heartbeats.value();
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(primary.execute(increment(1 + i % 100)).outcome,
              TxnOutcome::kCommitted)
        << i;
  }
  const std::uint64_t sent = heartbeats.value() - before;
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  const auto beats =
      elapsed / std::chrono::microseconds(config.heartbeat_interval.us);
  EXPECT_LE(sent, static_cast<std::uint64_t>(beats) + 2)
      << "elapsed "
      << std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count()
      << " ms";

  primary.stop();
  mirror.stop();
}

TEST(RtNode, IdleMirrorTakesOverAtWatchdogExpiry) {
  // With no client traffic the mirror's heartbeat thread wakes at the
  // watchdog deadline itself. The beat is most of the timeout here, so a
  // check made only on beats would take over up to 400 ms late.
  auto tcp = TcpPair::make();
  rt::NodeConfig config;
  config.watchdog_timeout = 500_ms;
  config.heartbeat_interval = 400_ms;
  rt::Node primary(config, "primary");
  rt::Node mirror(config, "mirror");
  start_pair(tcp, primary, mirror, 1);

  // The commit's log batch is the primary's last frame: it leaves after
  // `sent` and reaches the mirror before `acked`.
  using Clock = std::chrono::steady_clock;
  const auto sent = Clock::now();
  ASSERT_EQ(primary.execute(increment(1)).outcome, TxnOutcome::kCommitted);
  const auto acked = Clock::now();
  primary.stop();
  tcp.client_end->close();

  while (!mirror.serving() && Clock::now() - acked < std::chrono::seconds(5)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto serving = Clock::now();
  ASSERT_TRUE(mirror.serving());
  EXPECT_GE(serving - sent, std::chrono::milliseconds(500));
  EXPECT_LE(serving - acked, std::chrono::milliseconds(600))
      << std::chrono::duration_cast<std::chrono::milliseconds>(serving - acked)
             .count()
      << " ms after the last frame";
  mirror.stop();
}

TEST(RtNode, RecoveringPeerDoesNotFeedTheTakeoverWatchdog) {
  // The primary stops with its channel left open, and a fresh node rejoins
  // on that channel end. Its heartbeats carry the kMirror role and must not
  // keep the lone mirror's watchdog fed: the mirror takes over, or neither
  // node would ever serve. The rejoiner is constructed first because
  // endpoint epochs embed each node's clock origin, and a peer drops a
  // younger clock's frames as stale.
  rt::NodeConfig config;
  config.watchdog_timeout = 300_ms;
  config.heartbeat_interval = 50_ms;
  rt::Node rejoiner(config, "rejoiner");
  rt::Node primary(config, "primary");
  rt::Node mirror(config, "mirror");
  auto tcp = TcpPair::make();  // destroyed first: readers join before nodes
  start_pair(tcp, primary, mirror, 1);
  ASSERT_EQ(primary.execute(increment(1)).outcome, TxnOutcome::kCommitted);

  primary.stop();
  rejoiner.start_rejoin(*tcp.client_end);
  for (int waited = 0; waited < 500 && !mirror.serving(); ++waited) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(mirror.serving());
  EXPECT_FALSE(rejoiner.serving());
  auto value = mirror.get(1);
  ASSERT_TRUE(value.is_ok());
  EXPECT_EQ(value.value().read_u64(0), 1u);
  rejoiner.stop();
  mirror.stop();
}

TEST(RtNode, DisconnectGraceEscalatesWhenItEnds) {
  // A link drop wakes the primary's heartbeat thread, which then sleeps
  // toward the end of the grace. The beat is far longer than the grace
  // here, so an escalation checked only on beats would come about 2 s late.
  auto tcp = TcpPair::make();
  rt::NodeConfig config;
  config.heartbeat_interval = 2_s;
  config.watchdog_timeout = 10_s;
  config.disconnect_grace = 100_ms;
  config.ack_timeout = 10_s;  // no ack deadline wakes it early either
  rt::Node primary(config, "primary");
  rt::Node mirror(config, "mirror");
  start_pair(tcp, primary, mirror, 1);
  ASSERT_EQ(primary.execute(increment(1)).outcome, TxnOutcome::kCommitted);

  using Clock = std::chrono::steady_clock;
  const auto dropped = Clock::now();
  tcp.server_end->close();
  while (primary.role() == NodeRole::kPrimaryWithMirror &&
         Clock::now() - dropped < std::chrono::seconds(5)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto escalated = Clock::now();
  ASSERT_EQ(primary.role(), NodeRole::kPrimaryAlone);
  EXPECT_GE(escalated - dropped, std::chrono::milliseconds(100));
  EXPECT_LE(escalated - dropped, std::chrono::milliseconds(1000))
      << std::chrono::duration_cast<std::chrono::milliseconds>(escalated -
                                                               dropped)
             .count()
      << " ms after the drop";
  EXPECT_EQ(primary.execute(increment(1)).outcome, TxnOutcome::kCommitted);
  primary.stop();
  mirror.stop();
}

TEST(RtNode, AckTimeoutFiresForTheFirstUnackedShipment) {
  // The first unacked shipment wakes the primary's heartbeat thread, which
  // then sleeps toward the shipment's ack deadline. The beat is 50 times
  // the ack timeout here, so a timeout checked only on beats would
  // escalate about 1 s late.
  auto tcp = TcpPair::make();
  rt::NodeConfig config;
  config.heartbeat_interval = 1_s;
  config.watchdog_timeout = 10_s;
  config.ack_timeout = 20_ms;
  rt::Node primary(config, "primary");
  primary.store().upsert(1, zeros8(), 0);
  // The peer reads every frame and answers none: no ack, no heartbeat.
  tcp.server_end->set_message_handler([](std::vector<std::byte>) {});
  primary.start_primary(LogMode::kMirror, tcp.client_end.get());
  tcp.server_end->start();
  tcp.client_end->start();

  // The commit parks for its ack until the escalation re-routes it to the
  // primary's own log.
  using Clock = std::chrono::steady_clock;
  const auto submitted = Clock::now();
  ASSERT_EQ(primary.execute(increment(1)).outcome, TxnOutcome::kCommitted);
  const auto committed = Clock::now();
  EXPECT_EQ(primary.role(), NodeRole::kPrimaryAlone);
  EXPECT_GE(committed - submitted, std::chrono::milliseconds(20));
  EXPECT_LE(committed - submitted, std::chrono::milliseconds(100))
      << std::chrono::duration_cast<std::chrono::milliseconds>(committed -
                                                               submitted)
             .count()
      << " ms after the submit";
  primary.stop();
}

TEST(RtNode, FidelityModeChargesTheFinalStep) {
  // Fidelity mode spins for each step's modelled cost. A mirror ack
  // finishes the parked transaction on the thread that delivers it, and
  // that thread pays the final step's cost, once.
  auto tcp = TcpPair::make();
  rt::NodeConfig config;
  config.engine.costs = engine::CostModel::zero();
  config.engine.costs.per_read = 1_us;  // turns fidelity mode on
  config.engine.costs.commit_finalize = 150_ms;
  rt::Node primary(config, "primary");
  rt::Node mirror(config, "mirror");
  start_pair(tcp, primary, mirror, 1);

  for (int i = 0; i < 3; ++i) {
    const rt::CommitInfo info = primary.execute(increment(1));
    ASSERT_EQ(info.outcome, TxnOutcome::kCommitted) << i;
    EXPECT_GE(info.latency.us, (150_ms).us) << i;
    EXPECT_LT(info.latency.us, (300_ms).us) << i;
  }
  for (int waited = 0; waited < 100 && mirror.mirror_applied_seq() < 3;
       ++waited) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(mirror.mirror_applied_seq(), 3u);
  primary.stop();
  mirror.stop();
}

/// The join tests' timings are tuned for optimized builds; sanitizer builds
/// run the same paths several times slower, so their windows scale.
#if defined(__SANITIZE_THREAD__)
constexpr std::int64_t kSlowdown = 10;
#elif defined(__SANITIZE_ADDRESS__)
constexpr std::int64_t kSlowdown = 3;
#else
constexpr std::int64_t kSlowdown = 1;
#endif

std::chrono::milliseconds scaled_ms(std::int64_t ms) {
  return std::chrono::milliseconds(ms * kSlowdown);
}

/// Snapshot serves so far (obs must be enabled).
std::uint64_t snapshots_served() {
  return obs::metrics().counter("repl.snapshots_served").value();
}

/// A rejoin as the benchmark's failover cycle runs it: a primary with
/// `objects` zeroed counters serves alone, logging to segments on disk, and
/// has written a checkpoint; an empty node then rejoins it. The joiner is
/// built after the primary has loaded, as a restarted node would be: node
/// clocks start at construction, and a joiner whose clock runs ahead drops
/// the serve as stale.
class RejoinRig {
 public:
  RejoinRig(ObjectId objects, rt::NodeConfig primary_config,
            rt::NodeConfig joiner_config)
      : dir_(unique_temp_path("rodain_rejoin")), objects_(objects) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_ / "primary");
    std::filesystem::create_directories(dir_ / "joiner");
    primary_config.log_path = (dir_ / "primary" / "segments").string();
    primary_config.log_segment_bytes = 1 << 20;
    primary_config.checkpoint_path = (dir_ / "primary" / "db.ckpt").string();
    primary_config.store_capacity_hint = objects;
    primary = std::make_unique<rt::Node>(primary_config, "primary");
    for (ObjectId oid = 1; oid <= objects; ++oid) {
      primary->store().upsert(oid, zeros8(), 0);
    }
    primary->start_primary(LogMode::kDirectDisk, tcp.client_end.get());
    tcp.client_end->start();
    EXPECT_TRUE(primary->write_checkpoint().is_ok());
    joiner_config.log_path = (dir_ / "joiner" / "segments").string();
    joiner_config.log_segment_bytes = 1 << 20;
    joiner_config.store_capacity_hint = objects;
    joiner = std::make_unique<rt::Node>(joiner_config, "joiner");
  }

  ~RejoinRig() {
    loading_.store(false);
    if (load_.joinable()) load_.join();
    joiner->stop();
    primary->stop();
    tcp.client_end->close();
    tcp.server_end->close();
    std::filesystem::remove_all(dir_);
  }

  void start_join() {
    joiner->start_rejoin(*tcp.server_end);
    tcp.server_end->start();
  }

  [[nodiscard]] bool formed() const {
    return primary->role() == NodeRole::kPrimaryWithMirror &&
           joiner->role() == NodeRole::kMirror;
  }

  /// Waits up to `limit` for the pair to form; returns how long it took.
  std::optional<std::chrono::milliseconds> wait_formed(
      std::chrono::milliseconds limit) {
    const auto t0 = std::chrono::steady_clock::now();
    while (!formed()) {
      if (std::chrono::steady_clock::now() - t0 > limit) return std::nullopt;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - t0);
  }

  /// Submits an increment every `period` on its own thread until stop_load.
  void start_load(std::chrono::microseconds period) {
    load_ = std::thread([this, period] {
      std::uint64_t i = 0;
      while (loading_.load()) {
        submitted_.fetch_add(1);
        primary->submit(increment(1 + i++ % objects_),
                        [this](const rt::CommitInfo& info) {
                          if (info.outcome == TxnOutcome::kCommitted) {
                            acked_.fetch_add(1);
                          }
                          finished_.fetch_add(1);
                        });
        std::this_thread::sleep_for(period);
      }
    });
  }

  /// Stops the load and waits until every submitted transaction finished;
  /// returns how many committed.
  std::uint64_t stop_load() {
    loading_.store(false);
    if (load_.joinable()) load_.join();
    for (int waited = 0; waited < 1000 && finished_.load() < submitted_.load();
         ++waited) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(finished_.load(), submitted_.load());
    return acked_.load();
  }

  /// Waits until the primary has finished one more serve than
  /// `served_before` counted (obs must be enabled).
  [[nodiscard]] static bool wait_serve(std::uint64_t served_before) {
    const auto t0 = std::chrono::steady_clock::now();
    while (snapshots_served() == served_before) {
      if (std::chrono::steady_clock::now() - t0 > scaled_ms(5000)) {
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return true;
  }

  static std::map<ObjectId, storage::Value> contents(rt::Node& node) {
    std::map<ObjectId, storage::Value> out;
    node.store().for_each([&](ObjectId oid, const storage::ObjectRecord& rec) {
      out.emplace(oid, rec.value);
    });
    return out;
  }

  /// After stop_load: the joiner applied everything the primary committed,
  /// and both stores hold exactly `acked` increments, byte for byte equal.
  void expect_equal_stores(std::uint64_t acked) {
    const std::uint64_t committed = primary->counters().committed;
    for (int waited = 0;
         waited < 500 && joiner->mirror_applied_seq() < committed; ++waited) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_GE(joiner->mirror_applied_seq(), committed);
    const auto primary_state = contents(*primary);
    const auto joiner_state = contents(*joiner);
    std::uint64_t primary_sum = 0;
    std::uint64_t joiner_sum = 0;
    for (const auto& [oid, value] : primary_state) {
      primary_sum += value.read_u64(0);
    }
    for (const auto& [oid, value] : joiner_state) {
      joiner_sum += value.read_u64(0);
    }
    EXPECT_EQ(primary_sum, acked);
    EXPECT_EQ(joiner_sum, acked);
    EXPECT_TRUE(primary_state == joiner_state) << "stores differ";
  }

 private:
  std::filesystem::path dir_;
  ObjectId objects_;
  std::thread load_;
  std::atomic<bool> loading_{true};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> finished_{0};
  std::atomic<std::uint64_t> acked_{0};

 public:
  std::unique_ptr<rt::Node> primary;
  std::unique_ptr<rt::Node> joiner;
  TcpPair tcp = TcpPair::make();  // last: its readers join before the nodes
};

void enable_obs() {
  obs::ObsConfig obs_config;
  obs_config.enabled = true;
  obs::init(obs_config);
}

constexpr ObjectId kJoinObjects = 100'000;

TEST(RtNode, JoinOutlastingTheAckTimeoutFormsThePair) {
  // The joiner's install of 100k objects takes far longer than the
  // primary's 20 ms ack timeout. The primary keeps logging to its own disk
  // until the joiner reports the install, so no commit waits on the joiner
  // meanwhile and the timeout cannot drop the mirror it has just served.
  rt::NodeConfig primary_config;
  primary_config.ack_timeout = 20_ms * kSlowdown;
  // The heartbeat thread checks ack deadlines; beat often enough that a
  // missed one escalates within the install.
  primary_config.heartbeat_interval = 5_ms * kSlowdown;
  RejoinRig rig(kJoinObjects, primary_config, rt::NodeConfig{});
  rig.start_load(std::chrono::microseconds(500));
  rig.start_join();
  const auto took = rig.wait_formed(scaled_ms(3000));
  ASSERT_TRUE(took.has_value()) << "no pair within 3 s: primary "
                                << to_string(rig.primary->role()) << ", joiner "
                                << to_string(rig.joiner->role());
  std::this_thread::sleep_for(scaled_ms(300));
  const std::uint64_t acked = rig.stop_load();
  EXPECT_GT(acked, 0u);
  // A loaded host can still miss one 20 ms ack deadline after the pair
  // formed; the pair then re-forms through an ordinary rejoin.
  ASSERT_TRUE(rig.wait_formed(scaled_ms(3000)).has_value());
  rig.expect_equal_stores(acked);
}

TEST(RtNode, InstallOutlastingTheJoinerWatchdogEndsWithOneServer) {
  // The joiner's watchdog is far shorter than its install. A joiner is not
  // a mirror until the primary's switch, so the install cannot leave it
  // with a stale watchdog that fires the moment it becomes one.
  rt::NodeConfig primary_config;
  // Beats keep the joiner's watchdog fed once it is a mirror. The ack
  // timeout is out of this test's way: the first acks after the switch
  // wait for the joiner to apply what committed during its install.
  primary_config.heartbeat_interval = 5_ms * kSlowdown;
  primary_config.ack_timeout = 1_s * kSlowdown;
  rt::NodeConfig joiner_config;
  joiner_config.watchdog_timeout = 40_ms * kSlowdown;
  joiner_config.heartbeat_interval = 5_ms * kSlowdown;
  RejoinRig rig(2 * kJoinObjects, primary_config, joiner_config);
  rig.start_load(std::chrono::microseconds(500));
  rig.start_join();
  const auto took = rig.wait_formed(scaled_ms(3000));
  ASSERT_TRUE(took.has_value()) << "no pair within 3 s: primary "
                                << to_string(rig.primary->role()) << ", joiner "
                                << to_string(rig.joiner->role());
  // Exactly one node serves from the moment the pair forms.
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(rig.joiner->role(), NodeRole::kMirror) << i;
    EXPECT_FALSE(rig.joiner->serving()) << i;
    EXPECT_TRUE(rig.primary->serving()) << i;
    std::this_thread::sleep_for(scaled_ms(5));
  }
  const std::uint64_t acked = rig.stop_load();
  rig.expect_equal_stores(acked);
}

TEST(RtNode, PrimaryCommitsWhileTheJoinerInstalls) {
  // Between the serve and the joiner's install report, the primary is still
  // alone and logs to its own disk: commits are acknowledged at once
  // instead of waiting for an ack the joiner can only send after its
  // install.
  enable_obs();
  RejoinRig rig(kJoinObjects, rt::NodeConfig{}, rt::NodeConfig{});
  const std::uint64_t served_before = snapshots_served();
  rig.start_join();
  ASSERT_TRUE(RejoinRig::wait_serve(served_before)) << "no serve";
  const auto t0 = std::chrono::steady_clock::now();
  int during_install = 0;
  while (rig.primary->role() == NodeRole::kPrimaryAlone &&
         std::chrono::steady_clock::now() - t0 < scaled_ms(5000)) {
    const rt::CommitInfo info = rig.primary->execute(increment(1));
    ASSERT_EQ(info.outcome, TxnOutcome::kCommitted);
    if (rig.primary->role() == NodeRole::kPrimaryAlone) ++during_install;
  }
  EXPECT_GE(during_install, 1)
      << "no commit was acknowledged between the serve and the switch";
  ASSERT_TRUE(rig.wait_formed(scaled_ms(3000)).has_value());
  rig.expect_equal_stores(rig.primary->counters().committed);
}

TEST(RtNode, PrimaryStoppedBeforeTheSwitchLeavesTheJoinerRecovering) {
  // The primary dies after its serve and before the switch. It may have
  // acknowledged commits the joiner never received, so the joiner must not
  // take over: it stays kRecovering well past its watchdog and never
  // serves.
  enable_obs();
  rt::NodeConfig joiner_config;
  joiner_config.watchdog_timeout = 100_ms;
  joiner_config.heartbeat_interval = 20_ms;
  RejoinRig rig(kJoinObjects, rt::NodeConfig{}, joiner_config);
  const std::uint64_t served_before = snapshots_served();
  rig.start_join();
  ASSERT_TRUE(RejoinRig::wait_serve(served_before)) << "no serve";
  rig.primary->stop();
  ASSERT_NE(rig.primary->role(), NodeRole::kPrimaryWithMirror)
      << "the switch came before the stop";
  rig.tcp.client_end->close();
  const auto stopped = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - stopped < scaled_ms(800)) {
    ASSERT_FALSE(rig.joiner->serving());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(rig.joiner->role(), NodeRole::kRecovering);
}

/// Stress of the ack-thread finish (DESIGN.md §11): a commit ack finishes
/// its parked transaction on the socket reader thread. Several clients
/// submit at once; every tenth done callback submits again, which would
/// deadlock if a callback ran under the commit mutex.
void ack_finish_stress(std::size_t workers) {
  constexpr int kClients = 4;
  constexpr int kPerClient = 300;
  constexpr int kMain = kClients * kPerClient;
  constexpr int kTotal = kMain + kMain / 10;
  constexpr ObjectId kObjects = 32;
  auto tcp = TcpPair::make();
  rt::NodeConfig config;
  config.worker_threads = workers;
  config.overload.max_active = 100000;
  rt::Node primary(config, "primary");
  rt::Node mirror(config, "mirror");
  start_pair(tcp, primary, mirror, kObjects);

  std::mutex mu;
  std::condition_variable cv;
  std::vector<int> calls(2 * kMain, 0);  // [i]: main txn i, [kMain+i]: nested
  int finished = 0;
  std::uint64_t committed = 0;
  const auto record = [&](int slot, const rt::CommitInfo& info) {
    std::lock_guard lock(mu);
    ++calls[slot];
    ++finished;
    if (info.outcome == TxnOutcome::kCommitted) ++committed;
    cv.notify_all();
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int k = 0; k < kPerClient; ++k) {
        const int i = c * kPerClient + k;
        const ObjectId oid = 1 + static_cast<ObjectId>(i) % kObjects;
        primary.submit(increment(oid), [&, i, oid](const rt::CommitInfo& info) {
          if (i % 10 == 0) {
            primary.submit(increment(oid), [&, i](const rt::CommitInfo& n) {
              record(kMain + i, n);
            });
          }
          record(i, info);
        });
      }
    });
  }
  for (std::thread& t : clients) t.join();
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(60),
                            [&] { return finished == kTotal; }))
        << finished << " of " << kTotal << " callbacks ran";
  }
  for (int i = 0; i < kMain; ++i) {
    ASSERT_EQ(calls[i], 1) << "main txn " << i;
    ASSERT_EQ(calls[kMain + i], i % 10 == 0 ? 1 : 0) << "nested txn " << i;
  }
  EXPECT_EQ(committed, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(primary.counters().committed, committed);

  // Drained: the mirror applied every committed seq, and both stores match.
  for (int waited = 0; waited < 1000 && mirror.mirror_applied_seq() < committed;
       ++waited) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(mirror.mirror_applied_seq(), committed);
  const auto snapshot = [](rt::Node& node) {
    std::map<ObjectId, storage::Value> out;
    node.store().for_each([&](ObjectId oid, const storage::ObjectRecord& rec) {
      out.emplace(oid, rec.value);
    });
    return out;
  };
  const auto primary_state = snapshot(primary);
  EXPECT_EQ(primary_state, snapshot(mirror));
  std::uint64_t sum = 0;
  for (const auto& [oid, value] : primary_state) sum += value.read_u64(0);
  EXPECT_EQ(sum, committed);

  primary.stop();
  mirror.stop();
}

TEST(RtNodeAckFinish, OneWorker) { ack_finish_stress(1); }
TEST(RtNodeAckFinish, FourWorkers) { ack_finish_stress(4); }

/// Drops every frame both ways while `cut` is set. connected() stays true,
/// so neither side sees a link drop: each hears only silence.
class SilentLink final : public net::Channel {
 public:
  SilentLink(net::Channel& inner, const std::atomic<bool>& cut)
      : inner_(inner), cut_(cut) {}
  void set_message_handler(MessageHandler handler) override {
    inner_.set_message_handler(
        [&cut = cut_, h = std::move(handler)](std::vector<std::byte> frame) {
          if (h && !cut.load()) h(std::move(frame));
        });
  }
  void set_disconnect_handler(DisconnectHandler handler) override {
    inner_.set_disconnect_handler(std::move(handler));
  }
  Status send(std::vector<std::byte> frame) override {
    if (cut_.load()) return Status::ok();
    return inner_.send(std::move(frame));
  }
  [[nodiscard]] bool connected() const override { return inner_.connected(); }
  void close() override { inner_.close(); }

 private:
  net::Channel& inner_;
  const std::atomic<bool>& cut_;
};

/// Waits up to `limit` for `done`; returns whether it held.
bool wait_for(const std::function<bool()>& done,
              std::chrono::milliseconds limit) {
  const auto end = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    if (std::chrono::steady_clock::now() > end) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// A link that goes silent both ways outlasts the mirror's watchdog, so
/// the mirror takes over while the primary keeps committing alone. Once
/// the link heals, the lower commit height demotes and rejoins on the same
/// channel. The primary's client never pauses, so its height is the
/// higher one: a tie would compare two nodes' clock origins (ROADMAP item
/// 5(b)). `stress` adds a 10 ms checkpoint cadence, four workers and a
/// client on the losing node, whose acknowledged commits the demotion
/// discards and counts (DESIGN.md §8).
void split_brain_heals(bool stress) {
  enable_obs();
  const obs::Counter& detected =
      obs::metrics().counter("node.split_brain_detected");
  const obs::Counter& discarded =
      obs::metrics().counter("node.split_brain_discarded_txns");
  const std::uint64_t detected_before = detected.value();
  const std::uint64_t discarded_before = discarded.value();
  const auto dir = unique_temp_path("rodain_split_brain");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  rt::NodeConfig config;
  config.watchdog_timeout = 200_ms * kSlowdown;
  config.heartbeat_interval = 20_ms * kSlowdown;
  config.ack_timeout = 50_ms * kSlowdown;
  rt::NodeConfig primary_config = config;
  rt::NodeConfig mirror_config = config;
  if (stress) {
    for (rt::NodeConfig* c : {&primary_config, &mirror_config}) {
      c->worker_threads = 4;
      c->checkpoint_interval = 10_ms;
    }
    primary_config.checkpoint_path = (dir / "primary.ckpt").string();
    mirror_config.checkpoint_path = (dir / "mirror.ckpt").string();
  }
  constexpr ObjectId kObjects = 50;
  std::atomic<bool> cut{false};
  // Built first: a serve id embeds the serving node's clock, and a joiner
  // refuses one that reads older than its own clock.
  rt::Node primary(primary_config, "primary");
  rt::Node mirror(mirror_config, "mirror");
  auto tcp = TcpPair::make();  // destroyed first: readers join before nodes
  SilentLink primary_end(*tcp.client_end, cut);
  SilentLink mirror_end(*tcp.server_end, cut);
  for (ObjectId oid = 1; oid <= kObjects; ++oid) {
    primary.store().upsert(oid, zeros8(), 0);
    mirror.store().upsert(oid, zeros8(), 0);
  }
  mirror.start_mirror(mirror_end);
  primary.start_primary(LogMode::kMirror, &primary_end);
  tcp.server_end->start();
  tcp.client_end->start();

  std::atomic<bool> running{true};
  std::atomic<std::uint64_t> primary_commits{0};
  std::thread primary_client([&] {
    for (ObjectId i = 0; running.load(); ++i) {
      const auto info = primary.execute(increment(1 + i % kObjects));
      if (info.outcome == TxnOutcome::kCommitted) primary_commits.fetch_add(1);
    }
  });
  std::mutex mu;
  std::vector<int> calls;  // per loser submission: done callbacks run
  std::uint64_t loser_commits = 0;
  std::thread loser_client;
  if (stress) {
    loser_client = std::thread([&] {
      for (ObjectId i = 0; running.load(); ++i) {
        std::size_t slot = 0;
        {
          std::lock_guard lock(mu);
          slot = calls.size();
          calls.push_back(0);
        }
        mirror.submit(increment(1 + i % kObjects),
                      [&, slot](const rt::CommitInfo& info) {
                        std::lock_guard lock(mu);
                        ++calls[slot];
                        if (info.outcome == TxnOutcome::kCommitted) {
                          ++loser_commits;
                        }
                      });
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  ASSERT_TRUE(wait_for([&] { return primary_commits.load() >= 20; },
                       scaled_ms(5000)));
  cut.store(true);
  ASSERT_TRUE(wait_for([&] { return mirror.serving(); }, scaled_ms(5000)))
      << "no takeover";
  EXPECT_TRUE(primary.serving());
  std::this_thread::sleep_for(scaled_ms(100));
  cut.store(false);
  const bool formed = wait_for(
      [&] {
        return primary.role() == NodeRole::kPrimaryWithMirror &&
               mirror.role() == NodeRole::kMirror;
      },
      scaled_ms(2000));
  running.store(false);
  primary_client.join();
  if (loser_client.joinable()) loser_client.join();
  ASSERT_TRUE(formed) << "after the heal: primary "
                      << to_string(primary.role()) << ", mirror "
                      << to_string(mirror.role());
  EXPECT_GE(detected.value(), detected_before + 1);
  EXPECT_TRUE(wait_for(
      [&] {
        return RejoinRig::contents(primary) == RejoinRig::contents(mirror);
      },
      scaled_ms(2000)))
      << "stores differ";
  // Every commit the winner acknowledged survives; none of the loser's.
  std::uint64_t sum = 0;
  for (const auto& [oid, value] : RejoinRig::contents(primary)) {
    sum += value.read_u64(0);
  }
  EXPECT_EQ(sum, primary_commits.load());
  primary.stop();
  mirror.stop();
  std::lock_guard lock(mu);
  for (std::size_t i = 0; i < calls.size(); ++i) {
    ASSERT_EQ(calls[i], 1) << "loser submission " << i;
  }
  EXPECT_EQ(discarded.value() - discarded_before, loser_commits);
  std::filesystem::remove_all(dir);
}

TEST(RtNodeSplitBrain, LoserRejoinsOnTheSameChannel) {
  split_brain_heals(false);
}

TEST(RtNodeSplitBrain, LoserWithCheckpointsWorkersAndAClient) {
  split_brain_heals(true);
}

TEST(RtNodeSplitBrain, RestartedLoserDropsItsDeferredRedo) {
  // The loser restarted with instant recovery and still has deferred redo
  // when it loses: the winner's snapshot replaces its store, so the
  // sweeper must never apply those old after-images on top of it.
  const auto dir = unique_temp_path("rodain_split_brain_redo");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  rt::NodeConfig config;
  config.watchdog_timeout = 200_ms * kSlowdown;
  config.heartbeat_interval = 20_ms * kSlowdown;
  rt::NodeConfig loser_config = config;
  loser_config.log_path = (dir / "log").string();
  loser_config.log_segment_bytes = 4096;
  loser_config.instant_recovery = true;
  loser_config.recovery_sweep_interval = 20_ms;
  loser_config.recovery_sweep_txns = 1;
  constexpr ObjectId kObjects = 20;
  {
    // The loser's first life logs 60 additions of 100.
    rt::Node first(loser_config, "first");
    for (ObjectId oid = 1; oid <= kObjects; ++oid) {
      first.store().upsert(oid, zeros8(), 0);
    }
    first.start_primary(LogMode::kDirectDisk);
    for (ObjectId i = 0; i < 60; ++i) {
      txn::TxnProgram p;
      p.add_to_field(1 + i % kObjects, 0, 100);
      p.relative_deadline = 10_s;
      ASSERT_EQ(first.execute(std::move(p)).outcome, TxnOutcome::kCommitted);
    }
    first.stop();
  }
  std::atomic<bool> cut{true};
  // Built first: a joiner refuses a serve id older than its own clock.
  rt::Node winner(config, "winner");
  for (ObjectId oid = 1; oid <= kObjects; ++oid) {
    winner.store().upsert(oid, zeros8(), 0);
  }
  rt::Node loser(loser_config, "loser");
  auto tcp = TcpPair::make();  // destroyed first: readers join before nodes
  SilentLink winner_end(*tcp.server_end, cut);
  SilentLink loser_end(*tcp.client_end, cut);
  winner.start_primary(LogMode::kDirectDisk, &winner_end);
  for (ObjectId i = 0; i < 200; ++i) {
    ASSERT_EQ(winner.execute(increment(1 + i % kObjects)).outcome,
              TxnOutcome::kCommitted);
  }
  ASSERT_TRUE(loser.recover_from_local_state().is_ok());
  loser.start_primary(LogMode::kDirectDisk, &loser_end);
  ASSERT_TRUE(loser.serving());
  tcp.server_end->start();
  tcp.client_end->start();
  cut.store(false);  // height 60 meets height 200: the restarted node loses

  ASSERT_TRUE(wait_for(
      [&] {
        return winner.role() == NodeRole::kPrimaryWithMirror &&
               loser.role() == NodeRole::kMirror;
      },
      scaled_ms(2000)))
      << "winner " << to_string(winner.role()) << ", loser "
      << to_string(loser.role());
  // Several sweep intervals: a surviving index would have applied by now.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto state = RejoinRig::contents(winner);
  EXPECT_TRUE(state == RejoinRig::contents(loser)) << "stores differ";
  for (const auto& [oid, value] : state) {
    EXPECT_EQ(value.read_u64(0), 10u) << "object " << oid;
  }
  winner.stop();
  loser.stop();
  std::filesystem::remove_all(dir);
}

TEST(Database, EmbeddedQuickstartFlow) {
  db::DatabaseOptions options;
  db::Database database(options);
  ASSERT_TRUE(database.put_raw(1, val("alice")));
  ASSERT_TRUE(
      database.index_raw(storage::IndexKey::from_string("user:alice"), 1));

  auto fetched =
      database.get_by_key(storage::IndexKey::from_string("user:alice"));
  ASSERT_TRUE(fetched.is_ok());
  EXPECT_EQ(fetched.value(), val("alice"));

  EXPECT_EQ(database.put(1, val("alice-v2")).outcome, TxnOutcome::kCommitted);
  // Reads take the lock-free snapshot path: no transactions were submitted
  // for the two gets above, only the put committed.
  const std::uint64_t submitted_before_get = database.counters().submitted;
  EXPECT_EQ(database.get(1).value(), val("alice-v2"));
  EXPECT_EQ(database.counters().submitted, submitted_before_get);
  EXPECT_GE(database.counters().committed, 1u);
}

}  // namespace
}  // namespace rodain
