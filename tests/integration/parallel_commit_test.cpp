// Commit behaviour at four workers (DESIGN.md §11): the workers contend
// for the node's commit mutex, under which every engine step runs, and
// the log stream stays in validation order. These tests are TSan targets
// for the worker hand-offs: every assertion doubles as a data-race probe.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "rodain/net/tcp.hpp"
#include "rodain/obs/obs.hpp"
#include "rodain/rt/node.hpp"

namespace rodain {
namespace {

using namespace rodain::literals;

storage::Value zeros8() {
  return storage::Value{std::string_view{"\0\0\0\0\0\0\0\0", 8}};
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
        std::move(net::TcpChannel::connect("127.0.0.1", p.server->port(), 2_s))
            .value();
    std::unique_lock lock(mu);
    cv.wait_for(lock, std::chrono::seconds(2),
                [&] { return p.server_end != nullptr; });
    return p;
  }
};

// Serializability across disjoint AND overlapping key sets at 4 workers.
// Group transactions read a shared hot object and increment their own group
// counter; overlap transactions read a group counter and increment the
// shared object. Every counter is read *before* its increment, so in any
// valid serial order the multiset of captured reads per counter must be
// exactly {0, 1, ..., C-1}.
TEST(ParallelCommit, DisjointAndOverlappingKeySetsStaySerializable) {
  rt::NodeConfig config;
  config.worker_threads = 4;
  config.engine.capture_reads = true;
  config.overload.max_active = 100000;
  rt::Node node(config, "parcommit");
  constexpr ObjectId kShared = 1;
  constexpr ObjectId kGroups = 4;  // group counters live at 2..5
  for (ObjectId oid = kShared; oid <= kShared + kGroups; ++oid) {
    node.store().upsert(oid, zeros8(), 0);
  }
  node.start_primary(LogMode::kOff);

  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  std::map<ObjectId, std::vector<std::uint64_t>> observed;  // per counter
  constexpr int kTxns = 600;
  int submitted = 0;
  for (int i = 0; i < kTxns; ++i) {
    txn::TxnProgram p;
    ObjectId counter;
    if (i % 3 == 0) {
      // Overlap transaction: reads a group counter, increments the shared
      // object — the cross edge the epoch-ordered validator must respect.
      counter = kShared;
      p.read(2 + static_cast<ObjectId>(i % kGroups));
      p.read(counter);
      p.add_to_field(counter, 0, 1);
    } else {
      counter = 2 + static_cast<ObjectId>(i % kGroups);
      p.read(kShared);
      p.read(counter);
      p.add_to_field(counter, 0, 1);
    }
    p.relative_deadline = 30_s;
    ++submitted;
    node.submit(std::move(p), [&, counter](const rt::CommitInfo& info) {
      std::lock_guard lock(mu);
      if (info.outcome == TxnOutcome::kCommitted) {
        ASSERT_EQ(info.captured_reads.size(), 2u);
        observed[counter].push_back(info.captured_reads[1].read_u64(0));
      }
      ++done;
      cv.notify_all();
    });
  }
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return done == submitted; }));
  }

  for (auto& [oid, reads] : observed) {
    auto final_value = node.get(oid);
    ASSERT_TRUE(final_value.is_ok());
    ASSERT_EQ(final_value.value().read_u64(0), reads.size())
        << "counter " << oid;
    std::sort(reads.begin(), reads.end());
    for (std::size_t i = 0; i < reads.size(); ++i) {
      ASSERT_EQ(reads[i], i)
          << "counter " << oid << ": captured reads are not a serial schedule";
    }
  }
  node.stop();
}

// The stream the mirror replays from a 4-worker primary must be
// byte-for-byte equivalent to the primary's committed state: same values,
// same commit timestamps, in the same per-record order.
TEST(ParallelCommit, MirrorReplayMatchesPrimaryState) {
  obs::ObsConfig obs_config;
  obs_config.enabled = true;
  obs::init(obs_config);

  auto tcp = TcpPair::make();
  rt::NodeConfig config;
  config.worker_threads = 4;
  config.overload.max_active = 100000;
  rt::Node primary(config, "primary");
  rt::Node mirror(config, "mirror");
  constexpr ObjectId kObjects = 16;
  for (ObjectId oid = 1; oid <= kObjects; ++oid) {
    primary.store().upsert(oid, zeros8(), 0);
    mirror.store().upsert(oid, zeros8(), 0);
  }
  mirror.start_mirror(*tcp.server_end);
  primary.start_primary(LogMode::kMirror, tcp.client_end.get());
  tcp.server_end->start();
  tcp.client_end->start();

  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  std::atomic<std::uint64_t> committed{0};
  constexpr int kTxns = 300;
  for (int i = 0; i < kTxns; ++i) {
    txn::TxnProgram p;
    p.read(1 + static_cast<ObjectId>((i * 5 + 2) % kObjects));
    p.add_to_field(1 + static_cast<ObjectId>(i % kObjects), 0, 1);
    p.relative_deadline = 30_s;
    primary.submit(std::move(p), [&](const rt::CommitInfo& info) {
      if (info.outcome == TxnOutcome::kCommitted) {
        committed.fetch_add(1, std::memory_order_relaxed);
      }
      std::lock_guard lock(mu);
      ++done;
      cv.notify_all();
    });
  }
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return done == kTxns; }));
  }
  ASSERT_GT(committed.load(), 0u);

  // The mirror's cumulative ack floor reaches everything committed.
  for (int waited = 0;
       waited < 500 && mirror.mirror_applied_seq() < committed.load();
       ++waited) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(mirror.mirror_applied_seq(), committed.load());

  // Byte-for-byte: identical values AND identical commit timestamps per
  // object (the wts is the serialization evidence the replay carries).
  std::map<ObjectId, std::pair<storage::Value, ValidationTs>> primary_state;
  primary.store().for_each([&](ObjectId oid, const storage::ObjectRecord& r) {
    primary_state[oid] = {r.value, r.wts};
  });
  std::map<ObjectId, std::pair<storage::Value, ValidationTs>> mirror_state;
  mirror.store().for_each([&](ObjectId oid, const storage::ObjectRecord& r) {
    mirror_state[oid] = {r.value, r.wts};
  });
  ASSERT_EQ(primary_state.size(), mirror_state.size());
  for (const auto& [oid, state] : primary_state) {
    ASSERT_EQ(mirror_state.count(oid), 1u) << "object " << oid;
    EXPECT_TRUE(mirror_state[oid].first == state.first) << "object " << oid;
    EXPECT_EQ(mirror_state[oid].second, state.second) << "object " << oid;
  }

  primary.stop();
  mirror.stop();
}

// Regression (recovery_mode_ ordering): hammer first-touch reads and
// read-modify-writes from many client threads at four workers while the
// instant-recovery sweeper drains the redo index. Run under TSan, every
// access is a probe of the recovery_mode_/redo-index publication protocol.
TEST(ParallelCommit, FirstTouchReadsDuringRecoveryDrainAreRaceFree) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "rodain_parallel_recovery_hammer";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  rt::NodeConfig config;
  config.worker_threads = 4;
  config.overload.max_active = 100000;
  config.log_path = (dir / "segments").string();
  config.log_segment_bytes = 512;
  config.checkpoint_path = (dir / "db.ckpt").string();
  config.instant_recovery = true;
  config.recovery_sweep_interval = Duration::micros(200);
  config.recovery_sweep_txns = 1;  // keep the drain window open for a while

  constexpr ObjectId kObjects = 20;
  constexpr int kSeedTxns = 60;  // 3 per object
  {
    rt::NodeConfig gen = config;
    rt::Node node(gen, "gen1");
    node.start_primary(LogMode::kDirectDisk);
    for (int i = 0; i < kSeedTxns; ++i) {
      txn::TxnProgram p;
      p.add_to_field(static_cast<ObjectId>(1 + i % kObjects), 0, 1);
      p.relative_deadline = 5_s;
      ASSERT_EQ(node.execute(std::move(p)).outcome, TxnOutcome::kCommitted);
    }
    node.stop();
  }

  rt::Node node(config, "gen2");
  auto stats = node.recover_from_local_state();
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  EXPECT_GT(stats.value().deferred_txns, 0u);
  node.start_primary(LogMode::kDirectDisk);

  constexpr int kClients = 4;
  constexpr int kPerClient = 40;
  std::atomic<std::uint64_t> committed_incrs{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const auto oid = static_cast<ObjectId>(1 + (c * 7 + i) % kObjects);
        // Lock-free committed read: refused while draining, must never
        // observe a torn or pre-recovery value once it succeeds.
        auto fast = node.read_committed(oid);
        if (fast.is_ok()) {
          EXPECT_GE(fast.value().read_u64(0), 3u);
        }
        // First-touch read-modify-write: replays the deferred chain before
        // the increment, serial or parallel depending on drain progress.
        txn::TxnProgram p;
        p.add_to_field(oid, 0, 1);
        p.relative_deadline = 30_s;
        if (node.execute(std::move(p)).outcome == TxnOutcome::kCommitted) {
          committed_incrs.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  // Every object ends at its recovered value (3) plus its committed
  // increments; a lost deferred chain or doubled replay breaks the total.
  std::uint64_t total = 0;
  for (ObjectId oid = 1; oid <= kObjects; ++oid) {
    auto v = node.get(oid);
    ASSERT_TRUE(v.is_ok()) << v.status().to_string();
    total += v.value().read_u64(0);
  }
  EXPECT_EQ(total, kSeedTxns + committed_incrs.load());
  node.stop();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rodain
