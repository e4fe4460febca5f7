// Reads at four workers (DESIGN.md §11): transactions read under the
// node's commit mutex, while db::Database::get reads committed state
// through the store's seqlocks with no mutex. These tests are TSan targets
// for the two-mutex node: every assertion doubles as a data-race probe.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "rodain/db/database.hpp"
#include "rodain/rt/node.hpp"

namespace rodain {
namespace {

using namespace rodain::literals;

storage::Value val(std::string_view s) { return storage::Value{s}; }
storage::Value zeros8() {
  return storage::Value{std::string_view{"\0\0\0\0\0\0\0\0", 8}};
}

// Mixed read/increment workload over a handful of hot objects with four
// workers contending for the commit mutex. The per-object counters must
// account for every committed increment.
TEST(ParallelRead, ConcurrentStressMixedWorkload) {
  rt::NodeConfig config;
  config.worker_threads = 4;
  config.overload.max_active = 100000;
  rt::Node node(config, "stress");
  constexpr ObjectId kObjects = 8;
  for (ObjectId oid = 1; oid <= kObjects; ++oid) {
    node.store().upsert(oid, zeros8(), 0);
  }
  node.start_primary(LogMode::kOff);

  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  std::atomic<std::uint64_t> committed_incrs{0};
  constexpr int kTxns = 600;
  for (int i = 0; i < kTxns; ++i) {
    const ObjectId a = 1 + static_cast<ObjectId>(i % kObjects);
    const ObjectId b = 1 + static_cast<ObjectId>((i * 7 + 3) % kObjects);
    txn::TxnProgram p;
    p.read(b);          // widen the read set across objects
    p.add_to_field(a, 0, 1);
    p.read(a);          // read-your-own-write after the increment
    p.relative_deadline = 30_s;
    node.submit(std::move(p), [&](const rt::CommitInfo& info) {
      if (info.outcome == TxnOutcome::kCommitted) {
        committed_incrs.fetch_add(1, std::memory_order_relaxed);
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

  std::uint64_t total = 0;
  for (ObjectId oid = 1; oid <= kObjects; ++oid) {
    auto value = node.get(oid);
    ASSERT_TRUE(value.is_ok());
    total += value.value().read_u64(0);
  }
  EXPECT_EQ(total, committed_incrs.load());
  EXPECT_GT(committed_incrs.load(), 0u);
  node.stop();
}

// Serializability re-check at 4 workers: every transaction reads the shared
// counter and then increments it. In any serial order the i-th committed
// transaction observes exactly i prior increments, so the multiset of
// captured read values must be {0, 1, ..., C-1} — a torn or stale read
// that slipped through validation breaks the permutation.
TEST(ParallelRead, CommittedScheduleIsSerializableAt4Workers) {
  rt::NodeConfig config;
  config.worker_threads = 4;
  config.engine.capture_reads = true;
  config.overload.max_active = 100000;
  rt::Node node(config, "serial-check");
  node.store().upsert(1, zeros8(), 0);
  node.start_primary(LogMode::kOff);

  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  std::vector<std::uint64_t> observed;
  constexpr int kTxns = 400;
  for (int i = 0; i < kTxns; ++i) {
    txn::TxnProgram p;
    p.read(1);
    p.add_to_field(1, 0, 1);
    p.relative_deadline = 30_s;
    node.submit(std::move(p), [&](const rt::CommitInfo& info) {
      std::lock_guard lock(mu);
      if (info.outcome == TxnOutcome::kCommitted) {
        ASSERT_FALSE(info.captured_reads.empty());
        observed.push_back(info.captured_reads.front().read_u64(0));
      }
      ++done;
      cv.notify_all();
    });
  }
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return done == kTxns; }));
  }

  auto final_value = node.get(1);
  ASSERT_TRUE(final_value.is_ok());
  ASSERT_EQ(final_value.value().read_u64(0), observed.size());

  std::sort(observed.begin(), observed.end());
  for (std::size_t i = 0; i < observed.size(); ++i) {
    ASSERT_EQ(observed[i], i) << "captured reads are not a serial schedule";
  }
  node.stop();
}

// db::Database::get() rides the seqlock fast path: mid-commit it must only
// ever observe fully committed values, and on a quiet store it must not
// submit a transaction at all.
TEST(ParallelRead, DatabaseFastPathReadsOnlyCommittedState) {
  db::DatabaseOptions options;
  options.worker_threads = 4;
  options.max_active_txns = 100000;
  db::Database database(options);
  const std::string a(storage::Value::kInlineCapacity, 'a');
  const std::string b(storage::Value::kInlineCapacity, 'b');
  ASSERT_TRUE(database.put_raw(1, val(a)));

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      database.put(1, val(a));
      database.put(1, val(b));
    }
  });

  for (int i = 0; i < 20000; ++i) {
    auto fetched = database.get(1);
    ASSERT_TRUE(fetched.is_ok());
    const bool is_a = fetched.value() == val(a);
    const bool is_b = fetched.value() == val(b);
    ASSERT_TRUE(is_a || is_b) << "observed a torn / uncommitted value";
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  // Quiescent store: the fast path cannot hit contention, so reads submit
  // no transactions.
  const std::uint64_t submitted_before = database.counters().submitted;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(database.get(1).is_ok());
  }
  EXPECT_EQ(database.counters().submitted, submitted_before);
}

}  // namespace
}  // namespace rodain
