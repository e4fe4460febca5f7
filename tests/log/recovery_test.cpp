#include "rodain/log/recovery.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>

#include "rodain/common/rng.hpp"
#include "rodain/log/log_storage.hpp"
#include "rodain/log/redo_index.hpp"
#include "rodain/log/segment.hpp"
#include "rodain/storage/fuzzy_checkpoint.hpp"

namespace rodain::log {
namespace {

storage::Value counter_val(std::uint64_t v) {
  storage::Value value{std::string_view{"\0\0\0\0\0\0\0\0", 8}};
  value.write_u64(0, v);
  return value;
}

/// Build a log of `txns` committed transactions (each: one write setting
/// object (seq % objects) to seq), returning the expected final state.
std::vector<Record> build_log(std::size_t txns, std::size_t objects,
                              std::map<ObjectId, std::uint64_t>& expect) {
  std::vector<Record> records;
  for (ValidationTs seq = 1; seq <= txns; ++seq) {
    const ObjectId oid = 1 + (seq % objects);
    records.push_back(Record::write_image(seq, oid, counter_val(seq)));
    records.push_back(Record::commit(seq, seq, seq * 1000, 1));
    expect[oid] = seq;
  }
  return records;
}

TEST(Recovery, ReplaysCommittedTransactions) {
  std::map<ObjectId, std::uint64_t> expect;
  auto records = build_log(100, 10, expect);
  storage::ObjectStore store(16);
  auto stats = replay_records(records, store);
  ASSERT_TRUE(stats.is_ok());
  EXPECT_EQ(stats.value().committed_applied, 100u);
  EXPECT_EQ(stats.value().writes_applied, 100u);
  EXPECT_EQ(stats.value().last_seq, 100u);
  for (auto& [oid, v] : expect) {
    ASSERT_NE(store.find(oid), nullptr);
    EXPECT_EQ(store.find(oid)->value.read_u64(0), v);
  }
}

TEST(Recovery, SkipsTransactionsWithoutCommitRecord) {
  std::vector<Record> records;
  records.push_back(Record::write_image(1, 10, counter_val(1)));
  records.push_back(Record::commit(1, 1, 1000, 1));
  records.push_back(Record::write_image(2, 20, counter_val(2)));  // no commit
  storage::ObjectStore store(4);
  auto stats = replay_records(records, store);
  ASSERT_TRUE(stats.is_ok());
  EXPECT_EQ(stats.value().committed_applied, 1u);
  EXPECT_EQ(stats.value().incomplete_dropped, 1u);
  EXPECT_EQ(store.find(20), nullptr);
}

TEST(Recovery, AppliesInSeqOrderDespiteLogOrder) {
  // A lone node's log can hold commits out of order; w-w winners must still
  // be the higher-seq transaction.
  std::vector<Record> records;
  records.push_back(Record::write_image(2, 1, counter_val(222)));
  records.push_back(Record::commit(2, 2, 2000, 1));
  records.push_back(Record::write_image(1, 1, counter_val(111)));
  records.push_back(Record::commit(1, 1, 1000, 1));
  storage::ObjectStore store(4);
  ASSERT_TRUE(replay_records(records, store).is_ok());
  EXPECT_EQ(store.find(1)->value.read_u64(0), 222u);
}

TEST(Recovery, CheckpointOverlapSkipped) {
  std::map<ObjectId, std::uint64_t> expect;
  auto records = build_log(50, 5, expect);
  storage::ObjectStore store(8);
  // Checkpoint covers up to seq 30: those replay as no-ops (skipped).
  auto stats = replay_records(records, store, /*already_applied=*/30);
  ASSERT_TRUE(stats.is_ok());
  EXPECT_EQ(stats.value().committed_applied, 20u);
}

TEST(Recovery, WriteCountMismatchRejected) {
  std::vector<Record> records;
  records.push_back(Record::write_image(1, 10, counter_val(1)));
  records.push_back(Record::commit(1, 1, 1000, 2));  // claims 2 writes
  storage::ObjectStore store(4);
  auto stats = replay_records(records, store);
  ASSERT_FALSE(stats.is_ok());
  EXPECT_EQ(stats.status().code(), ErrorCode::kCorruption);
}

TEST(Recovery, BufferTornTailTolerated) {
  std::map<ObjectId, std::uint64_t> expect;
  auto records = build_log(20, 5, expect);
  auto bytes = encode_records(records);
  bytes.resize(bytes.size() - 3);  // tear the final commit record
  storage::ObjectStore store(8);
  auto stats = recover_from_buffer(bytes, store);
  ASSERT_TRUE(stats.is_ok());
  EXPECT_TRUE(stats.value().torn_tail);
  EXPECT_EQ(stats.value().committed_applied, 19u);
}

// Property: recovering a log cut at ANY byte position yields the state of a
// committed prefix — never a torn or interleaved state.
TEST(Recovery, PropertyPrefixConsistencyAtEveryCrashPoint) {
  Rng rng(7);
  // Transactions with 1-3 writes each, values derived from seq.
  std::vector<Record> records;
  const std::size_t txns = 30;
  for (ValidationTs seq = 1; seq <= txns; ++seq) {
    const auto writes = static_cast<std::uint32_t>(1 + rng.next_below(3));
    for (std::uint32_t w = 0; w < writes; ++w) {
      records.push_back(Record::write_image(seq, 1 + (seq + w) % 7,
                                            counter_val(seq * 10 + w)));
    }
    records.push_back(Record::commit(seq, seq, seq * 1000, writes));
  }
  const auto bytes = encode_records(records);

  // Reference: state after each committed prefix.
  std::vector<std::map<ObjectId, std::uint64_t>> prefix_state(txns + 1);
  {
    std::map<ObjectId, std::uint64_t> state;
    std::size_t idx = 0;
    ValidationTs seq = 0;
    for (const Record& r : records) {
      (void)idx;
      if (r.type == RecordType::kWriteImage) continue;
      ++seq;
      // Re-scan this txn's writes (they precede the commit contiguously
      // in this synthetic log).
      for (const Record& w : records) {
        if (w.type == RecordType::kWriteImage && w.txn == r.txn) {
          state[w.oid] = w.after.read_u64(0);
        }
      }
      prefix_state[seq] = state;
    }
  }

  for (std::size_t cut = 0; cut <= bytes.size(); cut += 37) {
    storage::ObjectStore store(8);
    auto stats = recover_from_buffer(
        std::span<const std::byte>{bytes.data(), cut}, store);
    ASSERT_TRUE(stats.is_ok()) << "cut=" << cut;
    const ValidationTs applied = stats.value().last_seq;
    ASSERT_LE(applied, txns);
    const auto& expect = prefix_state[applied];
    std::size_t found = 0;
    store.for_each([&](ObjectId oid, const storage::ObjectRecord& rec) {
      auto it = expect.find(oid);
      ASSERT_NE(it, expect.end()) << "cut=" << cut << " oid=" << oid;
      EXPECT_EQ(rec.value.read_u64(0), it->second) << "cut=" << cut;
      ++found;
    });
    EXPECT_EQ(found, expect.size()) << "cut=" << cut;
  }
}

// ---- segmented cold start ------------------------------------------------

class SegmentedRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("rodain_segrec_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    log_dir_ = (dir_ / "log").string();
    ckpt_path_ = (dir_ / "db.ckpt").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Log committed txns [1, txns] into small segments, mirroring them into
  /// `state` and `expect` so tests can checkpoint / verify any boundary.
  void build_segments(std::size_t txns,
                      std::map<ObjectId, std::uint64_t>& expect,
                      storage::ObjectStore* state = nullptr) {
    SegmentedLogStorage::Options opt;
    opt.segment_bytes = 256;
    auto log = SegmentedLogStorage::open(log_dir_, opt);
    ASSERT_TRUE(log.is_ok());
    for (ValidationTs seq = 1; seq <= txns; ++seq) {
      const ObjectId oid = 1 + (seq % 7);
      log.value()->append(Record::write_image(seq, oid, counter_val(seq)));
      log.value()->append(Record::commit(seq, seq, seq * 1000, 1));
      Status status = Status::ok();
      log.value()->flush([&](Status s) { status = s; });
      ASSERT_TRUE(status) << status.to_string();
      expect[oid] = seq;
      if (state) state->upsert(oid, counter_val(seq), seq);
    }
  }

  /// Write `state` as a one-base chain at `boundary`; returns the base
  /// file's path.
  std::string checkpoint(storage::ObjectStore& state, ValidationTs boundary) {
    storage::BPlusTree index;
    storage::CheckpointChain chain(ckpt_path_);
    EXPECT_TRUE(chain.write(state, index, boundary));
    return storage::sibling_path(ckpt_path_,
                                 chain.manifest().entries.at(0).file);
  }

  void verify_state(const storage::ObjectStore& store,
                    const std::map<ObjectId, std::uint64_t>& expect) {
    for (const auto& [oid, v] : expect) {
      ASSERT_NE(store.find(oid), nullptr) << oid;
      EXPECT_EQ(store.find(oid)->value.read_u64(0), v) << oid;
    }
  }

  std::filesystem::path dir_;
  std::string log_dir_;
  std::string ckpt_path_;
};

TEST_F(SegmentedRecoveryTest, SkipsSegmentsTheCheckpointCovers) {
  std::map<ObjectId, std::uint64_t> expect;
  storage::ObjectStore state(16);
  storage::ObjectStore snapshot(16);
  // Checkpoint the state as of seq 20, then keep logging to 40 WITHOUT
  // truncating — recovery itself must skip the fully covered segments.
  build_segments(40, expect, &state);
  storage::ObjectStore at_20(16);
  std::map<ObjectId, std::uint64_t> expect_20;
  for (ValidationTs seq = 1; seq <= 20; ++seq) {
    at_20.upsert(1 + (seq % 7), counter_val(seq), seq);
  }
  checkpoint(at_20, 20);

  storage::ObjectStore recovered(16);
  auto stats = recover_checkpoint_and_segments(ckpt_path_, log_dir_, recovered);
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  EXPECT_GT(stats.value().segments_skipped, 0u);
  EXPECT_GT(stats.value().segments_decoded, 0u);
  EXPECT_EQ(stats.value().last_seq, 40u);
  // Commits at or below the boundary that survive in straddling segments
  // replay as no-ops: only the tail past 20 is applied.
  EXPECT_EQ(stats.value().committed_applied, 20u);
  verify_state(recovered, expect);
}

TEST_F(SegmentedRecoveryTest, CommitExactlyAtBoundaryIsSkipped) {
  std::map<ObjectId, std::uint64_t> expect;
  storage::ObjectStore state(16);
  build_segments(10, expect, &state);
  // Boundary lands exactly on commit seq 10 — the newest commit must NOT
  // replay (r.seq <= already_applied), and last_seq still reports 10.
  checkpoint(state, 10);
  storage::ObjectStore recovered(16);
  auto stats = recover_checkpoint_and_segments(ckpt_path_, log_dir_, recovered);
  ASSERT_TRUE(stats.is_ok());
  EXPECT_EQ(stats.value().committed_applied, 0u);
  EXPECT_EQ(stats.value().last_seq, 10u);
  verify_state(recovered, expect);
}

TEST_F(SegmentedRecoveryTest, BoundaryPastTheLogClampsLastSeq) {
  std::map<ObjectId, std::uint64_t> expect;
  storage::ObjectStore state(16);
  build_segments(5, expect, &state);
  // The checkpoint is AHEAD of the surviving log (truncation deleted
  // everything it covered plus the node crashed before logging more):
  // last_seq must be the checkpoint boundary, never the older log tail.
  checkpoint(state, 50);
  storage::ObjectStore recovered(16);
  auto stats = recover_checkpoint_and_segments(ckpt_path_, log_dir_, recovered);
  ASSERT_TRUE(stats.is_ok());
  EXPECT_EQ(stats.value().committed_applied, 0u);
  EXPECT_EQ(stats.value().last_seq, 50u);
}

TEST_F(SegmentedRecoveryTest, TornTailInNewestSegmentTolerated) {
  std::map<ObjectId, std::uint64_t> expect;
  build_segments(12, expect);
  // Crash artifact: garbage after the last whole record of the unsealed
  // (newest) segment.
  auto segments = SegmentedLogStorage::list_segments(log_dir_);
  ASSERT_TRUE(segments.is_ok());
  const auto& newest = segments.value().back();
  ASSERT_EQ(newest.last_seq, 0u) << "newest segment should be unsealed";
  {
    std::FILE* f = std::fopen(newest.path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char garbage[] = "\x40\x00\x00\x00half-a-record";
    std::fwrite(garbage, 1, sizeof garbage, f);
    std::fclose(f);
  }
  storage::ObjectStore recovered(16);
  auto stats = recover_checkpoint_and_segments("", log_dir_, recovered);
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  EXPECT_TRUE(stats.value().torn_tail);
  EXPECT_EQ(stats.value().committed_applied, 12u);
  verify_state(recovered, expect);
}

/// Flip one payload byte of a checkpoint artifact: its CRC fails.
void flip_byte(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 64, SEEK_SET);
  const int byte = std::fgetc(f);
  std::fseek(f, 64, SEEK_SET);
  std::fputc(byte ^ 0x40, f);
  std::fclose(f);
}

/// Recovery failed on the checkpoint and left `store` holding only the
/// sentinel object it started with.
void expect_refused(const Result<RecoveryStats>& stats,
                    const std::string& ckpt_path,
                    const storage::ObjectStore& store) {
  ASSERT_FALSE(stats.is_ok());
  EXPECT_EQ(stats.status().code(), ErrorCode::kCorruption);
  EXPECT_NE(stats.status().to_string().find(ckpt_path), std::string::npos)
      << stats.status().to_string();
  EXPECT_EQ(store.size(), 1u);
  EXPECT_NE(store.find(999), nullptr);
}

TEST_F(SegmentedRecoveryTest, CorruptCheckpointFailsRecovery) {
  // The chain exists but does not load. Even with the whole log present,
  // recovery does not replay it from empty: data loaded outside the log
  // would be missing. The store is left as it was.
  std::map<ObjectId, std::uint64_t> expect;
  storage::ObjectStore state(16);
  build_segments(15, expect, &state);
  flip_byte(checkpoint(state, 15));
  storage::ObjectStore recovered(16);
  recovered.upsert(999, counter_val(1), 0);
  expect_refused(
      recover_checkpoint_and_segments(ckpt_path_, log_dir_, recovered),
      ckpt_path_, recovered);
  RedoIndex redo;
  expect_refused(
      recover_instant_segments(ckpt_path_, log_dir_, recovered, redo),
      ckpt_path_, recovered);
}

TEST_F(SegmentedRecoveryTest, CorruptCheckpointOverATruncatedLogFailsRecovery) {
  // 40 commits to 40 objects, a chain at seq 30 and the log truncated to
  // it: the log alone holds only what committed after the chain, so a
  // replay from empty would restore a fraction of the store.
  SegmentedLogStorage::Options opt;
  opt.segment_bytes = 256;
  auto log = SegmentedLogStorage::open(log_dir_, opt);
  ASSERT_TRUE(log.is_ok());
  storage::ObjectStore state(64);
  for (ValidationTs seq = 1; seq <= 40; ++seq) {
    const ObjectId oid = seq;
    log.value()->append(Record::write_image(seq, oid, counter_val(seq)));
    log.value()->append(Record::commit(seq, seq, seq * 1000, 1));
    log.value()->flush([](Status s) { ASSERT_TRUE(s) << s.to_string(); });
    if (seq <= 30) state.upsert(oid, counter_val(seq), seq);
  }
  const std::string base = checkpoint(state, 30);
  EXPECT_GT(log.value()->truncate_upto(30), 0u);
  log.value().reset();
  flip_byte(base);
  storage::ObjectStore recovered(64);
  recovered.upsert(999, counter_val(1), 0);
  expect_refused(
      recover_checkpoint_and_segments(ckpt_path_, log_dir_, recovered),
      ckpt_path_, recovered);
}

TEST_F(SegmentedRecoveryTest, LeftoverSingleFileCheckpointIsRefused) {
  // A file at the checkpoint path itself is the retired single-file
  // format. Its boundary may lie above the log's truncation point, so
  // neither ignoring it nor replaying the log alone is safe: recovery
  // stops and names the file, even next to a valid chain.
  std::map<ObjectId, std::uint64_t> expect;
  storage::ObjectStore state(16);
  build_segments(5, expect, &state);
  checkpoint(state, 5);
  {
    std::FILE* f = std::fopen(ckpt_path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("single-file checkpoint", f);
    std::fclose(f);
  }
  storage::ObjectStore recovered(16);
  auto stats = recover_checkpoint_and_segments(ckpt_path_, log_dir_, recovered);
  ASSERT_FALSE(stats.is_ok());
  EXPECT_EQ(stats.status().code(), ErrorCode::kFailedPrecondition);
  EXPECT_NE(stats.status().to_string().find(ckpt_path_), std::string::npos)
      << stats.status().to_string();
  EXPECT_FALSE(
      recover_checkpoint_and_log(ckpt_path_, "", recovered).is_ok());
}

TEST_F(SegmentedRecoveryTest, NoCheckpointNoLogIsCleanEmptyStart) {
  storage::ObjectStore recovered(4);
  auto stats = recover_checkpoint_and_segments(ckpt_path_, log_dir_, recovered);
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  EXPECT_EQ(stats.value().last_seq, 0u);
  EXPECT_EQ(recovered.size(), 0u);
}

}  // namespace
}  // namespace rodain::log
