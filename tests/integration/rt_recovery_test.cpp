// Cold-start recovery of the rt node: checkpoint + log tail, validation
// sequence continuation, and the periodic checkpoint daemon.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <set>
#include <thread>

#include "rodain/log/segment.hpp"
#include "rodain/rt/node.hpp"
#include "rodain/storage/ckpt_manifest.hpp"
#include "rodain/storage/fuzzy_checkpoint.hpp"

namespace rodain {
namespace {

using namespace rodain::literals;

storage::Value zeros8() {
  return storage::Value{std::string_view{"\0\0\0\0\0\0\0\0", 8}};
}

class RtRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("rodain_rt_rec_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  rt::NodeConfig config() {
    rt::NodeConfig c;
    c.log_path = (dir_ / "redo.log").string();
    c.checkpoint_path = (dir_ / "db.ckpt").string();
    return c;
  }
  std::filesystem::path dir_;
};

TEST_F(RtRecoveryTest, LogOnlyRecoveryRestoresStateAndSequence) {
  ValidationTs last_seq = 0;
  {
    rt::Node node(config(), "gen1");
    node.store().upsert(1, zeros8(), 0);
    node.start_primary(LogMode::kDirectDisk);
    for (int i = 0; i < 10; ++i) {
      txn::TxnProgram p;
      p.add_to_field(1, 0, 1);
      p.relative_deadline = 5_s;
      ASSERT_EQ(node.execute(std::move(p)).outcome, TxnOutcome::kCommitted);
    }
    last_seq = 10;
    node.stop();
  }
  {
    rt::Node node(config(), "gen2");
    node.store().upsert(1, zeros8(), 0);  // schema base, as on first boot
    auto stats = node.recover_from_local_state();
    ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
    EXPECT_EQ(stats.value().committed_applied, 10u);
    EXPECT_EQ(stats.value().last_seq, last_seq);
    EXPECT_EQ(node.store().find(1)->value.read_u64(0), 10u);

    // The restarted node continues the sequence and serves.
    node.start_primary(LogMode::kDirectDisk);
    txn::TxnProgram p;
    p.add_to_field(1, 0, 1);
    p.relative_deadline = 5_s;
    ASSERT_EQ(node.execute(std::move(p)).outcome, TxnOutcome::kCommitted);
    EXPECT_EQ(node.store().find(1)->value.read_u64(0), 11u);
    node.stop();
  }
  // The appended log replays cleanly across both generations.
  storage::ObjectStore replayed;
  replayed.upsert(1, zeros8(), 0);
  auto stats = log::recover_from_file(config().log_path, replayed);
  ASSERT_TRUE(stats.is_ok());
  EXPECT_EQ(stats.value().committed_applied, 11u);
  EXPECT_EQ(replayed.find(1)->value.read_u64(0), 11u);
}

TEST_F(RtRecoveryTest, CheckpointPlusTailRecovery) {
  {
    rt::Node node(config(), "gen1");
    node.store().upsert(1, zeros8(), 0);
    node.start_primary(LogMode::kDirectDisk);
    for (int i = 0; i < 5; ++i) {
      txn::TxnProgram p;
      p.add_to_field(1, 0, 10);
      p.relative_deadline = 5_s;
      ASSERT_EQ(node.execute(std::move(p)).outcome, TxnOutcome::kCommitted);
    }
    ASSERT_TRUE(node.write_checkpoint());  // covers seq 1..5
    for (int i = 0; i < 3; ++i) {  // the tail past the checkpoint
      txn::TxnProgram p;
      p.add_to_field(1, 0, 1);
      p.relative_deadline = 5_s;
      ASSERT_EQ(node.execute(std::move(p)).outcome, TxnOutcome::kCommitted);
    }
    node.stop();
  }
  rt::Node node(config(), "gen2");
  auto stats = node.recover_from_local_state();
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  // Only the 3 tail transactions replayed; 5 came from the checkpoint.
  EXPECT_EQ(stats.value().committed_applied, 3u);
  EXPECT_EQ(stats.value().last_seq, 8u);
  EXPECT_EQ(node.store().find(1)->value.read_u64(0), 53u);
}

TEST_F(RtRecoveryTest, RecoveryWithNoFilesIsCleanSlate) {
  rt::NodeConfig c = config();
  c.log_path = (dir_ / "absent.log").string();
  c.checkpoint_path = (dir_ / "absent.ckpt").string();
  rt::Node node(c, "fresh");
  auto stats = node.recover_from_local_state();
  ASSERT_TRUE(stats.is_ok());
  EXPECT_EQ(stats.value().committed_applied, 0u);
  EXPECT_EQ(stats.value().last_seq, 0u);
}

TEST_F(RtRecoveryTest, PeriodicCheckpointDaemonWrites) {
  rt::NodeConfig c = config();
  c.checkpoint_interval = 50_ms;
  rt::Node node(c, "daemon");
  node.store().upsert(1, zeros8(), 0);
  node.start_primary(LogMode::kDirectDisk);
  txn::TxnProgram p;
  p.add_to_field(1, 0, 7);
  p.relative_deadline = 5_s;
  ASSERT_EQ(node.execute(std::move(p)).outcome, TxnOutcome::kCommitted);

  // The fuzzy path writes a chained artifact set (manifest + base/delta
  // files) instead of the single legacy file.
  const std::string manifest = storage::manifest_path_for(c.checkpoint_path);
  for (int waited = 0; waited < 100 && !std::filesystem::exists(manifest);
       ++waited) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(std::filesystem::exists(manifest));
  node.stop();

  storage::ObjectStore from_ckpt;
  auto meta = storage::load_checkpoint_artifacts(c.checkpoint_path, from_ckpt);
  ASSERT_TRUE(meta.is_ok()) << meta.status().to_string();
  EXPECT_EQ(meta.value().last_applied, 1u);
  EXPECT_EQ(from_ckpt.find(1)->value.read_u64(0), 7u);
}

TEST_F(RtRecoveryTest, CrashBetweenDeltaWriteAndManifestUpdateIsIgnored) {
  // kill -9 window 1: a delta artifact hit the disk but the manifest rename
  // never happened. The stray file must be ignored — the manifest is the
  // only source of truth — and every acked txn still recovers (the log
  // covers everything past the manifest's covered boundary).
  rt::NodeConfig c = config();
  c.log_path = (dir_ / "segments").string();
  c.log_segment_bytes = 512;
  {
    rt::Node node(c, "gen1");
    node.store().upsert(1, zeros8(), 0);
    node.start_primary(LogMode::kDirectDisk);
    for (int i = 0; i < 8; ++i) {
      txn::TxnProgram p;
      p.add_to_field(1, 0, 1);
      p.relative_deadline = 5_s;
      ASSERT_EQ(node.execute(std::move(p)).outcome, TxnOutcome::kCommitted);
    }
    ASSERT_TRUE(node.write_checkpoint());  // base, covers 1..8
    for (int i = 0; i < 4; ++i) {
      txn::TxnProgram p;
      p.add_to_field(1, 0, 1);
      p.relative_deadline = 5_s;
      ASSERT_EQ(node.execute(std::move(p)).outcome, TxnOutcome::kCommitted);
    }
    node.stop();
  }
  // Plant the "delta written, manifest not yet renamed" leftover: a stray
  // artifact with a huge epoch and garbage content.
  {
    std::FILE* f = std::fopen((c.checkpoint_path + ".d999").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("torn half-written delta", f);
    std::fclose(f);
  }
  rt::Node node(c, "gen2");
  auto stats = node.recover_from_local_state();
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  EXPECT_EQ(node.store().find(1)->value.read_u64(0), 12u);
  EXPECT_EQ(stats.value().last_seq, 12u);
}

TEST_F(RtRecoveryTest, CrashBetweenManifestUpdateAndTruncationIsIdempotent) {
  // kill -9 window 2: the manifest covers boundary B but the crash hit
  // before the segments below B were deleted. Recovery must skip (or
  // idempotently re-apply) the stale segments and lose nothing.
  rt::NodeConfig c = config();
  c.log_path = (dir_ / "segments").string();
  c.log_segment_bytes = 512;
  const auto stash = dir_ / "segments_stash";
  {
    rt::Node node(c, "gen1");
    node.store().upsert(1, zeros8(), 0);
    node.start_primary(LogMode::kDirectDisk);
    for (int i = 0; i < 20; ++i) {
      txn::TxnProgram p;
      p.add_to_field(1, 0, 1);
      p.relative_deadline = 5_s;
      ASSERT_EQ(node.execute(std::move(p)).outcome, TxnOutcome::kCommitted);
    }
    // Keep a copy of the pre-checkpoint segments, then checkpoint (which
    // truncates them).
    std::filesystem::copy(c.log_path, stash,
                          std::filesystem::copy_options::recursive);
    ASSERT_TRUE(node.write_checkpoint());  // covers 1..20, truncates
    for (int i = 0; i < 5; ++i) {
      txn::TxnProgram p;
      p.add_to_field(1, 0, 1);
      p.relative_deadline = 5_s;
      ASSERT_EQ(node.execute(std::move(p)).outcome, TxnOutcome::kCommitted);
    }
    node.stop();
  }
  // Undo the truncation: restore every stashed segment that was deleted,
  // modelling the crash landing between manifest rename and unlink.
  for (const auto& entry : std::filesystem::directory_iterator(stash)) {
    const auto dest =
        std::filesystem::path(c.log_path) / entry.path().filename();
    if (!std::filesystem::exists(dest)) {
      std::filesystem::copy(entry.path(), dest);
    }
  }
  rt::Node node(c, "gen2");
  auto stats = node.recover_from_local_state();
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  EXPECT_EQ(node.store().find(1)->value.read_u64(0), 25u);
  EXPECT_EQ(stats.value().last_seq, 25u);
}

TEST_F(RtRecoveryTest, SegmentedRestartRecoversEveryAckedTxn) {
  rt::NodeConfig c = config();
  c.log_path = (dir_ / "segments").string();
  c.log_segment_bytes = 512;  // a few txns per segment: forces rotations
  {
    rt::Node node(c, "gen1");
    node.store().upsert(1, zeros8(), 0);
    node.start_primary(LogMode::kDirectDisk);
    for (int i = 0; i < 30; ++i) {
      txn::TxnProgram p;
      p.add_to_field(1, 0, 1);
      p.relative_deadline = 5_s;
      ASSERT_EQ(node.execute(std::move(p)).outcome, TxnOutcome::kCommitted);
    }
    // Checkpoint mid-run: covered segments are deleted on the spot. With
    // fuzzy checkpoints (the default) the artifact is a manifest-described
    // chain, not a bare file — recovery below restarts from that chain.
    ASSERT_TRUE(node.write_checkpoint());
    ASSERT_TRUE(std::filesystem::exists(
        storage::manifest_path_for(c.checkpoint_path)));
    for (int i = 0; i < 10; ++i) {
      txn::TxnProgram p;
      p.add_to_field(1, 0, 1);
      p.relative_deadline = 5_s;
      ASSERT_EQ(node.execute(std::move(p)).outcome, TxnOutcome::kCommitted);
    }
    node.stop();
  }
  {
    // The checkpoint's truncation kept the directory bounded: no sealed
    // segment fully below the checkpoint boundary survives.
    auto segments = log::SegmentedLogStorage::list_segments(c.log_path);
    ASSERT_TRUE(segments.is_ok());
    ASSERT_FALSE(segments.value().empty());
    for (const auto& seg : segments.value()) {
      if (seg.last_seq != 0) {
        EXPECT_GT(seg.last_seq, 30u) << seg.path;
      }
    }
    // kill -9 model: the crash tore the last record of the active segment.
    const auto& newest = segments.value().back();
    std::FILE* f = std::fopen(newest.path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char garbage[] = "\x40\x00\x00\x00mid-write";
    std::fwrite(garbage, 1, sizeof garbage, f);
    std::fclose(f);
  }
  {
    rt::Node node(c, "gen2");
    auto stats = node.recover_from_local_state();
    ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
    EXPECT_TRUE(stats.value().torn_tail);
    EXPECT_EQ(stats.value().last_seq, 40u);
    EXPECT_GE(stats.value().committed_applied, 10u);
    EXPECT_EQ(node.store().find(1)->value.read_u64(0), 40u);

    // The restarted node continues the validation sequence past recovery.
    node.start_primary(LogMode::kDirectDisk);
    txn::TxnProgram p;
    p.add_to_field(1, 0, 1);
    p.relative_deadline = 5_s;
    ASSERT_EQ(node.execute(std::move(p)).outcome, TxnOutcome::kCommitted);
    EXPECT_EQ(node.store().find(1)->value.read_u64(0), 41u);
    node.stop();
  }
}

TEST_F(RtRecoveryTest, RestartPrunesThePreviousChain) {
  // Life 1 leaves a base and three deltas. Life 2 recovers from them, then
  // writes its own first checkpoint: under a name life 1's manifest does
  // not list, pruning every file that manifest named. Afterwards the
  // directory holds exactly the new manifest and the files it names.
  rt::NodeConfig c = config();
  c.checkpoint_path = (dir_ / "ckpt" / "db.ckpt").string();
  std::filesystem::create_directories(dir_ / "ckpt");
  const std::string manifest = storage::manifest_path_for(c.checkpoint_path);
  const auto commit = [](rt::Node& node) {
    txn::TxnProgram p;
    p.add_to_field(1, 0, 1);
    p.relative_deadline = 5_s;
    ASSERT_EQ(node.execute(std::move(p)).outcome, TxnOutcome::kCommitted);
  };
  {
    rt::Node node(c, "gen1");
    node.store().upsert(1, zeros8(), 0);
    node.start_primary(LogMode::kDirectDisk);
    for (int i = 0; i < 4; ++i) {
      commit(node);
      ASSERT_TRUE(node.write_checkpoint());
    }
    node.stop();
  }
  auto first = storage::read_manifest_file(manifest);
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  ASSERT_EQ(first.value().entries.size(), 4u);
  {
    rt::Node node(c, "gen2");
    auto stats = node.recover_from_local_state();
    ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
    node.start_primary(LogMode::kDirectDisk);
    commit(node);
    ASSERT_TRUE(node.write_checkpoint());
    EXPECT_EQ(node.store().find(1)->value.read_u64(0), 5u);
    node.stop();
  }
  auto second = storage::read_manifest_file(manifest);
  ASSERT_TRUE(second.is_ok()) << second.status().to_string();
  std::set<std::string> want = {
      std::filesystem::path(manifest).filename().string()};
  for (const auto& e : second.value().entries) {
    want.insert(e.file);
    for (const auto& old : first.value().entries) {
      EXPECT_NE(e.file, old.file) << "renamed over a listed artifact";
    }
  }
  std::set<std::string> have;
  for (const auto& f : std::filesystem::directory_iterator(dir_ / "ckpt")) {
    have.insert(f.path().filename().string());
  }
  EXPECT_EQ(have, want);
}

TEST_F(RtRecoveryTest, RecoverAfterStartIsRejected) {
  rt::Node node(config(), "late");
  node.start_primary(LogMode::kOff);
  auto stats = node.recover_from_local_state();
  ASSERT_FALSE(stats.is_ok());
  EXPECT_EQ(stats.status().code(), ErrorCode::kFailedPrecondition);
  node.stop();
}

// ---- instant recovery (DESIGN.md §12) ------------------------------------

class RtInstantRecoveryTest : public RtRecoveryTest {
 protected:
  /// Segmented log + instant restart; the sweep interval is cranked up so
  /// the background sweeper never races the assertions — everything the
  /// tests observe is first-touch on-demand replay.
  rt::NodeConfig instant_config() {
    rt::NodeConfig c = config();
    c.log_path = (dir_ / "segments").string();
    c.log_segment_bytes = 512;
    c.instant_recovery = true;
    c.recovery_sweep_interval = 5_s;
    c.recovery_sweep_txns = 1;
    return c;
  }

  /// 60 committed txns round-robin over 20 objects: each object ends at 3.
  void populate(const rt::NodeConfig& c) {
    rt::Node node(c, "gen1");
    node.start_primary(LogMode::kDirectDisk);
    for (int i = 0; i < 60; ++i) {
      txn::TxnProgram p;
      p.add_to_field(static_cast<ObjectId>(1 + i % 20), 0, 1);
      p.relative_deadline = 5_s;
      ASSERT_EQ(node.execute(std::move(p)).outcome, TxnOutcome::kCommitted);
    }
    node.stop();
  }
};

TEST_F(RtInstantRecoveryTest, ServesImmediatelyAndReplaysOnFirstTouchRead) {
  rt::NodeConfig c = instant_config();
  populate(c);

  rt::Node node(c, "gen2");
  auto stats = node.recover_from_local_state();
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  EXPECT_TRUE(stats.value().instant);
  EXPECT_EQ(stats.value().committed_applied, 0u);  // nothing replayed yet
  EXPECT_EQ(stats.value().deferred_txns, 60u);
  EXPECT_EQ(stats.value().last_seq, 60u);

  node.start_primary(LogMode::kDirectDisk);
  ASSERT_TRUE(node.serving());
  // The lock-free path refuses while chains are draining (callers fall
  // back to the transactional path, which replays on first touch)...
  auto fast = node.read_committed(5);
  ASSERT_FALSE(fast.is_ok());
  EXPECT_EQ(fast.status().code(), ErrorCode::kUnavailable);
  // ...and the transactional read observes the full deferred chain.
  auto v = node.get(5);
  ASSERT_TRUE(v.is_ok()) << v.status().to_string();
  EXPECT_EQ(v.value().read_u64(0), 3u);
  node.stop();
}

TEST_F(RtInstantRecoveryTest, FirstTouchWriteSeesRecoveredValue) {
  rt::NodeConfig c = instant_config();
  populate(c);

  rt::Node node(c, "gen2");
  ASSERT_TRUE(node.recover_from_local_state().is_ok());
  node.start_primary(LogMode::kDirectDisk);
  // The very first access to object 7 is a read-modify-write: the engine
  // must replay its chain before the read phase, or the increment would
  // start from a stale base and lose the recovered history.
  txn::TxnProgram p;
  p.add_to_field(7, 0, 1);
  p.relative_deadline = 5_s;
  ASSERT_EQ(node.execute(std::move(p)).outcome, TxnOutcome::kCommitted);
  auto v = node.get(7);
  ASSERT_TRUE(v.is_ok());
  EXPECT_EQ(v.value().read_u64(0), 4u);  // 3 recovered + 1
  node.stop();
}

TEST_F(RtInstantRecoveryTest, ConcurrentFirstTouchesApplyChainExactlyOnce) {
  rt::NodeConfig c = instant_config();
  populate(c);

  c.worker_threads = 4;
  rt::Node node(c, "gen2");
  ASSERT_TRUE(node.recover_from_local_state().is_ok());
  node.start_primary(LogMode::kDirectDisk);

  // 40 concurrent increments all first-touch the SAME unrecovered object.
  // If the watermark failed and two workers replayed the chain twice — or a
  // parked after-image applied after a live write — increments would be
  // clobbered and the final value would drift from 3 + 40.
  std::atomic<int> committed{0};
  std::atomic<int> finished{0};
  for (int i = 0; i < 40; ++i) {
    txn::TxnProgram p;
    p.add_to_field(3, 0, 1);
    p.relative_deadline = 5_s;
    node.submit(std::move(p), [&](const rt::CommitInfo& info) {
      if (info.outcome == TxnOutcome::kCommitted) ++committed;
      ++finished;
    });
  }
  for (int waited = 0; waited < 500 && finished.load() < 40; ++waited) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(finished.load(), 40);
  ASSERT_EQ(committed.load(), 40);
  auto v = node.get(3);
  ASSERT_TRUE(v.is_ok());
  EXPECT_EQ(v.value().read_u64(0), 43u);
  node.stop();
}

TEST_F(RtInstantRecoveryTest, CrashMidSweepThenRestartLosesNothing) {
  rt::NodeConfig c = instant_config();
  populate(c);

  {
    // gen2 restarts instantly, commits one transaction, then dies with most
    // chains still parked (the sweeper never got a slice). Nothing was
    // checkpointed, so the segments still hold the full history.
    rt::Node node(c, "gen2");
    ASSERT_TRUE(node.recover_from_local_state().is_ok());
    node.start_primary(LogMode::kDirectDisk);
    txn::TxnProgram p;
    p.add_to_field(1, 0, 1);
    p.relative_deadline = 5_s;
    ASSERT_EQ(node.execute(std::move(p)).outcome, TxnOutcome::kCommitted);
    node.stop();
  }
  {
    // gen3 replays the log in full (instant off): every pre-crash commit
    // AND gen2's one commit must be there — the deferred chains gen2 never
    // applied were log state, not volatile state.
    rt::NodeConfig full = c;
    full.instant_recovery = false;
    rt::Node node(full, "gen3");
    auto stats = node.recover_from_local_state();
    ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
    EXPECT_FALSE(stats.value().instant);
    EXPECT_EQ(stats.value().last_seq, 61u);
    ASSERT_NE(node.store().find(1), nullptr);
    EXPECT_EQ(node.store().find(1)->value.read_u64(0), 4u);  // 3 + gen2's 1
    for (ObjectId oid = 2; oid <= 20; ++oid) {
      ASSERT_NE(node.store().find(oid), nullptr) << oid;
      EXPECT_EQ(node.store().find(oid)->value.read_u64(0), 3u) << oid;
    }
  }
}

TEST_F(RtInstantRecoveryTest, InstantRestartContinuesSequenceAfterDrain) {
  rt::NodeConfig c = instant_config();
  c.recovery_sweep_interval = 1_ms;
  c.recovery_sweep_txns = 256;
  populate(c);

  rt::Node node(c, "gen2");
  auto stats = node.recover_from_local_state();
  ASSERT_TRUE(stats.is_ok());
  EXPECT_TRUE(stats.value().instant);
  node.start_primary(LogMode::kDirectDisk);
  // The background sweeper drains the whole index in a few slices; the
  // lock-free read path reopens once active() turns false.
  bool drained = false;
  for (int waited = 0; waited < 500; ++waited) {
    if (node.read_committed(5).is_ok()) {
      drained = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(drained);
  EXPECT_EQ(node.read_committed(5).value().read_u64(0), 3u);
  // The validation sequence continues past the recovered history.
  txn::TxnProgram p;
  p.add_to_field(5, 0, 1);
  p.relative_deadline = 5_s;
  ASSERT_EQ(node.execute(std::move(p)).outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(node.get(5).value().read_u64(0), 4u);
  node.stop();
}

}  // namespace
}  // namespace rodain
