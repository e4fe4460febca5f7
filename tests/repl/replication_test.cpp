// Replication-layer tests over the simulated link: the primary half
// (shipping, acks, join serving) against the mirror half (immediate ack,
// reorder+apply, snapshot install, takeover).
#include <gtest/gtest.h>

#include <map>

#include "rodain/net/faulty_link.hpp"
#include "rodain/net/sim_link.hpp"
#include "rodain/repl/mirror.hpp"
#include "rodain/repl/primary.hpp"

namespace rodain::repl {
namespace {

using namespace rodain::literals;

storage::Value val(std::string_view s) { return storage::Value{s}; }

struct Rig {
  sim::Simulation sim;
  net::SimLink link{sim, {}};
  storage::ObjectStore primary_store{64};
  storage::ObjectStore mirror_store{64};
  log::MemoryLogStorage primary_disk;
  log::MemoryLogStorage mirror_disk;
  log::LogWriter writer{LogMode::kOff, &primary_disk, nullptr};
  std::unique_ptr<PrimaryReplicator> primary;
  std::unique_ptr<MirrorService> mirror;
  bool mirror_joined = false;
  ValidationTs boundary = 0;

  Rig() {
    PrimaryReplicator::Hooks hooks;
    hooks.snapshot_boundary = [this] { return boundary; };
    hooks.on_mirror_joined = [this] {
      writer.set_mode(LogMode::kMirror);
      mirror_joined = true;
    };
    primary = std::make_unique<PrimaryReplicator>(link.end_a(), sim,
                                                  primary_store, writer, hooks);
    writer.set_shipper(primary.get());

    MirrorService::Options options;
    options.store_to_disk = true;
    mirror = std::make_unique<MirrorService>(mirror_store, &mirror_disk,
                                             link.end_b(), sim, options);
  }

  void submit_txn(ValidationTs seq, ObjectId oid, std::string_view value,
                  std::function<void()> on_durable = {}) {
    std::vector<log::Record> records;
    records.push_back(log::Record::write_image(seq, oid, val(value)));
    records.push_back(log::Record::commit(seq, seq, seq * 1000, 1));
    primary_store.upsert(oid, val(value), seq * 1000);
    writer.submit(seq, std::move(records), std::move(on_durable));
  }
};

TEST(Replication, CommitAckRoundTrip) {
  Rig rig;
  rig.mirror->attach_synced(1);
  rig.writer.set_mode(LogMode::kMirror);

  bool durable = false;
  rig.submit_txn(1, 10, "hello", [&] { durable = true; });
  EXPECT_FALSE(durable);
  rig.sim.run();
  EXPECT_TRUE(durable);
  ASSERT_NE(rig.mirror_store.find(10), nullptr);
  EXPECT_EQ(rig.mirror_store.find(10)->value, val("hello"));
  EXPECT_EQ(rig.mirror->applied_seq(), 1u);
  // The ordered log reached the mirror's disk.
  EXPECT_EQ(rig.mirror_disk.records().size(), 2u);
}

TEST(Replication, AckLatencyIsOneRoundTrip) {
  Rig rig;
  rig.mirror->attach_synced(1);
  rig.writer.set_mode(LogMode::kMirror);
  TimePoint acked{};
  rig.submit_txn(1, 10, "x", [&] { acked = rig.sim.now(); });
  rig.sim.run();
  // 500 us each way (default SimLink latency).
  EXPECT_GE(acked.us, 1000);
  EXPECT_LT(acked.us, 1500);
}

TEST(Replication, MirrorHeartbeatCarriesAppliedSeq) {
  Rig rig;
  rig.mirror->attach_synced(1);
  rig.writer.set_mode(LogMode::kMirror);
  rig.submit_txn(1, 10, "x");
  rig.sim.run();
  rig.mirror->send_heartbeat();
  rig.sim.run();
  EXPECT_EQ(rig.primary->mirror_applied_seq(), 1u);
}

TEST(Replication, BatchedCommitsCoalesceToOneCumulativeAck) {
  Rig rig;
  rig.mirror->attach_synced(1);
  rig.writer.set_mode(LogMode::kMirror);
  log::LogWriter::BatchOptions batch;
  batch.max_txns = 3;
  rig.writer.configure_batching(&rig.sim, batch);

  int durable = 0;
  rig.submit_txn(1, 10, "a", [&] { ++durable; });
  rig.submit_txn(2, 11, "b", [&] { ++durable; });
  EXPECT_EQ(rig.writer.batched_txns(), 2u);  // buffered, nothing on the wire
  rig.submit_txn(3, 12, "c", [&] { ++durable; });  // threshold drains
  rig.sim.run();

  EXPECT_EQ(durable, 3);
  EXPECT_EQ(rig.mirror->applied_seq(), 3u);
  // One frame carried three transactions; the mirror answered with a single
  // cumulative ack covering all of them.
  EXPECT_EQ(rig.writer.counters().batches_shipped, 1u);
  EXPECT_EQ(rig.mirror->stats().acks_sent, 1u);
  EXPECT_EQ(rig.mirror->stats().ack_commits_covered, 3u);
  EXPECT_EQ(rig.writer.counters().acks_received, 1u);
  EXPECT_EQ(rig.writer.counters().ack_released_txns, 3u);
}

TEST(Replication, JoinShipsSnapshotAndCatchUp) {
  Rig rig;
  // The primary ran alone for a while: 5 committed txns, logged locally.
  rig.writer.set_mode(LogMode::kDirectDisk);
  for (ValidationTs seq = 1; seq <= 5; ++seq) {
    rig.submit_txn(seq, 100 + seq, "v" + std::to_string(seq));
  }
  rig.boundary = 3;  // snapshot covers txns 1..3; 4..5 must catch up via tail

  // Phase 1: the serve. Step until the joiner has installed; its install
  // report is then in flight, and the primary has not switched.
  rig.mirror->request_join(0);
  while (rig.mirror->snapshot_in_progress()) {
    ASSERT_TRUE(rig.sim.step()) << "the join stalled before the install";
  }
  EXPECT_TRUE(rig.mirror->join_in_progress());
  EXPECT_FALSE(rig.mirror_joined);
  EXPECT_EQ(rig.writer.mode(), LogMode::kDirectDisk);
  EXPECT_EQ(rig.primary->snapshots_served(), 1u);

  // A commit made while the joiner installs is durable at once, on the
  // primary's own disk, and reaches the mirror at the switch.
  bool durable_at_once = false;
  rig.submit_txn(6, 106, "during-install", [&] { durable_at_once = true; });
  EXPECT_TRUE(durable_at_once);
  EXPECT_EQ(rig.primary_disk.records().size(), 12u);  // 6 txns x 2 records

  // Phase 2: the report arrives, the primary ships seq 6 and switches.
  rig.sim.run();
  EXPECT_TRUE(rig.mirror_joined);
  EXPECT_EQ(rig.writer.mode(), LogMode::kMirror);
  EXPECT_FALSE(rig.mirror->snapshot_in_progress());
  EXPECT_FALSE(rig.mirror->join_in_progress());
  EXPECT_EQ(rig.mirror->applied_seq(), 6u);
  for (ValidationTs seq = 1; seq <= 6; ++seq) {
    const auto* rec = rig.mirror_store.find(100 + seq);
    ASSERT_NE(rec, nullptr) << seq;
    EXPECT_EQ(rec->value, rig.primary_store.find(100 + seq)->value) << seq;
  }
  EXPECT_EQ(rig.primary->snapshots_served(), 1u);

  // Live stream continues seamlessly after the join.
  bool durable = false;
  rig.submit_txn(7, 200, "live", [&] { durable = true; });
  EXPECT_FALSE(durable);  // mirror mode: waits for the ack
  rig.sim.run();
  EXPECT_TRUE(durable);
  EXPECT_EQ(rig.mirror->applied_seq(), 7u);
}

TEST(Replication, RepeatedJoinRequestSwitchesTheServeTheJoinerInstalled) {
  // A joiner that hears nothing for join_retry_timeout sends its join
  // request again, so a slow primary serves it twice. The joiner installs
  // the first serve and ignores the second; its report must still switch
  // the primary, with no second install and no restarted join.
  Rig rig;
  rig.writer.set_mode(LogMode::kDirectDisk);
  for (ValidationTs seq = 1; seq <= 5; ++seq) {
    rig.submit_txn(seq, 100 + seq, "v" + std::to_string(seq));
  }
  rig.boundary = 5;
  rig.mirror->request_join(0);
  // A heartbeat the primary sent before it read the request reaches the
  // joiner first; a poll past the retry timeout with no chunk yet then
  // re-sends the request.
  rig.primary->send_heartbeat(NodeRole::kPrimaryAlone);
  rig.sim.run_until(rig.sim.now() + Duration::micros(600));
  rig.mirror->poll(rig.sim.now() + Duration::millis(150));
  rig.sim.run();

  EXPECT_EQ(rig.primary->snapshots_served(), 2u);
  EXPECT_EQ(rig.mirror->stats().join_retries, 1u);
  EXPECT_EQ(rig.mirror->stats().snapshot_chunks, 1u);  // one serve assembled
  EXPECT_TRUE(rig.mirror_joined);
  EXPECT_FALSE(rig.mirror->join_in_progress());
  EXPECT_EQ(rig.writer.mode(), LogMode::kMirror);
  EXPECT_EQ(rig.mirror->applied_seq(), 5u);
  bool durable = false;
  rig.submit_txn(6, 200, "live", [&] { durable = true; });
  rig.sim.run();
  EXPECT_TRUE(durable);
  EXPECT_EQ(rig.mirror->applied_seq(), 6u);
}

TEST(Replication, RejoinServedBelowTheAppliedSeqStagesTheCatchUp) {
  // A mirror the primary dropped rejoins from its applied seq, and the
  // primary serves a snapshot older than that (a checkpoint on disk): the
  // catch-up between the boundary and the old applied seq must apply, or
  // the join would wait forever for seqs it threw away as stale.
  Rig rig;
  rig.mirror->attach_synced(1);
  rig.writer.set_mode(LogMode::kMirror);
  for (ValidationTs seq = 1; seq <= 5; ++seq) {
    rig.submit_txn(seq, 100 + seq, "v" + std::to_string(seq));
  }
  rig.sim.run();
  ASSERT_EQ(rig.mirror->applied_seq(), 5u);
  rig.writer.on_mirror_lost();
  for (ValidationTs seq = 6; seq <= 7; ++seq) {
    rig.submit_txn(seq, 100 + seq, "v" + std::to_string(seq));
  }
  rig.boundary = 2;
  rig.mirror->request_join(rig.mirror->applied_seq());
  rig.sim.run();

  EXPECT_TRUE(rig.mirror_joined);
  EXPECT_FALSE(rig.mirror->join_in_progress());
  EXPECT_EQ(rig.mirror->stats().join_retries, 0u);
  EXPECT_EQ(rig.mirror->applied_seq(), 7u);
  for (ValidationTs seq = 1; seq <= 7; ++seq) {
    const auto* rec = rig.mirror_store.find(100 + seq);
    ASSERT_NE(rec, nullptr) << seq;
    EXPECT_EQ(rec->value, val("v" + std::to_string(seq))) << seq;
  }
}

/// A pair over a FaultyLink whose script drops the first frame carrying
/// `dropped` (a->b is primary to mirror), with a 10 ms heartbeat tick.
struct FaultyJoinRig {
  sim::Simulation sim;
  net::SimLink inner{sim, {}};
  net::FaultyLink link{sim, inner, {}};
  storage::ObjectStore primary_store{64};
  storage::ObjectStore mirror_store{64};
  log::MemoryLogStorage primary_disk;
  log::MemoryLogStorage mirror_disk;
  log::LogWriter writer{LogMode::kDirectDisk, &primary_disk, nullptr};
  std::unique_ptr<PrimaryReplicator> primary;
  std::unique_ptr<MirrorService> mirror;
  bool synced = false;
  int dropped_frames = 0;

  explicit FaultyJoinRig(MsgType dropped) {
    link.set_script([this, dropped](const net::FrameInfo& f) {
      auto frame = decode_framed(f.bytes);
      if (dropped_frames == 0 && frame.is_ok() &&
          frame.value().msg.type == dropped) {
        ++dropped_frames;
        return net::ScriptAction::kDrop;
      }
      return net::ScriptAction::kPass;
    });
    PrimaryReplicator::Hooks hooks;
    hooks.snapshot_boundary = [this] { return committed; };
    hooks.on_mirror_joined = [this] { writer.set_mode(LogMode::kMirror); };
    primary = std::make_unique<PrimaryReplicator>(link.end_a(), sim,
                                                  primary_store, writer, hooks);
    writer.set_shipper(primary.get());
    MirrorService::Options options;
    options.on_synced = [this] { synced = true; };
    mirror = std::make_unique<MirrorService>(mirror_store, &mirror_disk,
                                             link.end_b(), sim, options);
    tick();
  }

  /// Both nodes' heartbeat tick: the joiner retries only while it hears
  /// from the primary.
  void tick() {
    sim.schedule_after(Duration::millis(10), [this] {
      primary->send_heartbeat(writer.mode() == LogMode::kMirror
                                  ? NodeRole::kPrimaryWithMirror
                                  : NodeRole::kPrimaryAlone);
      mirror->poll(sim.now());
      tick();
    });
  }

  void commit(ObjectId oid, std::string_view value) {
    const ValidationTs seq = ++committed;
    std::vector<log::Record> records;
    records.push_back(log::Record::write_image(seq, oid, val(value)));
    records.push_back(log::Record::commit(seq, seq, seq * 1000, 1));
    primary_store.upsert(oid, val(value), seq * 1000);
    writer.submit(seq, std::move(records), {});
  }

  std::map<ObjectId, storage::Value> contents(storage::ObjectStore& store) {
    std::map<ObjectId, storage::Value> out;
    store.for_each([&](ObjectId oid, const storage::ObjectRecord& r) {
      out.emplace(oid, r.value);
    });
    return out;
  }

  ValidationTs committed = 0;
};

void join_survives_one_lost(MsgType dropped) {
  FaultyJoinRig rig(dropped);
  for (int i = 0; i < 4; ++i) rig.commit(100 + i, "before");
  rig.mirror->request_join(0);
  // Commits keep landing while the join runs, including after the serve.
  for (int i = 0; i < 20; ++i) {
    rig.sim.run_until(rig.sim.now() + Duration::micros(250));
    rig.commit(200 + i % 5, "during-" + std::to_string(i));
  }
  rig.sim.run_until(rig.sim.now() + Duration::seconds(1));

  EXPECT_EQ(rig.dropped_frames, 1);
  EXPECT_TRUE(rig.synced);
  EXPECT_FALSE(rig.mirror->join_in_progress());
  EXPECT_EQ(rig.writer.mode(), LogMode::kMirror);
  EXPECT_EQ(rig.mirror->stats().join_retries, 1u);
  EXPECT_EQ(rig.primary->snapshots_served(), 1u);
  EXPECT_EQ(rig.mirror->applied_seq(), rig.committed);
  EXPECT_EQ(rig.contents(rig.mirror_store), rig.contents(rig.primary_store));

  // The pair is live: a commit now waits for, and gets, the mirror's ack.
  rig.commit(300, "after");
  rig.sim.run_until(rig.sim.now() + Duration::millis(50));
  EXPECT_EQ(rig.writer.pending_acks(), 0u);
  EXPECT_EQ(rig.mirror->applied_seq(), rig.committed);
}

TEST(Replication, JoinSurvivesLostInstallReport) {
  join_survives_one_lost(MsgType::kSnapshotInstalled);
}

TEST(Replication, JoinSurvivesLostJoinComplete) {
  join_survives_one_lost(MsgType::kJoinComplete);
}

TEST(Replication, ChunkRetryIsAnsweredAfterAJoinerHeartbeat) {
  // A dropped mirror rejoins and is served a snapshot whose boundary is
  // below the seq it had applied. One chunk is lost, and the joiner's
  // heartbeat (carrying that applied seq) reaches the primary before its
  // chunk retry. The cached serve must still answer the retry, so the
  // join completes with one serve and no restart.
  sim::Simulation sim;
  net::SimLink inner{sim, {}};
  net::FaultyLink link{sim, inner, {}};
  storage::ObjectStore primary_store{64};
  storage::ObjectStore mirror_store{64};
  log::MemoryLogStorage primary_disk;
  log::MemoryLogStorage mirror_disk;
  log::LogWriter writer{LogMode::kOff, &primary_disk, nullptr};
  int chunks_seen = 0;
  link.set_script([&](const net::FrameInfo& f) {
    auto frame = decode_framed(f.bytes);
    if (frame.is_ok() && frame.value().msg.type == MsgType::kSnapshotChunk &&
        ++chunks_seen == 2) {
      return net::ScriptAction::kDrop;
    }
    return net::ScriptAction::kPass;
  });
  ValidationTs boundary = 0;
  bool joined = false;
  PrimaryReplicator::Hooks hooks;
  hooks.snapshot_boundary = [&] { return boundary; };
  hooks.on_mirror_joined = [&] {
    writer.set_mode(LogMode::kMirror);
    joined = true;
  };
  PrimaryReplicator::Options small_chunks;
  small_chunks.snapshot_chunk_bytes = 64;
  PrimaryReplicator primary(link.end_a(), sim, primary_store, writer, hooks,
                            small_chunks);
  writer.set_shipper(&primary);
  MirrorService mirror(mirror_store, &mirror_disk, link.end_b(), sim,
                       MirrorService::Options{});
  ValidationTs seq = 0;
  auto commit = [&] {
    ++seq;
    const ObjectId oid = 100 + seq;
    const std::string value = "value-" + std::to_string(seq);
    std::vector<log::Record> records;
    records.push_back(log::Record::write_image(seq, oid, val(value)));
    records.push_back(log::Record::commit(seq, seq, seq * 1000, 1));
    primary_store.upsert(oid, val(value), seq * 1000);
    writer.submit(seq, std::move(records), {});
  };

  // An in-sync pair applies 1..5, and the primary learns the applied seq.
  mirror.attach_synced(1);
  writer.set_mode(LogMode::kMirror);
  for (int i = 0; i < 5; ++i) commit();
  sim.run();
  mirror.send_heartbeat();
  sim.run();
  ASSERT_EQ(primary.mirror_applied_seq(), 5u);

  // Dropped: the primary commits alone, then serves the rejoin from an
  // older boundary, in several chunks.
  writer.on_mirror_lost();
  for (int i = 0; i < 2; ++i) commit();
  boundary = 3;
  mirror.request_join(mirror.applied_seq());
  while (mirror.stats().snapshot_chunks == 0) {
    ASSERT_TRUE(sim.step()) << "no chunk reached the joiner";
  }
  mirror.send_heartbeat();  // ahead of the retry the done marker triggers
  sim.run();

  EXPECT_GT(mirror.stats().snapshot_chunks, 1u);
  EXPECT_EQ(primary.snapshot_chunks_resent(), 1u);
  EXPECT_EQ(primary.snapshots_served(), 1u);
  EXPECT_EQ(mirror.stats().join_retries, 0u);
  EXPECT_TRUE(joined);
  EXPECT_FALSE(mirror.join_in_progress());
  EXPECT_EQ(mirror.applied_seq(), 7u);
  for (ValidationTs s = 1; s <= 7; ++s) {
    const auto* rec = mirror_store.find(100 + s);
    ASSERT_NE(rec, nullptr) << s;
    EXPECT_EQ(rec->value, val("value-" + std::to_string(s))) << s;
  }
}

TEST(Replication, TakeoverAppliesStagedAndDropsOpen) {
  Rig rig;
  rig.mirror->attach_synced(1);
  rig.writer.set_mode(LogMode::kMirror);

  // Txn 1 complete; txn 2's commit record staged behind nothing; txn 3 has
  // writes but its commit never arrives (primary died mid-write-phase).
  rig.submit_txn(1, 10, "committed");
  rig.sim.run();
  // Hand-feed an out-of-order commit (seq 3 before seq 2 never arrives...
  // here: stage seq 3, leave seq 2 missing, and an open txn 99).
  std::vector<log::Record> batch;
  batch.push_back(log::Record::write_image(33, 30, val("staged")));
  batch.push_back(log::Record::commit(33, 3, 3000, 1));
  batch.push_back(log::Record::write_image(99, 40, val("incomplete")));
  // Hand-built frame: a huge epoch so the mirror's anti-replay window treats
  // it as newer than anything the real primary endpoint sent.
  (void)rig.link.end_a().send(
      encode_framed(1ULL << 40, 1, Message::log_batch(std::move(batch))));
  rig.sim.run();

  EXPECT_EQ(rig.mirror->reorder_staged(), 1u);
  EXPECT_EQ(rig.mirror->reorder_open(), 1u);

  auto takeover = rig.mirror->take_over();
  EXPECT_EQ(takeover.applied_staged, 1u);
  EXPECT_EQ(takeover.dropped_open, 1u);
  EXPECT_EQ(takeover.next_seq, 4u);
  // Staged txn applied; incomplete txn's write discarded (paper §3).
  ASSERT_NE(rig.mirror_store.find(30), nullptr);
  EXPECT_EQ(rig.mirror_store.find(40), nullptr);
}

TEST(Replication, CorruptTxnMidFrameIsQuarantinedNotFatal) {
  // Regression: a commit record whose write count disagrees with the
  // buffered images (bit rot / a shipper bug) used to poison nothing but
  // also count nothing — the batch kept going silently. The victim must be
  // quarantined (counted, open state dropped), the REST of the frame must
  // still stage, and the stalled floor must let the resend heal the gap.
  Rig rig;
  rig.mirror->attach_synced(1);
  rig.writer.set_mode(LogMode::kMirror);
  rig.submit_txn(1, 10, "good");
  rig.sim.run();
  EXPECT_EQ(rig.mirror->applied_seq(), 1u);

  // Hand-built frame: seq 2's commit claims 2 writes but ships 1 (corrupt),
  // seq 3 is intact and must survive the frame.
  std::vector<log::Record> batch;
  batch.push_back(log::Record::write_image(22, 20, val("torn")));
  batch.push_back(log::Record::commit(22, 2, 2000, 2));  // claims 2 writes
  batch.push_back(log::Record::write_image(33, 30, val("fine")));
  batch.push_back(log::Record::commit(33, 3, 3000, 1));
  (void)rig.link.end_a().send(
      encode_framed(1ULL << 40, 1, Message::log_batch(std::move(batch))));
  rig.sim.run();

  EXPECT_EQ(rig.mirror->stats().corrupt_txns, 1u);
  EXPECT_EQ(rig.mirror->reorder_open(), 0u);    // quarantine left no state
  EXPECT_EQ(rig.mirror->reorder_staged(), 1u);  // seq 3 staged behind the gap
  EXPECT_EQ(rig.mirror->applied_seq(), 1u);     // floor stalls at the victim
  EXPECT_EQ(rig.mirror_store.find(20), nullptr);
  EXPECT_EQ(rig.mirror_store.find(30), nullptr);

  // The primary's resend re-delivers seq 2 intact: the gap closes and the
  // staged seq 3 cascades in the same epoch.
  std::vector<log::Record> resend;
  resend.push_back(log::Record::write_image(22, 20, val("healed")));
  resend.push_back(log::Record::write_image(22, 21, val("second")));
  resend.push_back(log::Record::commit(22, 2, 2000, 2));
  (void)rig.link.end_a().send(
      encode_framed((1ULL << 40) + 1, 2, Message::log_batch(std::move(resend))));
  rig.sim.run();

  EXPECT_EQ(rig.mirror->applied_seq(), 3u);
  ASSERT_NE(rig.mirror_store.find(20), nullptr);
  EXPECT_EQ(rig.mirror_store.find(20)->value, val("healed"));
  ASSERT_NE(rig.mirror_store.find(30), nullptr);
  EXPECT_EQ(rig.mirror->stats().corrupt_txns, 1u);  // counted exactly once
}

TEST(Replication, DiskFlushFailureMarksLogNonDense) {
  // Regression: release() used to discard the disk flush result entirely —
  // a mirror whose stored log silently lost a batch would later vouch for
  // dense catch-up coverage when serving a rejoin. A failed flush must be
  // counted and flip disk_log_dense() off, permanently.
  Rig rig;
  rig.mirror->attach_synced(1);
  rig.writer.set_mode(LogMode::kMirror);
  EXPECT_TRUE(rig.mirror->disk_log_dense());

  rig.submit_txn(1, 10, "a");
  rig.sim.run();
  EXPECT_TRUE(rig.mirror->disk_log_dense());  // healthy disk, still dense

  rig.mirror_disk.inject_flush_error(1);
  rig.submit_txn(2, 11, "b");
  rig.sim.run();
  EXPECT_FALSE(rig.mirror->disk_log_dense());
  EXPECT_EQ(rig.mirror->stats().disk_write_failures, 1u);
  // The copy itself is fine — only the stored log's coverage is suspect.
  ASSERT_NE(rig.mirror_store.find(11), nullptr);
  EXPECT_EQ(rig.mirror->applied_seq(), 2u);

  // Sticky: a healthy flush afterwards must not resurrect density (the
  // hole is already in the log).
  rig.submit_txn(3, 12, "c");
  rig.sim.run();
  EXPECT_FALSE(rig.mirror->disk_log_dense());
  EXPECT_EQ(rig.mirror->stats().disk_write_failures, 1u);
}

TEST(Replication, SeveredLinkDropsFramesAndWriterReroutes) {
  Rig rig;
  rig.mirror->attach_synced(1);
  rig.writer.set_mode(LogMode::kMirror);

  bool durable = false;
  rig.submit_txn(1, 10, "x", [&] { durable = true; });
  rig.link.sever();  // frame in flight is lost
  rig.sim.run();
  EXPECT_FALSE(durable);
  EXPECT_EQ(rig.writer.pending_acks(), 1u);

  // The node-level watchdog would now call on_mirror_lost: the pending
  // transaction completes via the local disk.
  rig.writer.on_mirror_lost();
  EXPECT_TRUE(durable);
  EXPECT_EQ(rig.primary_disk.records().size(), 2u);
}

}  // namespace
}  // namespace rodain::repl
