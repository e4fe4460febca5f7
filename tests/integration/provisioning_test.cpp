// Subscriber provisioning: transactional insert/delete with secondary-index
// maintenance, propagated through the redo stream to the mirror and through
// checkpoints + logs to recovery.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "rodain/exp/session.hpp"
#include "rodain/log/recovery.hpp"
#include "rodain/simdb/sim_cluster.hpp"
#include "rodain/storage/fuzzy_checkpoint.hpp"
#include "rodain/workload/calibration.hpp"

namespace rodain {
namespace {

using namespace rodain::literals;

storage::Value val(std::string_view s) { return storage::Value{s}; }
storage::IndexKey num(std::string_view s) {
  return storage::IndexKey::from_string(s);
}

struct EngineRig {
  storage::ObjectStore store{64};
  storage::BPlusTree index;
  log::MemoryLogStorage disk;
  log::LogWriter writer{LogMode::kDirectDisk, &disk, nullptr};
  engine::Engine engine;
  std::vector<std::unique_ptr<txn::Transaction>> txns;
  TxnId next{1};

  EngineRig()
      : engine(engine::EngineConfig{}, store, &index, writer,
               engine::Engine::Hooks{}) {}

  TxnOutcome run(txn::TxnProgram p) {
    const TxnId id = next++;
    txns.push_back(std::make_unique<txn::Transaction>(
        id, id, std::move(p), TimePoint{0}, TimePoint::max()));
    engine.begin(*txns.back());
    while (true) {
      auto r = engine.step(*txns.back());
      if (r.action == engine::StepAction::kCommitted) {
        return TxnOutcome::kCommitted;
      }
      if (r.action == engine::StepAction::kAborted) {
        return txns.back()->outcome();
      }
    }
  }
};

TEST(Provisioning, InsertRegistersObjectAndIndex) {
  EngineRig rig;
  txn::TxnProgram p;
  p.insert(100, num("0800999001"), val("new-subscriber"));
  ASSERT_EQ(rig.run(std::move(p)), TxnOutcome::kCommitted);

  ASSERT_NE(rig.store.find(100), nullptr);
  EXPECT_TRUE(rig.store.find(100)->live());
  EXPECT_EQ(rig.store.find(100)->value, val("new-subscriber"));
  EXPECT_EQ(rig.index.find(num("0800999001")), 100u);
  // The redo stream carries the key.
  ASSERT_EQ(rig.disk.records().size(), 2u);
  EXPECT_TRUE(rig.disk.records()[0].has_key);
}

TEST(Provisioning, DeleteTombstonesAndDropsIndexEntry) {
  EngineRig rig;
  txn::TxnProgram setup;
  setup.insert(100, num("0800999001"), val("subscriber"));
  ASSERT_EQ(rig.run(std::move(setup)), TxnOutcome::kCommitted);

  txn::TxnProgram del;
  del.erase(100, num("0800999001"));
  ASSERT_EQ(rig.run(std::move(del)), TxnOutcome::kCommitted);

  ASSERT_NE(rig.store.find(100), nullptr);  // tombstone survives
  EXPECT_FALSE(rig.store.find(100)->live());
  EXPECT_GT(rig.store.find(100)->wts, 0u);
  EXPECT_EQ(rig.index.find(num("0800999001")), std::nullopt);
  EXPECT_EQ(rig.store.tombstone_count(), 1u);
  EXPECT_EQ(rig.store.live_size(), 0u);
}

TEST(Provisioning, ReadAfterDeleteSeesMissing) {
  engine::EngineConfig config;
  config.capture_reads = true;
  EngineRig rig;
  txn::TxnProgram setup;
  setup.insert(100, val("v"));
  ASSERT_EQ(rig.run(std::move(setup)), TxnOutcome::kCommitted);
  txn::TxnProgram del;
  del.erase(100);
  ASSERT_EQ(rig.run(std::move(del)), TxnOutcome::kCommitted);

  // Same-transaction semantics: delete then read -> missing; re-insert
  // then read -> new value.
  txn::TxnProgram mixed;
  mixed.insert(200, val("x"));
  mixed.erase(200);
  mixed.insert(200, val("y"));
  ASSERT_EQ(rig.run(std::move(mixed)), TxnOutcome::kCommitted);
  EXPECT_TRUE(rig.store.find(200)->live());
  EXPECT_EQ(rig.store.find(200)->value, val("y"));
}

TEST(Provisioning, DeleteIsDurableInLogReplay) {
  EngineRig rig;
  txn::TxnProgram a;
  a.insert(1, num("0800000001"), val("one"));
  a.insert(2, num("0800000002"), val("two"));
  ASSERT_EQ(rig.run(std::move(a)), TxnOutcome::kCommitted);
  txn::TxnProgram b;
  b.erase(1, num("0800000001"));
  ASSERT_EQ(rig.run(std::move(b)), TxnOutcome::kCommitted);

  storage::ObjectStore recovered(16);
  storage::BPlusTree recovered_index;
  auto stats =
      log::replay_records(rig.disk.records(), recovered, 0, &recovered_index);
  ASSERT_TRUE(stats.is_ok());
  EXPECT_EQ(stats.value().committed_applied, 2u);
  EXPECT_FALSE(recovered.find(1)->live());
  EXPECT_TRUE(recovered.find(2)->live());
  EXPECT_EQ(recovered_index.find(num("0800000001")), std::nullopt);
  EXPECT_EQ(recovered_index.find(num("0800000002")), 2u);
}

TEST(Provisioning, CheckpointCarriesIndexAndSkipsTombstones) {
  EngineRig rig;
  txn::TxnProgram a;
  a.insert(1, num("0800000001"), val("one"));
  a.insert(2, num("0800000002"), val("two"));
  ASSERT_EQ(rig.run(std::move(a)), TxnOutcome::kCommitted);
  txn::TxnProgram b;
  b.erase(1, num("0800000001"));
  ASSERT_EQ(rig.run(std::move(b)), TxnOutcome::kCommitted);

  // Both encoders: the live chain a join ships, and the chain the writer
  // persists (through a corrupt write first, which recovery must reject).
  const std::vector<std::byte> live =
      storage::encode_live_chain(rig.store, &rig.index, 2);
  const auto dir = std::filesystem::temp_directory_path() /
                   ("rodain_prov_ckpt_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "db.ckpt").string();
  storage::CheckpointChain chain(path);
  ASSERT_TRUE(chain.write(rig.store, rig.index, 2));
  const std::string base =
      storage::sibling_path(path, chain.manifest().entries.at(0).file);
  std::filesystem::resize_file(base, std::filesystem::file_size(base) - 1);
  storage::ObjectStore torn(16);
  auto torn_meta = storage::load_checkpoint_artifacts(path, torn);
  ASSERT_FALSE(torn_meta.is_ok());
  EXPECT_EQ(torn_meta.status().code(), ErrorCode::kCorruption);
  // A restarted writer replaces the torn chain with a fresh base.
  ASSERT_TRUE(storage::CheckpointChain(path).write(rig.store, rig.index, 2));

  for (int from_disk = 0; from_disk < 2; ++from_disk) {
    storage::ObjectStore restored(16);
    storage::BPlusTree restored_index;
    auto meta =
        from_disk ? storage::load_checkpoint_artifacts(path, restored,
                                                       &restored_index)
                  : storage::decode_chain(live, restored, &restored_index);
    ASSERT_TRUE(meta.is_ok()) << meta.status().to_string();
    EXPECT_EQ(meta.value().object_count, 1u);  // the tombstone was compacted
    EXPECT_EQ(meta.value().last_applied, 2u);
    EXPECT_EQ(restored.find(1), nullptr);
    EXPECT_TRUE(restored.find(2)->live());
    EXPECT_EQ(restored_index.size(), 1u);
    EXPECT_EQ(restored_index.find(num("0800000002")), 2u);
  }
  std::filesystem::remove_all(dir);
}

TEST(Provisioning, MirrorMaintainsIndexAndCopy) {
  sim::Simulation sim;
  auto config = workload::PaperSetup::two_node(true);
  config.node.store_capacity_hint = 64;
  simdb::SimCluster cluster(sim, config);
  cluster.start();

  TxnCounters seen;
  auto submit = [&](txn::TxnProgram p) {
    sim.schedule_after(1_ms, [&cluster, p = std::move(p), &seen]() mutable {
      cluster.submit(std::move(p), [&seen](const simdb::TxnResult& r) {
        seen.submitted++;
        seen.committed += (r.outcome == TxnOutcome::kCommitted);
      });
    });
  };
  txn::TxnProgram provision;
  provision.insert(1, num("0800123123"), val("alice"));
  provision.with_deadline(150_ms);
  submit(std::move(provision));
  sim.run_until(TimePoint{1'000'000});

  txn::TxnProgram deprovision;
  deprovision.insert(2, num("0800456456"), val("bob"));
  deprovision.erase(1, num("0800123123"));
  deprovision.with_deadline(150_ms);
  submit(std::move(deprovision));
  sim.run_until(TimePoint{3'000'000});

  ASSERT_EQ(seen.committed, 2u);
  // The mirror's copy AND index reflect both provisioning transactions.
  simdb::SimNode& mirror = cluster.node_b();
  ASSERT_NE(mirror.store().find(2), nullptr);
  EXPECT_TRUE(mirror.store().find(2)->live());
  EXPECT_FALSE(mirror.store().find(1)->live());
  EXPECT_EQ(mirror.index().find(num("0800456456")), 2u);
  EXPECT_EQ(mirror.index().find(num("0800123123")), std::nullopt);

  // After takeover the survivor serves index lookups for the new entry.
  cluster.fail_node(cluster.node_a());
  sim.run_until(TimePoint{4'000'000});
  ASSERT_TRUE(mirror.serving());
  txn::TxnProgram lookup;
  lookup.read_key(num("0800456456"));
  lookup.with_deadline(150_ms);
  TxnOutcome outcome = TxnOutcome::kSystemAborted;
  mirror.submit(std::move(lookup),
                [&](const simdb::TxnResult& r) { outcome = r.outcome; });
  sim.run_until(TimePoint{5'000'000});
  EXPECT_EQ(outcome, TxnOutcome::kCommitted);
}

TEST(Provisioning, ConcurrentDeleteAndReaderSerializes) {
  // A reader that observed the object and a deleter that tombstones it:
  // OCC-DATI orders the reader before the deleter (no restart), and a
  // reader arriving after the delete observes the tombstone's wts.
  EngineRig rig;
  txn::TxnProgram setup;
  setup.insert(5, val("victim"));
  ASSERT_EQ(rig.run(std::move(setup)), TxnOutcome::kCommitted);

  txn::Transaction reader(90, 90, [] {
    txn::TxnProgram p;
    p.read(5);
    p.read(5);
    return p;
  }(), TimePoint{0}, TimePoint::max());
  rig.engine.begin(reader);
  ASSERT_EQ(rig.engine.step(reader).action, engine::StepAction::kContinue);

  txn::TxnProgram del;
  del.erase(5);
  ASSERT_EQ(rig.run(std::move(del)), TxnOutcome::kCommitted);

  // The reader re-reads object 5: the version changed (tombstone) -> the
  // single-version store forces a restart.
  EXPECT_EQ(rig.engine.step(reader).action, engine::StepAction::kRestarted);
}

TEST(Provisioning, TraceRoundTripWithProvisioningOps) {
  workload::Trace trace;
  txn::TxnProgram p;
  p.insert(7, num("0800777777"), val("payload-bytes"));
  p.erase(8, num("0800888888"));
  p.erase(9);
  trace.append(workload::TraceEntry{10_ms, std::move(p)});

  ByteWriter w;
  trace.encode(w);
  auto loaded = workload::Trace::decode(w.view());
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  ASSERT_EQ(loaded.value().size(), 1u);
  const txn::TxnProgram& q = loaded.value().entries()[0].program;
  ASSERT_EQ(q.ops.size(), 3u);
  const auto* ins = std::get_if<txn::InsertOp>(&q.ops[0]);
  ASSERT_NE(ins, nullptr);
  EXPECT_EQ(ins->oid, 7u);
  EXPECT_TRUE(ins->has_key);
  EXPECT_EQ(ins->key, num("0800777777"));
  EXPECT_EQ(ins->value, val("payload-bytes"));
  const auto* del = std::get_if<txn::DeleteOp>(&q.ops[1]);
  ASSERT_NE(del, nullptr);
  EXPECT_TRUE(del->has_key);
  const auto* del2 = std::get_if<txn::DeleteOp>(&q.ops[2]);
  ASSERT_NE(del2, nullptr);
  EXPECT_FALSE(del2->has_key);
}

}  // namespace
}  // namespace rodain
