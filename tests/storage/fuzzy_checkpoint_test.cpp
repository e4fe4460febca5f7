// Fuzzy checkpoint properties (DESIGN.md §15): the copy-on-write snapshot
// walk must reproduce exactly the flip-time state no matter what concurrent
// committers do during the encode, and a base+delta chain must recover to
// the same store/index/wts state as a stop-the-world copy of the store
// taken at the same boundary.
#include "rodain/storage/fuzzy_checkpoint.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <thread>
#include <vector>

#include "rodain/common/rng.hpp"
#include "rodain/storage/ckpt_manifest.hpp"
#include "rodain/workload/number_translation.hpp"

namespace rodain::storage {
namespace {

class FuzzyCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("rodain_fuzzy_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const char* name) { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

Value val(std::string_view s) { return Value{s}; }

std::string to_str(const Value& v) {
  auto s = v.view();
  return std::string(reinterpret_cast<const char*>(s.data()), s.size());
}

/// Snapshot of one record for state comparison.
struct Expected {
  std::string value;
  ValidationTs wts;
  bool deleted;
};
using StateMap = std::map<ObjectId, Expected>;

StateMap capture(const ObjectStore& store) {
  StateMap m;
  store.for_each([&](ObjectId id, const ObjectRecord& rec) {
    m[id] = {to_str(rec.value), rec.wts, rec.deleted};
  });
  return m;
}

void expect_same_state(const ObjectStore& got, const StateMap& want) {
  StateMap g = capture(got);
  // Tombstones may differ in representation after a base (compacted away)
  // vs live state; compare live content and explicit tombstones separately.
  for (const auto& [id, e] : want) {
    auto it = g.find(id);
    if (e.deleted) {
      // A tombstone either survives as a tombstone or is compacted out.
      if (it != g.end()) {
        EXPECT_TRUE(it->second.deleted) << "oid " << id;
      }
      continue;
    }
    ASSERT_NE(it, g.end()) << "missing oid " << id;
    EXPECT_EQ(it->second.value, e.value) << "oid " << id;
    EXPECT_EQ(it->second.wts, e.wts) << "oid " << id;
    EXPECT_FALSE(it->second.deleted) << "oid " << id;
  }
  for (const auto& [id, e] : g) {
    if (!e.deleted) {
      auto it = want.find(id);
      ASSERT_NE(it, want.end()) << "extra oid " << id;
      EXPECT_FALSE(it->second.deleted) << "oid " << id;
    }
  }
}

std::vector<std::pair<IndexKey, ObjectId>> dump_index(const BPlusTree& t) {
  std::vector<std::pair<IndexKey, ObjectId>> out;
  t.chunked_scan(
      128, [&](const IndexKey& k, ObjectId v) { out.emplace_back(k, v); });
  return out;
}

TEST_F(FuzzyCheckpointTest, BaseMatchesStopTheWorldAtFlip) {
  ObjectStore store;
  BPlusTree index;
  Rng rng(11);
  for (ObjectId i = 0; i < 400; ++i) {
    store.upsert(i, val(std::string(1 + rng.next_below(60), 'a' + i % 26)),
                 i + 1);
    index.insert(IndexKey::from_u64(i), i);
  }
  // Reference: stop-the-world capture of the flip-time state.
  const StateMap reference = capture(store);
  const auto ref_index = dump_index(index);

  store.snapshot_begin();
  // Post-flip mutations: overwrites, new inserts, erases. None of these may
  // leak into the encoded base.
  for (ObjectId i = 0; i < 100; ++i) {
    store.upsert(i, val("post-flip"), 9000 + i);
  }
  for (ObjectId i = 1000; i < 1050; ++i) store.upsert(i, val("born-late"), 1);
  for (ObjectId i = 200; i < 220; ++i) store.erase(i);
  ByteWriter w;
  auto stats = encode_fuzzy_base(store, index, 4242, w);
  store.snapshot_end();
  EXPECT_EQ(stats.records, 400u);

  ObjectStore dst;
  BPlusTree dst_index;
  auto meta = decode_fuzzy_base(w.view(), dst, &dst_index);
  ASSERT_TRUE(meta.is_ok()) << meta.status().to_string();
  EXPECT_EQ(meta.value().last_applied, 4242u);
  expect_same_state(dst, reference);
  EXPECT_EQ(dump_index(dst_index), ref_index);
}

TEST_F(FuzzyCheckpointTest, DeltaChainEquivalentToStopTheWorld) {
  // Property: recovering base + ordered deltas yields exactly the same
  // store/index/wts state as a stop-the-world copy of the store at the last
  // flip. Writers are quiesced at each flip so the reference is exact.
  ObjectStore store;
  BPlusTree index;
  Rng rng(13);
  for (ObjectId i = 0; i < 300; ++i) {
    store.upsert(i, val(std::string(1 + rng.next_below(40), 'x')), i + 1);
    index.insert(IndexKey::from_u64(i), i);
  }

  std::vector<std::vector<std::byte>> parts;
  // Base at epoch E.
  std::uint64_t floor = store.snapshot_begin();
  index.set_journal(true);
  {
    ByteWriter w;
    encode_fuzzy_base(store, index, 100, w);
    parts.push_back(w.take());
  }
  store.snapshot_end();

  // Two delta rounds of mixed mutations.
  for (int round = 0; round < 2; ++round) {
    for (int m = 0; m < 120; ++m) {
      const ObjectId id = rng.next_below(350);
      switch (rng.next_below(4)) {
        case 0:
          store.upsert(id, val("round" + std::to_string(round)), 200 + m);
          if (!index.insert(IndexKey::from_u64(id), id)) {
            index.update(IndexKey::from_u64(id), id);
          }
          break;
        case 1:
          store.tombstone(id, 200 + m);
          index.erase(IndexKey::from_u64(id));
          break;
        case 2:
          // Delete-then-reinsert churn. Hard erase() is compaction-only
          // (offline, never on a serving store): every runtime delete is a
          // tombstone, which keeps the record walkable for the delta.
          store.tombstone(id, 200 + m);
          index.erase(IndexKey::from_u64(id));
          store.upsert(id, val("resurrect"), 201 + m);
          index.insert(IndexKey::from_u64(id), id);
          break;
        default:
          store.upsert(id + 400, val("new"), 200 + m);
          index.insert(IndexKey::from_u64(id + 400), id + 400);
          break;
      }
    }
    const std::uint64_t capture_epoch = store.snapshot_begin();
    auto journal = index.cut_journal();
    ByteWriter w;
    encode_fuzzy_delta(store, journal, 100 + 10 * (round + 1), floor, w);
    parts.push_back(w.take());
    store.snapshot_end();
    floor = capture_epoch;
  }
  const StateMap reference = capture(store);
  const auto ref_index = dump_index(index);

  // Recover: base then deltas in order.
  ObjectStore dst;
  BPlusTree dst_index;
  ASSERT_TRUE(decode_fuzzy_base(parts[0], dst, &dst_index).is_ok());
  for (std::size_t i = 1; i < parts.size(); ++i) {
    auto meta = apply_fuzzy_delta(parts[i], dst, &dst_index);
    ASSERT_TRUE(meta.is_ok()) << meta.status().to_string();
  }
  expect_same_state(dst, reference);
  EXPECT_EQ(dump_index(dst_index), ref_index);

  // The same chain shipped as one container blob decodes identically.
  ByteWriter chain;
  encode_chain(parts, chain);
  ObjectStore dst2;
  BPlusTree dst2_index;
  auto meta = decode_chain(chain.view(), dst2, &dst2_index);
  ASSERT_TRUE(meta.is_ok()) << meta.status().to_string();
  expect_same_state(dst2, reference);
  EXPECT_EQ(dump_index(dst2_index), ref_index);
}

TEST_F(FuzzyCheckpointTest, ErasedRecordStillReachesTheSnapshot) {
  ObjectStore store;
  store.upsert(7, val("keep-me"), 3);
  store.upsert(8, val("other"), 4);
  const StateMap reference = capture(store);

  store.snapshot_begin();
  ASSERT_TRUE(store.erase(7));  // pre-image must be retained
  store.tombstone(8, 99);       // ditto (overwritten in place)
  std::map<ObjectId, std::pair<std::string, bool>> seen;
  store.snapshot_scan(0, [&](ObjectId id, const Value& v, ValidationTs,
                             bool deleted) {
    seen[id] = {to_str(v), deleted};
  });
  store.snapshot_end();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[7].first, "keep-me");
  EXPECT_FALSE(seen[7].second);
  EXPECT_EQ(seen[8].first, "other");
  EXPECT_FALSE(seen[8].second);
  (void)reference;
}

TEST_F(FuzzyCheckpointTest, DeltaCarriesTombstones) {
  ObjectStore store;
  store.upsert(1, val("a"), 1);
  store.upsert(2, val("b"), 1);
  std::uint64_t floor = store.snapshot_begin();
  { ByteWriter w; encode_fuzzy_base(store, BPlusTree{}, 10, w); }
  store.snapshot_end();

  store.tombstone(1, 5);
  store.snapshot_begin();
  ByteWriter w;
  auto stats = encode_fuzzy_delta(store, {}, 20, floor, w);
  store.snapshot_end();
  EXPECT_EQ(stats.records, 1u);  // only the dirtied record

  ObjectStore dst;
  dst.upsert(1, val("a"), 1);
  dst.upsert(2, val("b"), 1);
  ASSERT_TRUE(apply_fuzzy_delta(w.view(), dst, nullptr).is_ok());
  ASSERT_NE(dst.find(1), nullptr);
  EXPECT_TRUE(dst.find(1)->deleted);
  ASSERT_NE(dst.find(2), nullptr);
  EXPECT_FALSE(dst.find(2)->deleted);
}

TEST_F(FuzzyCheckpointTest, ConcurrentCommittersNeverLeakPastTheFlip) {
  // The CoW hammer: freeze a known reference state, flip, then let writer
  // threads overwrite everything while the walker runs. The scan must
  // reproduce the reference exactly — every divergence is a retain-path
  // race. TSan/ASan runs of this test are the §15 memory-model check.
  ObjectStore store;
  constexpr ObjectId kObjects = 2000;
  for (ObjectId i = 0; i < kObjects; ++i) {
    store.upsert(i, val("v0-" + std::to_string(i)), i + 1);
  }
  const StateMap reference = capture(store);

  for (int iter = 0; iter < 4; ++iter) {
    store.snapshot_begin();
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    const unsigned n_writers = 4;
    for (unsigned t = 0; t < n_writers; ++t) {
      writers.emplace_back([&, t] {
        Rng rng(1000 + t);
        while (!stop.load(std::memory_order_relaxed)) {
          const ObjectId id = rng.next_below(kObjects + 200);
          switch (rng.next_below(8)) {
            case 0:
              store.erase(id);
              break;
            case 1:
              store.tombstone(id, 777);
              break;
            default:
              store.upsert(id, val("dirty"), 888);
              break;
          }
        }
      });
    }
    StateMap scanned;
    store.snapshot_scan(0, [&](ObjectId id, const Value& v, ValidationTs wts,
                               bool deleted) {
      auto [it, fresh] =
          scanned.emplace(id, Expected{to_str(v), wts, deleted});
      EXPECT_TRUE(fresh) << "duplicate emit for oid " << id;
    });
    stop.store(true, std::memory_order_relaxed);
    for (auto& th : writers) th.join();
    store.snapshot_end();

    ASSERT_EQ(scanned.size(), reference.size()) << "iter " << iter;
    for (const auto& [id, e] : reference) {
      auto it = scanned.find(id);
      ASSERT_NE(it, scanned.end()) << "iter " << iter << " oid " << id;
      EXPECT_EQ(it->second.value, e.value) << "iter " << iter << " oid " << id;
      EXPECT_EQ(it->second.wts, e.wts) << "iter " << iter << " oid " << id;
    }
    // Restore the reference state for the next iteration (serial phase).
    store.clear();
    for (ObjectId i = 0; i < kObjects; ++i) {
      store.upsert(i, val("v0-" + std::to_string(i)), i + 1);
    }
  }
}

TEST_F(FuzzyCheckpointTest, ManifestRoundTripAndValidation) {
  CkptManifest m;
  m.entries.push_back({ManifestEntry::Kind::kBase, 100, 5, 4096, "db.ckpt.b5"});
  m.entries.push_back({ManifestEntry::Kind::kDelta, 150, 6, 128, "db.ckpt.d6"});
  m.entries.push_back({ManifestEntry::Kind::kDelta, 170, 9, 256, "db.ckpt.d9"});
  ASSERT_TRUE(write_manifest_file(m, path("db.ckpt.manifest")));
  auto got = read_manifest_file(path("db.ckpt.manifest"));
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  ASSERT_EQ(got.value().entries.size(), 3u);
  EXPECT_EQ(got.value().covered_boundary(), 170u);
  EXPECT_EQ(got.value().entries[2].file, "db.ckpt.d9");

  // Corruption detected.
  {
    std::FILE* f = std::fopen(path("db.ckpt.manifest").c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 20, SEEK_SET);
    const int b = std::fgetc(f);
    std::fseek(f, 20, SEEK_SET);
    std::fputc(b ^ 0x10, f);
    std::fclose(f);
  }
  EXPECT_FALSE(read_manifest_file(path("db.ckpt.manifest")).is_ok());

  // Structural rejects: delta before base, non-monotone epochs.
  CkptManifest bad;
  bad.entries.push_back({ManifestEntry::Kind::kDelta, 10, 1, 1, "x.d1"});
  ByteWriter w;
  encode_manifest(bad, w);
  EXPECT_FALSE(decode_manifest(w.view()).is_ok());

  CkptManifest bad2 = m;
  bad2.entries[2].capture_epoch = 6;  // duplicate epoch
  ByteWriter w2;
  encode_manifest(bad2, w2);
  EXPECT_FALSE(decode_manifest(w2.view()).is_ok());
}

TEST_F(FuzzyCheckpointTest, LoaderPrefersFresherArtifactAndFallsBack) {
  // The manifest is the only source: its chain at boundary 80 loads.
  ObjectStore new_state;
  new_state.upsert(1, val("new"), 2);
  new_state.snapshot_begin();
  ByteWriter w;
  auto stats = encode_fuzzy_base(new_state, BPlusTree{}, 80, w);
  new_state.snapshot_end();
  ASSERT_TRUE(write_file_atomic(path("db.ckpt.b1"), w.view()));
  CkptManifest m;
  m.entries.push_back(
      {ManifestEntry::Kind::kBase, 80, 1, stats.bytes, "db.ckpt.b1"});
  ASSERT_TRUE(write_manifest_file(m, manifest_path_for(path("db.ckpt"))));

  ObjectStore dst;
  auto meta = load_checkpoint_artifacts(path("db.ckpt"), dst);
  ASSERT_TRUE(meta.is_ok()) << meta.status().to_string();
  EXPECT_EQ(meta.value().last_applied, 80u);
  EXPECT_EQ(to_str(dst.find(1)->value), "new");

  // A stray delta file the manifest does not reference is ignored (crash
  // between delta write and manifest update).
  const char garbage[] = "garbage";
  ASSERT_TRUE(write_file_atomic(
      path("db.ckpt.d9"), std::as_bytes(std::span<const char>(garbage, 7))));
  ObjectStore dst2;
  auto meta2 = load_checkpoint_artifacts(path("db.ckpt"), dst2);
  ASSERT_TRUE(meta2.is_ok());
  EXPECT_EQ(meta2.value().last_applied, 80u);
  EXPECT_EQ(to_str(dst2.find(1)->value), "new");

  // Corrupt the chain's base: the loader reports corruption (recovery then
  // falls back to replaying the whole log).
  {
    std::FILE* f = std::fopen(path("db.ckpt.b1").c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 30, SEEK_SET);
    const int b = std::fgetc(f);
    std::fseek(f, 30, SEEK_SET);
    std::fputc(b ^ 0x20, f);
    std::fclose(f);
  }
  ObjectStore dst3;
  auto meta3 = load_checkpoint_artifacts(path("db.ckpt"), dst3);
  ASSERT_FALSE(meta3.is_ok());
  EXPECT_EQ(meta3.status().code(), ErrorCode::kCorruption);

  // Nothing at all → kNotFound.
  ObjectStore dst4;
  auto meta4 = load_checkpoint_artifacts(path("absent.ckpt"), dst4);
  ASSERT_FALSE(meta4.is_ok());
  EXPECT_EQ(meta4.status().code(), ErrorCode::kNotFound);
}

TEST_F(FuzzyCheckpointTest, ChainBytesServeJoinsWithCoveredBoundary) {
  ObjectStore store;
  store.upsert(1, val("a"), 1);
  std::uint64_t floor = store.snapshot_begin();
  ByteWriter base;
  auto bstats = encode_fuzzy_base(store, BPlusTree{}, 10, base);
  store.snapshot_end();
  store.upsert(2, val("b"), 2);
  store.snapshot_begin();
  ByteWriter delta;
  auto dstats = encode_fuzzy_delta(store, {}, 20, floor, delta);
  store.snapshot_end();
  ASSERT_TRUE(write_file_atomic(path("db.ckpt.b1"), base.view()));
  ASSERT_TRUE(write_file_atomic(path("db.ckpt.d2"), delta.view()));
  CkptManifest m;
  m.entries.push_back(
      {ManifestEntry::Kind::kBase, 10, 1, bstats.bytes, "db.ckpt.b1"});
  m.entries.push_back(
      {ManifestEntry::Kind::kDelta, 20, 2, dstats.bytes, "db.ckpt.d2"});
  ASSERT_TRUE(write_manifest_file(m, manifest_path_for(path("db.ckpt"))));

  auto bytes = read_artifact_chain_bytes(path("db.ckpt"));
  ASSERT_TRUE(bytes.is_ok()) << bytes.status().to_string();
  EXPECT_EQ(bytes.value().boundary, 20u);
  ObjectStore dst;
  auto meta = decode_chain(bytes.value().bytes, dst);
  ASSERT_TRUE(meta.is_ok()) << meta.status().to_string();
  EXPECT_EQ(meta.value().last_applied, 20u);
  EXPECT_EQ(dst.size(), 2u);
}


TEST(ChainEncodeReserve, CoversABaseAndALiveChainWithoutWaste) {
  // The number-translation database at two profile sizes: values that fit
  // inline and values that live on the heap.
  for (const std::size_t profile : {32u, 200u}) {
    workload::DatabaseConfig db;
    db.num_objects = 3000;
    db.profile_bytes = profile;
    ObjectStore store(db.num_objects);
    BPlusTree index;
    workload::load_database(db, store, index);
    const std::size_t reserve = chain_encode_reserve(store, &index);

    store.snapshot_begin();
    ByteWriter w;
    const auto base = encode_fuzzy_base(store, index, 7, w);
    store.snapshot_end();
    const std::size_t live = encode_live_chain(store, &index, 7).size();
    for (const std::size_t bytes : {base.bytes, live}) {
      EXPECT_GE(reserve, bytes) << "profile " << profile;
      EXPECT_LE(static_cast<double>(reserve), 1.25 * static_cast<double>(bytes))
          << "profile " << profile;
    }
  }
}

}  // namespace
}  // namespace rodain::storage
