// The checkpoint format end to end: the chain container a join ships, the
// base file the chain writer persists, and the loader recovery runs.
#include "rodain/storage/fuzzy_checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "rodain/common/rng.hpp"

namespace rodain::storage {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("rodain_ckpt_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const char* name) { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

void fill(ObjectStore& store, BPlusTree& index, std::size_t n, Rng& rng) {
  for (ObjectId i = 0; i < n; ++i) {
    std::string v(rng.next_below(120) + 1, static_cast<char>('a' + i % 26));
    store.upsert(i, Value{std::string_view{v}}, rng.next_below(1000));
    index.insert(IndexKey::from_u64(i), i);
  }
}

std::vector<std::byte> live_chain(const ObjectStore& store,
                                  const BPlusTree* index, ValidationTs at) {
  return encode_live_chain(store, index, at);
}

void flip_byte(const std::string& file, long offset) {
  std::FILE* f = std::fopen(file.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, offset, SEEK_SET);
  const int byte = std::fgetc(f);
  std::fseek(f, offset, SEEK_SET);
  std::fputc(byte ^ 0x40, f);
  std::fclose(f);
}

TEST_F(CheckpointTest, EncodeDecodeRoundTrip) {
  // The live chain (join wire format) and the snapshot base (the writer's
  // file format) both carry every record and the index.
  ObjectStore src;
  BPlusTree index;
  Rng rng(1);
  fill(src, index, 500, rng);
  src.tombstone(7, 2000);  // bases compact tombstones away
  index.erase(IndexKey::from_u64(7));

  src.snapshot_begin();
  ByteWriter base;
  encode_fuzzy_base(src, index, 4242, base);
  src.snapshot_end();

  for (int pass = 0; pass < 2; ++pass) {
    ObjectStore dst;
    BPlusTree dst_index;
    auto meta = pass == 0
                    ? decode_chain(live_chain(src, &index, 4242), dst,
                                   &dst_index)
                    : decode_fuzzy_base(base.view(), dst, &dst_index);
    ASSERT_TRUE(meta.is_ok()) << meta.status().to_string();
    EXPECT_EQ(meta.value().last_applied, 4242u);
    EXPECT_EQ(meta.value().object_count, 499u);
    EXPECT_EQ(dst.size(), 499u);
    EXPECT_EQ(dst.find(7), nullptr);
    src.for_each([&](ObjectId id, const ObjectRecord& rec) {
      if (rec.deleted) return;
      const ObjectRecord* got = dst.find(id);
      ASSERT_NE(got, nullptr) << id;
      EXPECT_EQ(got->value, rec.value);
      EXPECT_EQ(got->wts, rec.wts);
    });
    EXPECT_EQ(dst_index.size(), 499u);
    EXPECT_EQ(dst_index.find(IndexKey::from_u64(42)), 42u);
    EXPECT_EQ(dst_index.find(IndexKey::from_u64(7)), std::nullopt);
  }
}

TEST_F(CheckpointTest, EmptyStoreRoundTrip) {
  ObjectStore src, dst;
  auto meta = decode_chain(live_chain(src, nullptr, 0), dst);
  ASSERT_TRUE(meta.is_ok()) << meta.status().to_string();
  EXPECT_EQ(dst.size(), 0u);
}

TEST_F(CheckpointTest, DecodeClearsPreviousContent) {
  ObjectStore src, dst;
  BPlusTree dst_index;
  src.upsert(1, Value{std::string_view{"fresh"}}, 1);
  dst.upsert(99, Value{std::string_view{"stale"}}, 1);
  dst_index.insert(IndexKey::from_u64(99), 99);
  ASSERT_TRUE(decode_chain(live_chain(src, nullptr, 1), dst, &dst_index));
  EXPECT_EQ(dst.find(99), nullptr);
  EXPECT_NE(dst.find(1), nullptr);
  EXPECT_EQ(dst_index.size(), 0u);
}

TEST_F(CheckpointTest, CorruptionDetected) {
  ObjectStore src;
  BPlusTree index;
  Rng rng(2);
  fill(src, index, 100, rng);
  auto bytes = live_chain(src, &index, 7);
  bytes[bytes.size() / 2] ^= std::byte{0x40};
  ObjectStore dst;
  auto meta = decode_chain(bytes, dst);
  ASSERT_FALSE(meta.is_ok());
  EXPECT_EQ(meta.status().code(), ErrorCode::kCorruption);
}

TEST_F(CheckpointTest, TruncationDetected) {
  ObjectStore src;
  BPlusTree index;
  Rng rng(3);
  fill(src, index, 100, rng);
  auto bytes = live_chain(src, &index, 7);
  bytes.resize(bytes.size() / 2);
  ObjectStore dst;
  EXPECT_FALSE(decode_chain(bytes, dst).is_ok());
}

TEST_F(CheckpointTest, TooShortBufferRejected) {
  ObjectStore dst;
  std::vector<std::byte> tiny(2);
  EXPECT_FALSE(decode_chain(tiny, dst).is_ok());
  EXPECT_FALSE(decode_fuzzy_base(tiny, dst, nullptr).is_ok());
}

TEST_F(CheckpointTest, FileRoundTrip) {
  ObjectStore src;
  BPlusTree index;
  Rng rng(4);
  fill(src, index, 1000, rng);
  ASSERT_TRUE(CheckpointChain(path("db.ckpt")).write(src, index, 123));

  ObjectStore dst;
  BPlusTree dst_index;
  auto meta = load_checkpoint_artifacts(path("db.ckpt"), dst, &dst_index);
  ASSERT_TRUE(meta.is_ok()) << meta.status().to_string();
  EXPECT_EQ(meta.value().last_applied, 123u);
  EXPECT_EQ(dst.size(), 1000u);
  EXPECT_EQ(dst_index.size(), 1000u);
}

TEST_F(CheckpointTest, MissingFileIsNotFound) {
  ObjectStore dst;
  auto meta = load_checkpoint_artifacts(path("nope.ckpt"), dst);
  ASSERT_FALSE(meta.is_ok());
  EXPECT_EQ(meta.status().code(), ErrorCode::kNotFound);
}

TEST_F(CheckpointTest, ZeroLengthFileIsNotFoundNotCorruption) {
  // Crash window between creating the file and the first write: treat it
  // as "no checkpoint yet" so recovery falls back to log-only replay
  // instead of refusing to start.
  const std::string p = manifest_path_for(path("empty.ckpt"));
  std::FILE* f = std::fopen(p.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  ObjectStore dst;
  auto meta = load_checkpoint_artifacts(path("empty.ckpt"), dst);
  ASSERT_FALSE(meta.is_ok());
  EXPECT_EQ(meta.status().code(), ErrorCode::kNotFound);
}

TEST_F(CheckpointTest, CorruptFileLeavesStoreUntouched) {
  // The CRC is verified before any object is installed, so a corrupt
  // checkpoint never clobbers the store the caller passed in — that is
  // what makes the log-only recovery fallback safe.
  ObjectStore src;
  BPlusTree index;
  Rng rng(5);
  fill(src, index, 50, rng);
  CheckpointChain chain(path("db.ckpt"));
  ASSERT_TRUE(chain.write(src, index, 9));
  flip_byte(sibling_path(path("db.ckpt"), chain.manifest().entries[0].file),
            40);
  ObjectStore dst;
  dst.upsert(1234, Value{std::string_view{"keep"}}, 1);
  auto meta = load_checkpoint_artifacts(path("db.ckpt"), dst);
  ASSERT_FALSE(meta.is_ok());
  EXPECT_EQ(meta.status().code(), ErrorCode::kCorruption);
  ASSERT_NE(dst.find(1234), nullptr);
  EXPECT_EQ(dst.find(1234)->value, Value{std::string_view{"keep"}});
}

TEST_F(CheckpointTest, MissingArtifactIsCorruption) {
  // The manifest vouches for every file it names: a missing one is damage,
  // not "no checkpoint" (which would replay the log over a half-loaded
  // chain, from a boundary the log may be truncated above).
  ObjectStore src;
  BPlusTree index;
  src.upsert(1, Value{std::string_view{"v"}}, 1);
  CheckpointChain chain(path("db.ckpt"));
  ASSERT_TRUE(chain.write(src, index, 1));
  src.upsert(2, Value{std::string_view{"w"}}, 2);
  ASSERT_TRUE(chain.write(src, index, 2));
  ASSERT_EQ(chain.manifest().entries.size(), 2u);
  std::filesystem::remove(
      sibling_path(path("db.ckpt"), chain.manifest().entries[1].file));
  ObjectStore dst;
  auto meta = load_checkpoint_artifacts(path("db.ckpt"), dst);
  ASSERT_FALSE(meta.is_ok());
  EXPECT_EQ(meta.status().code(), ErrorCode::kCorruption);
  EXPECT_EQ(read_artifact_chain_bytes(path("db.ckpt")).status().code(),
            ErrorCode::kCorruption);
}

TEST_F(CheckpointTest, OverwriteIsAtomicStyle) {
  // A second writer (a later process) replaces the chain: the new manifest
  // names only its own base, and the replaced base is pruned.
  ObjectStore a, b, dst;
  BPlusTree a_index, b_index;
  a.upsert(1, Value{std::string_view{"v1"}}, 1);
  b.upsert(2, Value{std::string_view{"v2"}}, 2);
  ASSERT_TRUE(CheckpointChain(path("db.ckpt")).write(a, a_index, 1));
  ASSERT_TRUE(CheckpointChain(path("db.ckpt")).write(b, b_index, 2));
  auto meta = load_checkpoint_artifacts(path("db.ckpt"), dst);
  ASSERT_TRUE(meta.is_ok());
  EXPECT_EQ(meta.value().last_applied, 2u);
  EXPECT_NE(dst.find(2), nullptr);
  EXPECT_EQ(dst.find(1), nullptr);
  // Only the manifest and the one base it names are left: no stray temp
  // file, no replaced artifact.
  std::size_t files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 2u);
}

TEST_F(CheckpointTest, FailedRenameUnlinksTempFile) {
  // Make the artifact's rename fail by occupying its name with a non-empty
  // directory (a fresh store's first capture epoch is 1). The write must
  // fail, clean up its `.tmp`, and leave no manifest naming the artifact.
  ObjectStore src;
  BPlusTree index;
  src.upsert(1, Value{std::string_view{"x"}}, 1);
  const std::string target = path("occupied.b1");
  std::filesystem::create_directories(target + "/sub");
  ASSERT_FALSE(CheckpointChain(path("occupied")).write(src, index, 1));
  EXPECT_FALSE(std::filesystem::exists(target + ".tmp"));
  EXPECT_FALSE(std::filesystem::exists(manifest_path_for(path("occupied"))));
}

}  // namespace
}  // namespace rodain::storage
