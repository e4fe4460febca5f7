#include "rodain/storage/fuzzy_checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "rodain/common/diag.hpp"
#include "rodain/obs/obs.hpp"

namespace rodain::storage {

namespace {

constexpr std::uint8_t kKindBase = 0;
constexpr std::uint8_t kKindDelta = 1;
constexpr std::uint8_t kFlagTombstone = 0x1;
constexpr std::uint32_t kChainVersion = 1;
constexpr std::size_t kIndexScanChunk = 512;

/// Strip + verify the trailing CRC; returns the body span.
Result<std::span<const std::byte>> checked_body(
    std::span<const std::byte> data) {
  if (data.size() < 4) {
    return Status::error(ErrorCode::kCorruption, "checkpoint too short");
  }
  const auto body = data.subspan(0, data.size() - 4);
  ByteReader crc_reader(data.subspan(data.size() - 4));
  std::uint32_t expect = 0;
  if (auto s = crc_reader.get_u32(expect); !s) return s;
  if (crc32c(body) != expect) {
    return Status::error(ErrorCode::kCorruption, "checkpoint CRC mismatch");
  }
  return body;
}

/// Parse the fixed v3 header; leaves `r` positioned at the record count.
/// The capture and floor epochs are the writer's bookkeeping: skipped.
Status parse_fuzzy_header(ByteReader& r, bool& delta, ValidationTs& boundary) {
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::uint8_t kind = 0;
  std::uint64_t epoch = 0;
  if (auto s = r.get_u64(magic); !s) return s;
  if (magic != kCheckpointMagic) {
    return Status::error(ErrorCode::kCorruption, "bad checkpoint magic");
  }
  if (auto s = r.get_u32(version); !s) return s;
  if (version != kFuzzyVersion) {
    return Status::error(ErrorCode::kCorruption,
                         "unsupported fuzzy checkpoint version");
  }
  if (auto s = r.get_u8(kind); !s) return s;
  if (kind > kKindDelta) {
    return Status::error(ErrorCode::kCorruption, "bad fuzzy checkpoint kind");
  }
  delta = kind == kKindDelta;
  if (auto s = r.get_u64(boundary); !s) return s;
  if (auto s = r.get_u64(epoch); !s) return s;
  return r.get_u64(epoch);
}

Status apply_records(ByteReader& r, std::uint32_t count, ObjectStore& store) {
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint64_t id = 0;
    std::uint64_t wts = 0;
    std::uint8_t flags = 0;
    std::uint64_t len = 0;
    std::span<const std::byte> value;
    if (auto s = r.get_u64(id); !s) return s;
    if (auto s = r.get_u64(wts); !s) return s;
    if (auto s = r.get_u8(flags); !s) return s;
    if (auto s = r.get_varint(len); !s) return s;
    if (auto s = r.get_raw(static_cast<std::size_t>(len), value); !s) return s;
    if (flags & kFlagTombstone) {
      store.tombstone(id, wts);
    } else {
      store.upsert(id, Value{value}, wts);
    }
  }
  return Status::ok();
}

Status apply_index_ops(ByteReader& r, std::uint32_t count, BPlusTree* index) {
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint8_t kind = 0;
    std::span<const std::byte> raw;
    std::uint64_t oid = 0;
    if (auto s = r.get_u8(kind); !s) return s;
    if (kind > static_cast<std::uint8_t>(IndexOp::Kind::kErase)) {
      return Status::error(ErrorCode::kCorruption, "bad index op kind");
    }
    IndexKey key;
    if (auto s = r.get_raw(key.bytes.size(), raw); !s) return s;
    std::memcpy(key.bytes.data(), raw.data(), raw.size());
    if (auto s = r.get_varint(oid); !s) return s;
    if (!index) continue;
    if (kind == static_cast<std::uint8_t>(IndexOp::Kind::kUpsert)) {
      if (!index->insert(key, oid)) index->update(key, oid);
    } else {
      index->erase(key);  // idempotent: the key may already be gone
    }
  }
  return Status::ok();
}

void put_fuzzy_header(ByteWriter& out, std::uint8_t kind,
                      ValidationTs boundary, std::uint64_t capture_epoch,
                      std::uint64_t floor_epoch) {
  out.put_u64(kCheckpointMagic);
  out.put_u32(kFuzzyVersion);
  out.put_u8(kind);
  out.put_u64(boundary);
  out.put_u64(capture_epoch);
  out.put_u64(floor_epoch);
}

void put_record(ByteWriter& out, ObjectId id, const Value& value,
                ValidationTs wts, bool deleted) {
  out.put_u64(id);
  out.put_u64(wts);
  out.put_u8(deleted ? kFlagTombstone : 0);
  out.put_bytes(value.view());
}

void put_index_op(ByteWriter& out, IndexOp::Kind kind, const IndexKey& key,
                  ObjectId oid) {
  out.put_u8(static_cast<std::uint8_t>(kind));
  out.put_raw(std::as_bytes(std::span{key.bytes}));
  out.put_varint(oid);
}

void put_chain_header(ByteWriter& out, std::uint32_t parts) {
  out.put_u64(kChainMagic);
  out.put_u32(kChainVersion);
  out.put_u32(parts);
}

}  // namespace

FuzzyEncodeStats encode_fuzzy_base(ObjectStore& store, const BPlusTree& index,
                                   ValidationTs boundary, ByteWriter& out) {
  FuzzyEncodeStats stats;
  const std::size_t body_start = out.size();
  put_fuzzy_header(out, kKindBase, boundary, store.snapshot_epoch(), 0);
  const std::size_t record_count_at = out.size();
  out.put_u32(0);
  stats.scan = store.snapshot_scan(
      0, [&](ObjectId id, const Value& value, ValidationTs wts, bool deleted) {
        if (deleted) return;  // bases compact tombstones away
        put_record(out, id, value, wts, false);
        ++stats.records;
      });
  out.patch_u32(record_count_at, static_cast<std::uint32_t>(stats.records));

  // Full index dump as upsert ops: entries inserted or erased mid-scan are
  // reconciled by the change journal (next delta) and log replay past the
  // boundary — both idempotent.
  const std::size_t op_count_at = out.size();
  out.put_u32(0);
  index.chunked_scan(kIndexScanChunk, [&](const IndexKey& key, ObjectId oid) {
    put_index_op(out, IndexOp::Kind::kUpsert, key, oid);
    ++stats.index_ops;
  });
  out.patch_u32(op_count_at, static_cast<std::uint32_t>(stats.index_ops));
  out.put_u32(crc32c(out.view().subspan(body_start)));
  stats.bytes = out.size() - body_start;
  return stats;
}

FuzzyEncodeStats encode_fuzzy_delta(ObjectStore& store,
                                    std::span<const IndexOp> index_ops,
                                    ValidationTs boundary,
                                    std::uint64_t floor_epoch,
                                    ByteWriter& out) {
  FuzzyEncodeStats stats;
  const std::size_t body_start = out.size();
  put_fuzzy_header(out, kKindDelta, boundary, store.snapshot_epoch(),
                   floor_epoch);
  const std::size_t record_count_at = out.size();
  out.put_u32(0);
  stats.scan = store.snapshot_scan(
      floor_epoch,
      [&](ObjectId id, const Value& value, ValidationTs wts, bool deleted) {
        put_record(out, id, value, wts, deleted);
        ++stats.records;
      });
  out.patch_u32(record_count_at, static_cast<std::uint32_t>(stats.records));

  out.put_u32(static_cast<std::uint32_t>(index_ops.size()));
  for (const IndexOp& op : index_ops) {
    put_index_op(out, op.kind, op.key, op.oid);
  }
  out.put_u32(crc32c(out.view().subspan(body_start)));
  stats.index_ops = index_ops.size();
  stats.bytes = out.size() - body_start;
  return stats;
}

std::size_t chain_encode_reserve(const ObjectStore& store,
                                 const BPlusTree* index) {
  // Chain and fuzzy headers, counts, length and CRC.
  constexpr std::size_t kFixed = 128;
  // put_record: id, wts, flags and a length varint (a u32 size at most),
  // then the value; put_index_op: kind, key and an oid varint.
  constexpr std::size_t kRecord = 8 + 8 + 1 + 5;
  constexpr std::size_t kIndexOp = 1 + sizeof(IndexKey::bytes) + 10;
  return kFixed + store.size() * kRecord + store.value_bytes() +
         (index ? index->size() * kIndexOp : 0);
}

std::vector<std::byte> encode_live_chain(const ObjectStore& store,
                                         const BPlusTree* index,
                                         ValidationTs boundary) {
  ByteWriter out(chain_encode_reserve(store, index));
  put_chain_header(out, 1);
  const std::size_t length_at = out.size();
  out.put_u64(0);
  const std::size_t body_start = out.size();
  put_fuzzy_header(out, kKindBase, boundary, store.mutation_epoch(), 0);
  out.put_u32(static_cast<std::uint32_t>(store.live_size()));
  store.for_each([&](ObjectId id, const ObjectRecord& rec) {
    if (!rec.deleted) put_record(out, id, rec.value, rec.wts, false);
  });
  out.put_u32(static_cast<std::uint32_t>(index ? index->size() : 0));
  if (index) {
    index->range_scan(IndexKey::min(), IndexKey::max(),
                      [&](const IndexKey& key, ObjectId oid) {
                        put_index_op(out, IndexOp::Kind::kUpsert, key, oid);
                        return true;
                      });
  }
  out.put_u32(crc32c(out.view().subspan(body_start)));
  out.patch_u64(length_at, out.size() - body_start);
  return out.take();
}

namespace {

Result<CheckpointMeta> decode_fuzzy_body(std::span<const std::byte> data,
                                         ObjectStore& store, BPlusTree* index,
                                         bool expect_delta) {
  auto body = checked_body(data);
  if (!body.is_ok()) return body.status();
  ByteReader r(body.value());
  ValidationTs boundary = 0;
  bool delta = false;
  if (auto s = parse_fuzzy_header(r, delta, boundary); !s) return s;
  if (delta != expect_delta) {
    return Status::error(ErrorCode::kCorruption,
                         expect_delta ? "expected delta, found base"
                                      : "expected base, found delta");
  }
  if (!expect_delta) {
    store.clear();
    if (index) *index = BPlusTree{};
  }
  std::uint32_t record_count = 0;
  if (auto s = r.get_u32(record_count); !s) return s;
  if (auto s = apply_records(r, record_count, store); !s) return s;
  std::uint32_t op_count = 0;
  if (auto s = r.get_u32(op_count); !s) return s;
  if (auto s = apply_index_ops(r, op_count, index); !s) return s;
  if (!r.at_end()) {
    return Status::error(ErrorCode::kCorruption, "trailing checkpoint bytes");
  }
  CheckpointMeta out;
  out.last_applied = boundary;
  out.object_count = record_count;
  return out;
}

/// Read an artifact the manifest names. Missing is corruption, not "no
/// checkpoint": the manifest vouches for the file, and the log may already
/// be truncated below the boundary it covers.
Result<std::vector<std::byte>> read_artifact(const std::string& manifest_path,
                                             const ManifestEntry& e) {
  auto buf = read_file_bytes(sibling_path(manifest_path, e.file));
  if (buf.status().code() == ErrorCode::kNotFound) {
    return Status::error(ErrorCode::kCorruption,
                         "manifest names missing artifact " + e.file);
  }
  return buf;
}

}  // namespace

Result<CheckpointMeta> decode_fuzzy_base(std::span<const std::byte> data,
                                         ObjectStore& store,
                                         BPlusTree* index) {
  return decode_fuzzy_body(data, store, index, /*expect_delta=*/false);
}

Result<CheckpointMeta> apply_fuzzy_delta(std::span<const std::byte> data,
                                         ObjectStore& store,
                                         BPlusTree* index) {
  return decode_fuzzy_body(data, store, index, /*expect_delta=*/true);
}

void encode_chain(std::span<const std::vector<std::byte>> parts,
                  ByteWriter& out) {
  put_chain_header(out, static_cast<std::uint32_t>(parts.size()));
  for (const auto& part : parts) {
    out.put_u64(part.size());
    out.put_raw(part);
  }
}

Result<CheckpointMeta> decode_chain(std::span<const std::byte> data,
                                    ObjectStore& store, BPlusTree* index) {
  ByteReader r(data);
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t count = 0;
  if (auto s = r.get_u64(magic); !s) return s;
  if (magic != kChainMagic) {
    return Status::error(ErrorCode::kCorruption, "not a checkpoint chain");
  }
  if (auto s = r.get_u32(version); !s) return s;
  if (version != kChainVersion) {
    return Status::error(ErrorCode::kCorruption, "unsupported chain version");
  }
  if (auto s = r.get_u32(count); !s) return s;
  if (count == 0) {
    return Status::error(ErrorCode::kCorruption, "empty checkpoint chain");
  }
  CheckpointMeta meta;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint64_t len = 0;
    std::span<const std::byte> part;
    if (auto s = r.get_u64(len); !s) return s;
    if (auto s = r.get_raw(static_cast<std::size_t>(len), part); !s) return s;
    auto m = i == 0 ? decode_fuzzy_base(part, store, index)
                    : apply_fuzzy_delta(part, store, index);
    if (!m.is_ok()) return m.status();
    meta.last_applied = m.value().last_applied;
  }
  if (!r.at_end()) {
    return Status::error(ErrorCode::kCorruption, "trailing chain bytes");
  }
  meta.object_count = store.live_size();
  return meta;
}

Result<CheckpointMeta> load_checkpoint_artifacts(
    const std::string& checkpoint_path, ObjectStore& store, BPlusTree* index) {
  if (std::filesystem::exists(checkpoint_path)) {
    return Status::error(
        ErrorCode::kFailedPrecondition,
        "retired single-file checkpoint at " + checkpoint_path +
            ": the log may be truncated below its boundary, so recovery "
            "will not run without it");
  }
  const std::string manifest_path = manifest_path_for(checkpoint_path);
  auto manifest = read_manifest_file(manifest_path);
  if (!manifest.is_ok()) return manifest.status();
  const CkptManifest& m = manifest.value();
  if (m.entries.empty()) {
    return Status::error(ErrorCode::kCorruption, "empty checkpoint chain");
  }
  // Every artifact is read and its CRC checked before the store is
  // touched: a chain that does not load leaves the store as it was.
  std::vector<std::vector<std::byte>> parts;
  parts.reserve(m.entries.size());
  for (const ManifestEntry& e : m.entries) {
    auto buf = read_artifact(manifest_path, e);
    if (!buf.is_ok()) return buf.status();
    if (auto body = checked_body(buf.value()); !body.is_ok()) {
      return Status::error(ErrorCode::kCorruption,
                           e.file + ": " + body.status().message());
    }
    parts.push_back(std::move(buf).value());
  }
  CheckpointMeta meta;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    auto r = i == 0 ? decode_fuzzy_base(parts[i], store, index)
                    : apply_fuzzy_delta(parts[i], store, index);
    if (!r.is_ok()) return r.status();
    meta.last_applied = r.value().last_applied;
  }
  meta.object_count = store.live_size();
  return meta;
}

Result<CheckpointBytes> read_artifact_chain_bytes(
    const std::string& checkpoint_path) {
  const std::string manifest_path = manifest_path_for(checkpoint_path);
  auto manifest = read_manifest_file(manifest_path);
  if (!manifest.is_ok()) return manifest.status();
  const CkptManifest& m = manifest.value();
  if (m.entries.empty()) {
    return Status::error(ErrorCode::kCorruption, "empty checkpoint chain");
  }
  std::vector<std::vector<std::byte>> parts;
  parts.reserve(m.entries.size());
  for (const ManifestEntry& e : m.entries) {
    auto buf = read_artifact(manifest_path, e);
    if (!buf.is_ok()) return buf.status();
    parts.push_back(std::move(buf).value());
  }
  ByteWriter w;
  encode_chain(parts, w);
  return CheckpointBytes{w.take(), m.covered_boundary()};
}

// ----------------------------------------------------- chain writer ---

namespace {
struct ChainMetrics {
  obs::Counter& bytes_full = obs::metrics().counter("ckpt.bytes_full");
  obs::Counter& bytes_delta = obs::metrics().counter("ckpt.bytes_delta");
  obs::Gauge& dirty_ratio = obs::metrics().gauge("ckpt.dirty_ratio");
};
ChainMetrics& cm() {
  static ChainMetrics m;
  return m;
}
}  // namespace

CheckpointChain::CheckpointChain(std::string checkpoint_path,
                                 std::size_t delta_limit)
    : path_(std::move(checkpoint_path)), delta_limit_(delta_limit) {
  // A previous process's chain: never extended, pruned by the first write.
  // Unreadable, it names nothing this writer can prune.
  if (path_.empty()) return;
  if (auto m = read_manifest_file(manifest_path_for(path_)); m.is_ok()) {
    chain_ = std::move(m).value();
  }
}

Status CheckpointChain::write(ObjectStore& store, BPlusTree& index,
                              ValidationTs boundary) {
  Flip f = flip(store, index, boundary);
  Status s = encode(f, store, index);
  return finish(f, store, index, std::move(s));
}

CheckpointChain::Flip CheckpointChain::flip(ObjectStore& store,
                                            BPlusTree& index,
                                            ValidationTs boundary) {
  Flip f;
  // A base when there is no chain of this store to extend, when the chain
  // is long enough that replaying deltas would dominate recovery, or when
  // the index journal is off: never started, or reset with the index by a
  // snapshot install or a failed base.
  f.base = !extends_ || deltas_ >= delta_limit_ || !index.journal_enabled();
  f.boundary = boundary;
  f.floor_epoch = f.base ? 0 : floor_epoch_;
  f.capture_epoch = store.snapshot_begin();
  if (f.base) {
    index.set_journal(true);
  } else {
    f.journal = index.cut_journal();
  }
  return f;
}

Status CheckpointChain::encode(Flip& f, ObjectStore& store,
                               const BPlusTree& index) {
  ByteWriter w(chain_encode_reserve(store, &index));
  f.stats = f.base ? encode_fuzzy_base(store, index, f.boundary, w)
                   : encode_fuzzy_delta(store, f.journal, f.boundary,
                                        f.floor_epoch, w);
  // chain_ is read here without exclusion: only finish() changes it, and
  // the caller runs one write at a time.
  if (!f.base) f.next = chain_;
  f.next.entries.push_back(
      {f.base ? ManifestEntry::Kind::kBase : ManifestEntry::Kind::kDelta,
       f.boundary, f.capture_epoch, f.stats.bytes,
       fresh_name(f.base, f.capture_epoch)});
  const std::string artifact = sibling_path(path_, f.next.entries.back().file);
  Status s = write_file_atomic(artifact, w.view());
  if (!s) return s;
  s = write_manifest_file(f.next, manifest_path_for(path_));
  if (!s) std::remove(artifact.c_str());  // unreferenced artifact: delete it
  return s;
}

Status CheckpointChain::finish(Flip& f, ObjectStore& store, BPlusTree& index,
                               Status encoded) {
  store.snapshot_end();
  if (!encoded) {
    if (f.base) {
      // The journal started at this flip covers only ops since a base that
      // never landed; a later delta must not chain onto it.
      index.set_journal(false);
    } else {
      index.restore_journal(std::move(f.journal));  // the next delta re-covers
    }
    return encoded;
  }
  // Prune what the new manifest no longer names: the whole replaced chain
  // after a base, nothing after a delta.
  for (const ManifestEntry& old : chain_.entries) {
    const bool kept = std::any_of(
        f.next.entries.begin(), f.next.entries.end(),
        [&](const ManifestEntry& e) { return e.file == old.file; });
    if (!kept) std::remove(sibling_path(path_, old.file).c_str());
  }
  chain_ = std::move(f.next);
  extends_ = true;
  deltas_ = f.base ? 0 : deltas_ + 1;
  floor_epoch_ = f.capture_epoch;
  if (f.base) {
    cm().bytes_full.inc(f.stats.bytes);
    cm().dirty_ratio.set(1.0);
  } else {
    cm().bytes_delta.inc(f.stats.bytes);
    const std::size_t live = store.size();
    cm().dirty_ratio.set(live == 0 ? 0.0
                                   : static_cast<double>(f.stats.records) /
                                         static_cast<double>(live));
  }
  RODAIN_INFO("checkpoint %s: %s at boundary %llu (epoch %llu, %llu records, "
              "%llu bytes)",
              chain_.entries.back().file.c_str(), f.base ? "base" : "delta",
              static_cast<unsigned long long>(f.boundary),
              static_cast<unsigned long long>(f.capture_epoch),
              static_cast<unsigned long long>(f.stats.records),
              static_cast<unsigned long long>(f.stats.bytes));
  return encoded;
}

std::string CheckpointChain::fresh_name(bool base, std::uint64_t n) const {
  // Capture epochs restart with every process, so an epoch can repeat a
  // name the current manifest lists. Renaming over it would chain the
  // listed deltas onto the new base if a crash hit before the new manifest.
  const std::string stem =
      std::filesystem::path(path_).filename().string() + (base ? ".b" : ".d");
  const auto listed = [&](const std::string& name) {
    return std::any_of(chain_.entries.begin(), chain_.entries.end(),
                       [&](const ManifestEntry& e) { return e.file == name; });
  };
  while (listed(stem + std::to_string(n))) ++n;
  return stem + std::to_string(n);
}

}  // namespace rodain::storage
