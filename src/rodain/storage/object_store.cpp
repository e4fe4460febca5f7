#include "rodain/storage/object_store.hpp"

#include <bit>
#include <cassert>
#include <mutex>
#include <thread>
#include <utility>

#include "rodain/obs/obs.hpp"

namespace rodain::storage {

namespace {
std::size_t next_pow2(std::size_t n) {
  return std::bit_ceil(n < 16 ? std::size_t{16} : n);
}

struct StoreMetrics {
  obs::Counter& rehash_fences = obs::metrics().counter("store.rehash_fences");
  obs::Counter& records_retained =
      obs::metrics().counter("ckpt.records_retained");
};
StoreMetrics& sm() {
  static StoreMetrics m;
  return m;
}
}  // namespace

ObjectStore::ObjectStore(std::size_t expected_objects) {
  slots_.resize(next_pow2(expected_objects * 2));
}

std::size_t ObjectStore::hash_of(ObjectId id) {
  // Fibonacci/xor-fold mix; ObjectIds are often sequential.
  std::uint64_t x = id + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<std::size_t>(x ^ (x >> 31));
}

Status ObjectStore::insert(ObjectId id, Value value) {
  std::unique_lock fence(table_mu_);
  sm().rehash_fences.inc();
  if (locate(id) != nullptr) {
    return Status::error(ErrorCode::kAlreadyExists, "object id taken");
  }
  ObjectRecord rec;
  resize_value(0, value.size());
  rec.value = std::move(value);
  rec.dirty_epoch = epoch_.load(std::memory_order_relaxed);
  insert_internal(id, std::move(rec));
  return Status::ok();
}

ObjectRecord& ObjectStore::upsert(ObjectId id, Value value, ValidationTs wts) {
  // Fast path: overwrite the record in place under its seqlock, holding
  // only the shared table lock — structural mutators (unique holders)
  // cannot move the slot underneath us, and installers of the same oid are
  // excluded by the caller (the node's commit mutex). Only possible when
  // neither the old nor the new payload owns heap memory: freeing (or
  // publishing) a heap buffer while a racing reader may be mid-copy needs
  // the unique fence.
  {
    std::shared_lock table(table_mu_);
    if (Slot* s = locate(id)) {
      ObjectRecord& rec = s->record;
      if (rec.value.is_inline() && value.is_inline()) {
        // CoW for the active snapshot BEFORE the seqlock write: a walker
        // that observes the new version (via the seqlock's release edge)
        // is guaranteed to find the retained old one.
        maybe_retain(id, rec);
        resize_value(rec.value.size(), value.size());
        rec.write_begin();
        rec.value.store_inline_relaxed(value.view());
        rec.bump_wts(wts);
        if (std::atomic_ref<bool>(rec.deleted)
                .load(std::memory_order_relaxed)) {
          std::atomic_ref<bool>(rec.deleted).store(false,
                                                   std::memory_order_relaxed);
          tombstones_.fetch_sub(1, std::memory_order_relaxed);  // revived
        }
        rec.set_dirty_epoch(epoch_.load(std::memory_order_relaxed));
        rec.write_end();
        return rec;
      }
    }
  }
  std::unique_lock fence(table_mu_);
  sm().rehash_fences.inc();
  // Re-locate: the slot found under the shared lock is not pinned across
  // the lock change.
  if (Slot* s = locate(id)) {
    ObjectRecord& rec = s->record;
    maybe_retain(id, rec);
    resize_value(rec.value.size(), value.size());
    rec.value = std::move(value);
    if (wts > rec.wts) rec.wts = wts;
    if (rec.deleted) {
      rec.deleted = false;  // revived
      tombstones_.fetch_sub(1, std::memory_order_relaxed);
    }
    rec.dirty_epoch = epoch_.load(std::memory_order_relaxed);
    return rec;
  }
  ObjectRecord rec;
  resize_value(0, value.size());
  rec.value = std::move(value);
  rec.wts = wts;
  rec.dirty_epoch = epoch_.load(std::memory_order_relaxed);
  return insert_internal(id, std::move(rec));
}

ObjectRecord& ObjectStore::tombstone(ObjectId id, ValidationTs wts) {
  {
    std::shared_lock table(table_mu_);
    if (Slot* s = locate(id)) {
      ObjectRecord& rec = s->record;
      if (rec.value.is_inline()) {
        maybe_retain(id, rec);
        resize_value(rec.value.size(), 0);
        rec.write_begin();
        rec.value.store_inline_relaxed({});
        rec.bump_wts(wts);
        if (!std::atomic_ref<bool>(rec.deleted)
                 .load(std::memory_order_relaxed)) {
          std::atomic_ref<bool>(rec.deleted).store(true,
                                                   std::memory_order_relaxed);
          tombstones_.fetch_add(1, std::memory_order_relaxed);
        }
        rec.set_dirty_epoch(epoch_.load(std::memory_order_relaxed));
        rec.write_end();
        return rec;
      }
    }
  }
  std::unique_lock fence(table_mu_);
  sm().rehash_fences.inc();
  if (Slot* s = locate(id)) {
    ObjectRecord& rec = s->record;
    maybe_retain(id, rec);
    resize_value(rec.value.size(), 0);
    rec.value.clear();
    if (wts > rec.wts) rec.wts = wts;
    if (!rec.deleted) {
      rec.deleted = true;
      tombstones_.fetch_add(1, std::memory_order_relaxed);
    }
    rec.dirty_epoch = epoch_.load(std::memory_order_relaxed);
    return rec;
  }
  ObjectRecord rec;
  rec.wts = wts;
  rec.deleted = true;
  rec.dirty_epoch = epoch_.load(std::memory_order_relaxed);
  tombstones_.fetch_add(1, std::memory_order_relaxed);
  return insert_internal(id, std::move(rec));
}

const ObjectRecord* ObjectStore::find(ObjectId id) const {
  const Slot* s = locate(id);
  return s ? &s->record : nullptr;
}

ObjectRecord* ObjectStore::find_mutable(ObjectId id) {
  Slot* s = locate(id);
  return s ? &s->record : nullptr;
}

OptimisticRead ObjectStore::read_optimistic(ObjectId id, ObjectRecord& out,
                                            std::uint32_t& retries,
                                            std::uint32_t max_retries) const {
  std::shared_lock table(table_mu_);
  const Slot* s = locate(id);
  if (s == nullptr) {
    retries = 0;
    return OptimisticRead::kMiss;
  }
  const ObjectRecord& rec = s->record;
  for (std::uint32_t attempt = 0;; ++attempt) {
    if (attempt > max_retries) {
      retries = attempt;
      return OptimisticRead::kContended;
    }
    const std::uint32_t s1 = rec.seq_acquire();
    if (s1 & 1u) continue;  // writer mid-update
    std::uint64_t words[Value::kInlineWords];
    std::size_t value_size = 0;
    ValidationTs rts = 0;
    ValidationTs wts = 0;
    bool deleted = false;
    bool inline_payload = rec.value.load_inline_relaxed(words, value_size);
    Value heap_copy;
    if (!inline_payload) {
      // Heap payloads only mutate under the unique table lock, which we
      // exclude by holding the shared lock — the buffer is stable even if
      // the seqlock says a (necessarily inline-path) writer is active.
      heap_copy = rec.value;
    }
    // atomic_ref<const T> arrives in C++26; const_cast for the loads.
    rts = std::atomic_ref<ValidationTs>(const_cast<ValidationTs&>(rec.rts))
              .load(std::memory_order_relaxed);
    wts = std::atomic_ref<ValidationTs>(const_cast<ValidationTs&>(rec.wts))
              .load(std::memory_order_relaxed);
    deleted = std::atomic_ref<bool>(const_cast<bool&>(rec.deleted))
                  .load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (rec.seq_relaxed() != s1) continue;  // torn — retry
    if (inline_payload) {
      out.value.assign(std::as_bytes(std::span{words}).first(value_size));
    } else {
      out.value = std::move(heap_copy);
    }
    out.rts = rts;
    out.wts = wts;
    out.deleted = deleted;
    retries = attempt;
    return OptimisticRead::kHit;
  }
}

std::optional<std::pair<ValidationTs, ValidationTs>> ObjectStore::timestamps_of(
    ObjectId id) const {
  std::shared_lock table(table_mu_);
  const Slot* s = locate(id);
  if (s == nullptr) return std::nullopt;
  const ObjectRecord& rec = s->record;
  const ValidationTs rts =
      std::atomic_ref<ValidationTs>(const_cast<ValidationTs&>(rec.rts))
          .load(std::memory_order_relaxed);
  const ValidationTs wts =
      std::atomic_ref<ValidationTs>(const_cast<ValidationTs&>(rec.wts))
          .load(std::memory_order_relaxed);
  return std::make_pair(rts, wts);
}

bool ObjectStore::erase(ObjectId id) {
  std::unique_lock fence(table_mu_);
  sm().rehash_fences.inc();
  Slot* s = locate(id);
  if (!s) return false;
  // The retained copy is the only way an erased record still reaches the
  // snapshot walker (the final retain sweep emits it).
  maybe_retain(id, s->record);
  resize_value(s->record.value.size(), 0);
  table_gen_.fetch_add(1, std::memory_order_release);
  if (s->record.deleted) tombstones_.fetch_sub(1, std::memory_order_relaxed);
  // Backward-shift deletion keeps probe sequences contiguous.
  std::size_t i = static_cast<std::size_t>(s - slots_.data());
  while (true) {
    std::size_t next = (i + 1) & mask();
    if (slots_[next].probe <= 1) break;
    slots_[i] = std::move(slots_[next]);
    --slots_[i].probe;
    i = next;
  }
  slots_[i] = Slot{};
  size_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

void ObjectStore::for_each(
    const std::function<void(ObjectId, const ObjectRecord&)>& fn) const {
  for (const Slot& s : slots_) {
    if (s.probe != 0) fn(s.id, s.record);
  }
}

void ObjectStore::clear() {
  std::unique_lock fence(table_mu_);
  sm().rehash_fences.inc();
  table_gen_.fetch_add(1, std::memory_order_release);
  for (Slot& s : slots_) s = Slot{};
  size_.store(0, std::memory_order_relaxed);
  tombstones_.store(0, std::memory_order_relaxed);
  value_bytes_.store(0, std::memory_order_relaxed);
}

void ObjectStore::grow() {
  // Callers already hold table_mu_ exclusively (every insert path fences).
  table_gen_.fetch_add(1, std::memory_order_release);
  std::vector<Slot> old = std::move(slots_);
  slots_.clear();
  slots_.resize(old.size() * 2);
  size_.store(0, std::memory_order_relaxed);
  for (Slot& s : old) {
    if (s.probe != 0) insert_internal(s.id, std::move(s.record));
  }
}

ObjectStore::Slot* ObjectStore::locate(ObjectId id) {
  std::size_t i = hash_of(id) & mask();
  std::uint32_t probe = 1;
  while (true) {
    Slot& s = slots_[i];
    if (s.probe == 0 || s.probe < probe) return nullptr;
    if (s.id == id) return &s;
    i = (i + 1) & mask();
    ++probe;
  }
}

const ObjectStore::Slot* ObjectStore::locate(ObjectId id) const {
  return const_cast<ObjectStore*>(this)->locate(id);
}

ObjectRecord& ObjectStore::insert_internal(ObjectId id, ObjectRecord record) {
  table_gen_.fetch_add(1, std::memory_order_release);
  if ((size_.load(std::memory_order_relaxed) + 1) * 10 >= slots_.size() * 9) {
    grow();  // keep load < 0.9
  }
  std::size_t i = hash_of(id) & mask();
  Slot incoming;
  incoming.id = id;
  incoming.probe = 1;
  incoming.record = std::move(record);
  ObjectRecord* inserted = nullptr;
  while (true) {
    Slot& s = slots_[i];
    if (s.probe == 0) {
      s = std::move(incoming);
      size_.fetch_add(1, std::memory_order_relaxed);
      return inserted ? *inserted : s.record;
    }
    if (s.probe < incoming.probe) {
      std::swap(s, incoming);
      if (!inserted) inserted = &s.record;
    }
    i = (i + 1) & mask();
    ++incoming.probe;
  }
}

// ---- fuzzy snapshot mode (DESIGN.md §15) ----------------------------------

std::uint64_t ObjectStore::snapshot_begin() {
  // Purge stragglers from the previous snapshot: a writer that raced
  // snapshot_end's deactivation may have inserted an entry after the stripes
  // were cleared. Writers are externally excluded here, so the purge is the
  // last word.
  for (RetainStripe& st : retain_) {
    std::lock_guard lk(st.mu);
    st.map.clear();
  }
  retained_count_.store(0, std::memory_order_relaxed);
  const std::uint64_t capture = epoch_.fetch_add(1, std::memory_order_relaxed);
  capture_epoch_.store(capture, std::memory_order_relaxed);
  snapshot_active_.store(true, std::memory_order_release);
  return capture;
}

void ObjectStore::snapshot_end() {
  snapshot_active_.store(false, std::memory_order_release);
  for (RetainStripe& st : retain_) {
    std::lock_guard lk(st.mu);
    st.map.clear();
  }
  retained_count_.store(0, std::memory_order_relaxed);
}

void ObjectStore::maybe_retain(ObjectId id, ObjectRecord& rec) {
  if (!snapshot_active_.load(std::memory_order_acquire)) return;
  const std::uint64_t capture = capture_epoch_.load(std::memory_order_relaxed);
  // dirty > capture: a post-flip writer already overwrote the record, so the
  // snapshot version was retained (or emitted) when *it* went first.
  if (rec.dirty_epoch_relaxed() > capture) return;
  RetainStripe& st = stripe_for(id);
  std::lock_guard lk(st.mu);
  // Re-check under the stripe mutex: the walker stamps captured_epoch before
  // taking this mutex, so observing the stamp here proves the record was
  // already emitted and the pre-image is not needed.
  if (rec.captured_epoch_relaxed() == capture) return;
  auto [it, inserted] = st.map.try_emplace(id);
  if (!inserted) return;  // an earlier writer already kept the pre-image
  it->second.value = rec.value;
  it->second.wts = rec.wts_relaxed();
  it->second.deleted =
      std::atomic_ref<bool>(rec.deleted).load(std::memory_order_relaxed);
  it->second.dirty_epoch = rec.dirty_epoch_relaxed();
  retained_count_.fetch_add(1, std::memory_order_relaxed);
  sm().records_retained.inc();
}

void ObjectStore::scan_slot(Slot& s, std::uint64_t capture,
                            std::uint64_t floor_epoch,
                            SnapshotScanStats& stats,
                            const std::function<void(ObjectId, const Value&,
                                                     ValidationTs, bool)>& fn) {
  ObjectRecord& rec = s.record;
  if (rec.captured_epoch_relaxed() == capture) return;  // already handled
  const ObjectId id = s.id;
  // Seqlock-consistent copy of (value, wts, deleted, dirty_epoch) — the same
  // idiom as read_optimistic, but spinning: writer sections are a few dozen
  // instructions and there is exactly one walker.
  Value value;
  ValidationTs wts = 0;
  bool deleted = false;
  std::uint64_t dirty = 0;
  for (;;) {
    const std::uint32_t s1 = rec.seq_acquire();
    if (s1 & 1u) {
      std::this_thread::yield();
      continue;
    }
    std::uint64_t words[Value::kInlineWords];
    std::size_t value_size = 0;
    const bool inline_payload =
        rec.value.load_inline_relaxed(words, value_size);
    Value heap_copy;
    if (!inline_payload) heap_copy = rec.value;  // stable under shared lock
    wts = rec.wts_relaxed();
    deleted = std::atomic_ref<bool>(const_cast<bool&>(rec.deleted))
                  .load(std::memory_order_relaxed);
    dirty = rec.dirty_epoch_relaxed();
    std::atomic_thread_fence(std::memory_order_acquire);
    if (rec.seq_relaxed() != s1) continue;
    if (inline_payload) {
      value.assign(std::as_bytes(std::span{words}).first(value_size));
    } else {
      value = std::move(heap_copy);
    }
    break;
  }
  // Stamp BEFORE touching the stripe: any writer that takes the stripe mutex
  // after us observes the stamp (mutex ordering) and skips retaining; any
  // writer that retained before us leaves an entry we consume right here.
  // Either way the id is emitted exactly once.
  rec.set_captured_epoch(capture);
  std::optional<RetainEntry> retained;
  {
    RetainStripe& st = stripe_for(id);
    std::lock_guard lk(st.mu);
    auto it = st.map.find(id);
    if (it != st.map.end()) {
      retained.emplace(std::move(it->second));
      st.map.erase(it);
      retained_count_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  if (dirty <= capture) {
    // The live version is still the snapshot version. A retain entry, if one
    // raced in, holds the same bytes (same-record mutators are serialized)
    // and is simply dropped.
    if (dirty > floor_epoch) {
      fn(id, value, wts, deleted);
      ++stats.emitted;
    }
  } else if (retained) {
    // A post-flip writer got there first; its pre-image is the snapshot
    // version.
    if (retained->dirty_epoch > floor_epoch) {
      fn(id, retained->value, retained->wts, retained->deleted);
      ++stats.emitted;
      ++stats.retained_emitted;
    }
  }
  // dirty > capture with no retain entry: the record was born after the flip
  // — not part of the snapshot.
}

ObjectStore::SnapshotScanStats ObjectStore::snapshot_scan(
    std::uint64_t floor_epoch,
    const std::function<void(ObjectId, const Value&, ValidationTs wts,
                             bool deleted)>& fn) {
  SnapshotScanStats stats;
  const std::uint64_t capture = capture_epoch_.load(std::memory_order_relaxed);
  constexpr std::size_t kChunk = 512;
  constexpr std::uint64_t kMaxRestarts = 4;
  std::uint64_t restarts = 0;
  for (;;) {
    ++stats.passes;
    if (restarts >= kMaxRestarts) {
      // Structural churn keeps invalidating the chunked walk — degrade to
      // one pass under the shared lock held throughout. In-place committers
      // still run (they only need the shared lock); only structural writers
      // (inserts of new ids, erases) wait, and captured stamps from earlier
      // passes keep this pass short.
      ++stats.locked_passes;
      std::shared_lock table(table_mu_);
      for (Slot& s : slots_) {
        if (s.probe != 0) scan_slot(s, capture, floor_epoch, stats, fn);
      }
      break;
    }
    const std::uint64_t gen = table_gen_.load(std::memory_order_acquire);
    std::size_t pos = 0;
    bool complete = true;
    while (true) {
      std::shared_lock table(table_mu_);
      if (table_gen_.load(std::memory_order_relaxed) != gen) {
        // A structural writer moved slots between chunks; restart the pass.
        // Already-captured records short-circuit, so the restart re-scans
        // only what the previous pass missed.
        complete = false;
        break;
      }
      const std::size_t end = std::min(pos + kChunk, slots_.size());
      for (; pos < end; ++pos) {
        Slot& s = slots_[pos];
        if (s.probe != 0) scan_slot(s, capture, floor_epoch, stats, fn);
      }
      if (pos >= slots_.size()) break;
    }
    if (complete) break;
    ++restarts;
  }
  // Drain pre-images of records erased before the walk reached them — the
  // only entries a completed pass can leave behind (every surviving slot was
  // stamped, so writers stopped retaining).
  for (RetainStripe& st : retain_) {
    std::unordered_map<ObjectId, RetainEntry> taken;
    {
      std::lock_guard lk(st.mu);
      taken.swap(st.map);
      retained_count_.fetch_sub(taken.size(), std::memory_order_relaxed);
    }
    for (auto& [id, entry] : taken) {
      if (entry.dirty_epoch > floor_epoch) {
        fn(id, entry.value, entry.wts, entry.deleted);
        ++stats.emitted;
        ++stats.retained_emitted;
      }
    }
  }
  return stats;
}

}  // namespace rodain::storage
