// The main-memory object store: a robin-hood open-addressing table mapping
// ObjectId to the object's payload plus the OCC timestamps (largest committed
// reader / writer) the concurrency controllers consult at validation.
//
// Concurrency (DESIGN.md §11): mutators of the *same* record must be
// externally serialized (the node's commit mutex), but optimistic readers
// may race them freely and installers of *different* records may race each
// other. Structural changes (new slots, robin-hood displacement, growth,
// erase, anything touching a heap-allocated payload) take the unique table
// lock; in-place
// updates of existing records with inline payloads run under the shared
// table lock and bump only the record's seqlock, so the common
// telecom-record update never fences the reader side.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rodain/common/status.hpp"
#include "rodain/common/types.hpp"
#include "rodain/storage/value.hpp"

namespace rodain::storage {

/// One stored object. `rts`/`wts` are the largest validation timestamps of
/// committed readers/writers — the state OCC-TI/OCC-DATI intervals are
/// computed against. Deleted objects stay as tombstones (`deleted`, empty
/// value) so that a later reader still observes the deleter's `wts` and the
/// serialization intervals remain sound; garbage collection of tombstones
/// is an offline concern (compaction drops them).
struct ObjectRecord {
  Value value;
  ValidationTs rts{0};
  ValidationTs wts{0};
  bool deleted{false};
  /// Fuzzy-checkpoint bookkeeping (DESIGN.md §15). `dirty_epoch` is the
  /// store's mutation epoch at the record's last write: the delta encoder
  /// includes exactly the records dirtied after the previous capture.
  /// `captured_epoch` is the snapshot walker's dedup stamp — set to the
  /// active capture epoch once the record was emitted (or proven
  /// post-snapshot), so restarted walk passes and the CoW retain path never
  /// emit a record twice. Both are accessed through atomic_ref: writers
  /// stamp dirty under the record seqlock while the walker reads it, and
  /// the walker stamps captured under the shared table lock while in-place
  /// writers consult it.
  std::uint64_t dirty_epoch{0};
  std::uint64_t captured_epoch{0};

  [[nodiscard]] bool live() const { return !deleted; }

  ObjectRecord() = default;
  // The seq counter is transferred with relaxed loads/stores: copies and
  // moves only happen in structural store operations (grow, slot shifts)
  // under the unique table lock, or on private engine-side snapshots.
  ObjectRecord(const ObjectRecord& o)
      : value(o.value), rts(o.rts), wts(o.wts), deleted(o.deleted),
        dirty_epoch(o.dirty_epoch), captured_epoch(o.captured_epoch),
        seq_(o.seq_.load(std::memory_order_relaxed)) {}
  ObjectRecord& operator=(const ObjectRecord& o) {
    if (this != &o) {
      value = o.value;
      rts = o.rts;
      wts = o.wts;
      deleted = o.deleted;
      dirty_epoch = o.dirty_epoch;
      captured_epoch = o.captured_epoch;
      seq_.store(o.seq_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    }
    return *this;
  }
  ObjectRecord(ObjectRecord&& o) noexcept
      : value(std::move(o.value)), rts(o.rts), wts(o.wts), deleted(o.deleted),
        dirty_epoch(o.dirty_epoch), captured_epoch(o.captured_epoch),
        seq_(o.seq_.load(std::memory_order_relaxed)) {}
  ObjectRecord& operator=(ObjectRecord&& o) noexcept {
    if (this != &o) {
      value = std::move(o.value);
      rts = o.rts;
      wts = o.wts;
      deleted = o.deleted;
      dirty_epoch = o.dirty_epoch;
      captured_epoch = o.captured_epoch;
      seq_.store(o.seq_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    }
    return *this;
  }

  // ---- per-record seqlock ------------------------------------------------
  // Odd while an in-place writer is mid-update. The writer sequence is the
  // standard C++ seqlock idiom: odd store, release fence, relaxed payload
  // stores, even release store. Readers pair it with an acquire load, relaxed
  // payload loads, an acquire fence, and a relaxed re-check.
  [[nodiscard]] std::uint32_t seq_acquire() const {
    return seq_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint32_t seq_relaxed() const {
    return seq_.load(std::memory_order_relaxed);
  }
  void write_begin() {
    seq_.store(seq_.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
  }
  void write_end() {
    seq_.store(seq_.load(std::memory_order_relaxed) + 1,
               std::memory_order_release);
  }

  /// Timestamp bumps that race optimistic readers (cc::on_installed runs
  /// under the commit mutex, not the table lock). A lone u64 store cannot
  /// tear, so no seqlock round-trip is needed; readers tolerate a stale
  /// rts/wts the same way they tolerate one read a microsecond earlier.
  void bump_rts(ValidationTs ts) {
    std::atomic_ref<ValidationTs> r(rts);
    if (ts > r.load(std::memory_order_relaxed)) {
      r.store(ts, std::memory_order_relaxed);
    }
  }
  void bump_wts(ValidationTs ts) {
    std::atomic_ref<ValidationTs> w(wts);
    if (ts > w.load(std::memory_order_relaxed)) {
      w.store(ts, std::memory_order_relaxed);
    }
  }
  /// Loads that may race the bumps above (a reader outside the commit
  /// mutex observing a record a committer is installing over). Same
  /// tolerance argument as the bumps: a stale value is indistinguishable
  /// from an earlier read.
  [[nodiscard]] ValidationTs rts_relaxed() const {
    return std::atomic_ref<ValidationTs>(const_cast<ValidationTs&>(rts))
        .load(std::memory_order_relaxed);
  }
  [[nodiscard]] ValidationTs wts_relaxed() const {
    return std::atomic_ref<ValidationTs>(const_cast<ValidationTs&>(wts))
        .load(std::memory_order_relaxed);
  }

  // Epoch accesses race the snapshot walker: relaxed atomic_refs, ordered
  // by the record seqlock (dirty) or the retain-stripe mutex (captured).
  [[nodiscard]] std::uint64_t dirty_epoch_relaxed() const {
    return std::atomic_ref<std::uint64_t>(
               const_cast<std::uint64_t&>(dirty_epoch))
        .load(std::memory_order_relaxed);
  }
  void set_dirty_epoch(std::uint64_t e) {
    std::atomic_ref<std::uint64_t>(dirty_epoch)
        .store(e, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t captured_epoch_relaxed() const {
    return std::atomic_ref<std::uint64_t>(
               const_cast<std::uint64_t&>(captured_epoch))
        .load(std::memory_order_relaxed);
  }
  void set_captured_epoch(std::uint64_t e) {
    std::atomic_ref<std::uint64_t>(captured_epoch)
        .store(e, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint32_t> seq_{0};
};

/// Result of an optimistic (seqlock) read.
enum class OptimisticRead : std::uint8_t {
  kHit = 0,    ///< `out` holds a consistent committed snapshot
  kMiss,       ///< no record for the id
  kContended,  ///< retry budget exhausted — take the transactional path
};

class ObjectStore {
 public:
  /// Per-attempt retry budget of read_optimistic callers that have a cheap
  /// serial fallback (writer sections are a few dozen instructions, so any
  /// retry at all is rare).
  static constexpr std::uint32_t kDefaultOptimisticRetries = 64;

  explicit ObjectStore(std::size_t expected_objects = 1024);

  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;
  ObjectStore(ObjectStore&&) = delete;
  ObjectStore& operator=(ObjectStore&&) = delete;

  /// Insert a new object; fails with kAlreadyExists if the id is taken.
  Status insert(ObjectId id, Value value);

  /// Insert or overwrite (used by the mirror applier and recovery, which
  /// replay after-images without knowing whether the object pre-existed).
  /// Revives tombstones.
  ObjectRecord& upsert(ObjectId id, Value value, ValidationTs wts);

  /// Transactional delete: the record becomes a tombstone that keeps its
  /// timestamps (and records the deleter's `wts`). Creates the tombstone if
  /// the object never existed, so the deletion is still observable.
  ObjectRecord& tombstone(ObjectId id, ValidationTs wts);

  /// Objects with live (non-tombstoned) content.
  [[nodiscard]] std::size_t live_size() const {
    return size_.load(std::memory_order_relaxed) -
           tombstones_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t tombstone_count() const {
    return tombstones_.load(std::memory_order_relaxed);
  }
  /// Payload bytes of every record's value: with size(), what sizes an
  /// encode of the store (storage::chain_encode_reserve).
  [[nodiscard]] std::size_t value_bytes() const {
    return value_bytes_.load(std::memory_order_relaxed);
  }

  /// Lookup; nullptr when absent. Serial contexts only (the caller holds
  /// the commit mutex, or no concurrent mutator exists).
  [[nodiscard]] const ObjectRecord* find(ObjectId id) const;
  [[nodiscard]] ObjectRecord* find_mutable(ObjectId id);

  /// Lock-free committed read: copies a consistent snapshot of the record
  /// into `out` (value, rts, wts, deleted), retrying while an in-place
  /// writer holds the record's seqlock. Holds the shared table lock for the
  /// duration, so structural changes (rehash, slot shifts, heap payload
  /// swaps) cannot move the record underneath the copy. `retries` reports
  /// how many torn attempts were discarded.
  OptimisticRead read_optimistic(
      ObjectId id, ObjectRecord& out, std::uint32_t& retries,
      std::uint32_t max_retries = kDefaultOptimisticRetries) const;

  /// Parallel-safe timestamp snapshot (rts, wts) under the shared table
  /// lock; nullopt when the object is absent. Used by validators that run
  /// concurrently with installers of *other* records. The two loads are not
  /// mutually atomic — callers order themselves with the validation mutex.
  [[nodiscard]] std::optional<std::pair<ValidationTs, ValidationTs>>
  timestamps_of(ObjectId id) const;

  bool erase(ObjectId id);

  [[nodiscard]] std::size_t size() const {
    return size_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// Visit every live object (iteration order is unspecified but stable
  /// between mutations). Used by checkpointing and snapshot shipping.
  void for_each(
      const std::function<void(ObjectId, const ObjectRecord&)>& fn) const;

  /// Remove everything (recovery restart).
  void clear();

  /// Table load factor diagnostics.
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  // ---- fuzzy snapshot mode (DESIGN.md §15) ------------------------------
  // snapshot_begin() flips the snapshot epoch in O(1); the caller must
  // exclude every writer for the flip (the node's commit mutex held).
  // Afterwards writers run freely: the first post-flip write
  // to a not-yet-captured record copies the old version into a per-stripe
  // retain list (CoW on first write), and snapshot_scan walks the table
  // off-lock, reading live records through their seqlocks and retained
  // versions where a writer got there first. The result is equivalent to a
  // point-in-time snapshot at the flip.

  struct SnapshotScanStats {
    std::uint64_t emitted{0};           ///< rows handed to the callback
    std::uint64_t retained_emitted{0};  ///< of those, from the retain list
    std::uint64_t passes{0};            ///< table walks (restarts included)
    std::uint64_t locked_passes{0};     ///< degraded full-lock passes
  };

  /// Flip the snapshot epoch; returns the capture epoch E. Records with
  /// dirty_epoch <= E belong to the snapshot; post-flip writers stamp E+1.
  /// Requires external writer exclusion for the duration of the call.
  std::uint64_t snapshot_begin();
  /// Release the retain lists. Safe with writers running (stragglers that
  /// raced the deactivation are purged by the next snapshot_begin).
  void snapshot_end();
  /// Capture epoch of the active snapshot (valid between begin and end).
  [[nodiscard]] std::uint64_t snapshot_epoch() const {
    return capture_epoch_.load(std::memory_order_relaxed);
  }
  /// Current mutation epoch (what the next write will stamp).
  [[nodiscard]] std::uint64_t mutation_epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }

  /// Walk the active snapshot, emitting every record (tombstones included)
  /// whose snapshot-time dirty_epoch is > `floor_epoch` — 0 for a full
  /// base, the previous capture epoch for a delta. Single encoder thread;
  /// holds the shared table lock only in short chunks, so in-place writers
  /// are never blocked and structural writers only per-chunk.
  SnapshotScanStats snapshot_scan(
      std::uint64_t floor_epoch,
      const std::function<void(ObjectId, const Value&, ValidationTs wts,
                               bool deleted)>& fn);

 private:
  struct Slot {
    ObjectId id{kInvalidObject};
    std::uint32_t probe{0};  // probe-sequence length + 1; 0 == empty
    ObjectRecord record;
  };

  [[nodiscard]] static std::size_t hash_of(ObjectId id);
  [[nodiscard]] std::size_t mask() const { return slots_.size() - 1; }
  void grow();
  Slot* locate(ObjectId id);
  [[nodiscard]] const Slot* locate(ObjectId id) const;
  ObjectRecord& insert_internal(ObjectId id, ObjectRecord record);

  // ---- fuzzy snapshot internals -----------------------------------------
  /// Pre-flip version kept aside by the first post-flip writer.
  struct RetainEntry {
    Value value;
    ValidationTs wts{0};
    bool deleted{false};
    std::uint64_t dirty_epoch{0};
  };
  struct RetainStripe {
    std::mutex mu;
    std::unordered_map<ObjectId, RetainEntry> map;
  };
  static constexpr std::size_t kRetainStripes = 64;

  [[nodiscard]] RetainStripe& stripe_for(ObjectId id) {
    return retain_[hash_of(id) & (kRetainStripes - 1)];
  }
  /// CoW hook: called by every mutator BEFORE it overwrites a record (the
  /// insert-before-write ordering is what makes the walker's seqlock
  /// fallback race-free). No-op when no snapshot is active or the record
  /// was already captured/retained.
  void maybe_retain(ObjectId id, ObjectRecord& rec);
  /// Walk one slot for snapshot_scan: seqlock-read the record, emit the
  /// pre-flip version (directly or from the retain list) and stamp it
  /// captured. Requires the shared table lock.
  void scan_slot(Slot& s, std::uint64_t capture, std::uint64_t floor_epoch,
                 SnapshotScanStats& stats,
                 const std::function<void(ObjectId, const Value&, ValidationTs,
                                          bool)>& fn);

  std::array<RetainStripe, kRetainStripes> retain_;
  std::atomic<bool> snapshot_active_{false};
  /// Mutation epoch: every write stamps the current value into the record;
  /// snapshot_begin() bumps it so post-flip writes are distinguishable.
  std::atomic<std::uint64_t> epoch_{1};
  std::atomic<std::uint64_t> capture_epoch_{0};
  /// Diagnostic: live retain entries across all stripes.
  std::atomic<std::uint64_t> retained_count_{0};
  /// Bumped by every structural slot movement (insert displacement, grow,
  /// erase back-shift, clear): an off-lock walk whose generation changed
  /// restarts, relying on captured_epoch stamps to stay O(missed).
  std::atomic<std::uint64_t> table_gen_{0};

  std::vector<Slot> slots_;
  /// Atomic because the in-place mutator paths, which hold only the shared
  /// table lock, revive and create tombstones while off-lock readers (the
  /// fuzzy encoder) read the counts.
  std::atomic<std::size_t> size_{0};
  std::atomic<std::size_t> tombstones_{0};
  std::atomic<std::size_t> value_bytes_{0};
  /// Account a record's value changing from `before` bytes to `after`.
  void resize_value(std::size_t before, std::size_t after) {
    if (after != before) {
      value_bytes_.fetch_add(after - before, std::memory_order_relaxed);
    }
  }

  /// Writer-side unique acquisitions fence every optimistic reader out of
  /// the table; shared acquisitions (readers) ride alongside in-place
  /// seqlocked updates. Counted into `store.rehash_fences`.
  mutable std::shared_mutex table_mu_;
};

}  // namespace rodain::storage
