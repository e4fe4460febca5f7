#include "rodain/cc/occ.hpp"

#include <algorithm>
#include <cassert>

namespace rodain::cc {

void OccController::on_begin(txn::Transaction& t) {
  active_[t.id()] = &t;
}

AccessResult OccController::on_read(txn::Transaction& t, ObjectId oid,
                                    const storage::ObjectRecord* rec) {
  const ValidationTs observed = rec ? rec->wts_relaxed() : 0;
  // Re-read of an object whose committed version changed since the first
  // observation: the store is single-version, so this transaction would see
  // two different versions of one object — no serialization point exists.
  // It must restart (the interval machinery cannot repair an already
  // inconsistent view).
  for (const txn::ReadEntry& e : t.read_set()) {
    if (e.oid == oid) {
      if (e.observed_wts != observed) {
        return AccessResult{Access::kRestartSelf, {}};
      }
      return {};
    }
  }
  t.note_read(oid, observed);
  if (policy_.eager_self_adjust) {
    // OCC-TI clamps the interval the moment the read happens. The committed
    // writer may validate later with a *smaller* logical timestamp than the
    // object's current wts suggests, so this eager floor can be needlessly
    // tight — exactly the unnecessary-restart source OCC-DATI removes.
    t.interval().after(observed);
  }
  return {};
}

AccessResult OccController::on_write(txn::Transaction& t, ObjectId oid,
                                     const storage::ObjectRecord* rec) {
  (void)oid;
  if (policy_.eager_self_adjust && rec) {
    t.interval().after(rec->rts_relaxed());
    t.interval().after(rec->wts_relaxed());
  }
  return {};
}

ValidationTs OccController::choose_ts(const txn::TsInterval& iv,
                                      ValidationTs slot) const {
  assert(!iv.empty());
  if (policy_.fixed_final_ts) return slot;
  const ValidationTs lo = std::max(iv.lo, ValidationTs{1});
  if (iv.hi >= slot) {
    // Unconstrained from above (or the default slot fits): prefer the slot —
    // it is guaranteed unique and leaves the whole [lo, slot) gap for
    // backward-ordered peers.
    return std::max(lo, slot);
  }
  // Constrained below the default slot: this transaction serializes before
  // an already-committed one.
  if (policy_.midpoint_final_ts) {
    return lo + (iv.hi - lo) / 2;  // leave room on both sides (OCC-DATI)
  }
  return lo;  // OCC-TI: interval minimum
}

ValidationResult OccController::validate(txn::Transaction& t,
                                         ValidationTs next_seq,
                                         const storage::ObjectStore& store) {
  ValidationResult result;
  const ValidationTs slot = next_seq * kTsSpacing;

  // --- Step 1: floor the validator's interval against committed state.
  // Reads must serialize after the version they observed; writes must
  // serialize after every committed reader and writer of the object —
  // otherwise a backward-placed final timestamp could slide beneath a
  // committed reader that never saw this write. (OCC-TI applied access-time
  // floors too; re-applying fresher values here is strictly tighter.)
  txn::TsInterval iv = t.interval();
  for (const txn::ReadEntry& r : t.read_set()) {
    iv.after(r.observed_wts);
  }
  for (const txn::WriteEntry& w : t.write_set()) {
    if (const auto ts = store.timestamps_of(w.oid)) {
      iv.after(ts->first);   // committed readers
      iv.after(ts->second);  // committed writers
    }
  }

  if (policy_.fixed_final_ts && iv.hi < slot) {
    // OCC-DA/BC: the validator cannot serialize backward; restart it.
    result.ok = false;
    return result;
  }
  if (iv.empty()) {
    result.ok = false;
    return result;
  }

  const ValidationTs ts = choose_ts(iv, slot);
  assert(ts >= iv.lo && ts <= iv.hi);
  t.interval() = iv;

  // --- Step 2: forward adjustment of every conflicting active transaction.
  // A read-only validator adjusts nobody: it wrote nothing (no reader of
  // its writes, no write-write edge), and writers into its read set
  // serialize after it via the object rts floors on_installed maintains.
  // Skipping the scan keeps read-heavy validation O(read set).
  if (!t.write_set().empty()) {
    for (auto& [id, other] : active_) {
      if (id == t.id()) continue;
      txn::Transaction& o = *other;
      bool conflict_read_my_write = false;   // o read something I wrote
      bool conflict_wrote_my_read = false;   // o writes something I read
      bool conflict_wrote_my_write = false;  // write-write overlap
      for (const txn::WriteEntry& w : t.write_set()) {
        if (o.in_read_set(w.oid)) conflict_read_my_write = true;
        if (o.in_write_set(w.oid)) conflict_wrote_my_write = true;
      }
      for (const txn::ReadEntry& r : t.read_set()) {
        if (o.in_write_set(r.oid)) conflict_wrote_my_read = true;
      }
      if (!(conflict_read_my_write || conflict_wrote_my_read ||
            conflict_wrote_my_write)) {
        continue;
      }

      if (policy_.broadcast) {
        // OCC-BC: any reader of my writes dies; writers into my read set are
        // fine (they serialize after me), write-write also forces a restart
        // in the classical broadcast scheme.
        if (conflict_read_my_write || conflict_wrote_my_write) {
          result.victims.push_back(id);
        }
        continue;
      }

      // Interval adjustment (OCC-DA / OCC-TI / OCC-DATI):
      //   o read my write        -> o serializes BEFORE me
      //   o writes into my reads -> o serializes AFTER me
      //   write-write            -> o serializes AFTER me
      if (conflict_read_my_write) o.interval().before(ts);
      if (conflict_wrote_my_read || conflict_wrote_my_write) {
        o.interval().after(ts);
      }
      if (o.interval().empty()) result.victims.push_back(id);
    }
  }

  // Victims are restarted by the engine (which calls on_abort for each);
  // drop them from the active set lazily there, not here.

  result.ok = true;
  result.serial_ts = ts;
  active_.erase(t.id());  // validated transactions are immune to adjustment
  return result;
}

void OccController::on_installed(txn::Transaction& t,
                                 storage::ObjectStore& store) {
  const ValidationTs ts = t.serial_ts();
  // Atomic bumps: the db-layer optimistic fast path snapshots rts/wts
  // without the commit mutex.
  for (const txn::ReadEntry& r : t.read_set()) {
    if (storage::ObjectRecord* rec = store.find_mutable(r.oid)) {
      rec->bump_rts(ts);
    }
  }
  for (const txn::WriteEntry& w : t.write_set()) {
    if (storage::ObjectRecord* rec = store.find_mutable(w.oid)) {
      rec->bump_wts(ts);
    }
  }
}

void OccController::on_abort(txn::Transaction& t) {
  active_.erase(t.id());
}

}  // namespace rodain::cc
