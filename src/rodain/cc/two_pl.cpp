#include "rodain/cc/two_pl.hpp"

namespace rodain::cc {

void TwoPlController::on_begin(txn::Transaction& t) {
  active_.insert(t.id());
}

AccessResult TwoPlController::on_read(txn::Transaction& t, ObjectId oid,
                                      const storage::ObjectRecord* rec) {
  auto r = lock_manager_.acquire(oid, t.id(), LockMode::kShared, t.priority());
  if (r.decision == Access::kGranted) {
    t.note_read(oid, rec ? rec->wts : 0);
  }
  return AccessResult{r.decision, std::move(r.victims)};
}

AccessResult TwoPlController::on_write(txn::Transaction& t, ObjectId oid,
                                       const storage::ObjectRecord* rec) {
  (void)rec;
  auto r = lock_manager_.acquire(oid, t.id(), LockMode::kExclusive, t.priority());
  return AccessResult{r.decision, std::move(r.victims)};
}

ValidationResult TwoPlController::validate(txn::Transaction& t,
                                           ValidationTs next_seq,
                                           const storage::ObjectStore& store) {
  (void)store;
  // Strict 2PL: holding all locks at this point IS the validation.
  ValidationResult result;
  result.ok = true;
  result.serial_ts = next_seq * kTsSpacing;
  active_.erase(t.id());
  return result;
}

void TwoPlController::on_installed(txn::Transaction& t,
                                   storage::ObjectStore& store) {
  const ValidationTs ts = t.serial_ts();
  // Atomic bumps: the db-layer optimistic fast path snapshots rts/wts
  // without the commit mutex regardless of protocol.
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
  dispatch(lock_manager_.release_all(t.id()));
}

void TwoPlController::on_abort(txn::Transaction& t) {
  active_.erase(t.id());
  dispatch(lock_manager_.release_all(t.id()));
}

void TwoPlController::dispatch(const LockManager::ReleaseResult& result) {
  // Victims first: a transaction displaced in this cascade must not act on
  // a stale grant.
  if (victim_) {
    for (TxnId id : result.victims) victim_(id);
  }
  if (wakeup_) {
    for (TxnId id : result.woken) wakeup_(id);
  }
}

}  // namespace rodain::cc
