#include "rodain/cc/lock_manager.hpp"

#include <algorithm>
#include <cassert>

namespace rodain::cc {

namespace {
void note_object(std::unordered_map<TxnId, std::vector<ObjectId>>& map,
                 TxnId txn, ObjectId oid) {
  auto& v = map[txn];
  if (std::find(v.begin(), v.end(), oid) == v.end()) v.push_back(oid);
}

/// Waiters queue in priority order, the highest first.
constexpr auto by_priority = [](const auto& a, const auto& b) {
  return a.prio.higher_than(b.prio);
};
}  // namespace

LockManager::AcquireResult LockManager::acquire(ObjectId oid, TxnId txn,
                                                LockMode mode,
                                                PriorityKey prio) {
  AcquireResult result;
  Entry& e = table_[oid];

  // Re-entrant / upgrade handling.
  auto self = std::find_if(e.holders.begin(), e.holders.end(),
                           [&](const Holder& h) { return h.txn == txn; });
  if (self != e.holders.end()) {
    if (self->mode == LockMode::kExclusive || mode == LockMode::kShared) {
      return result;  // already strong enough
    }
    // Shared -> exclusive upgrade: conflicts are the *other* shared holders.
    std::vector<const Holder*> others;
    for (const Holder& h : e.holders) {
      if (h.txn != txn) others.push_back(&h);
    }
    const bool beats_all = std::all_of(
        others.begin(), others.end(),
        [&](const Holder* h) { return prio.higher_than(h->prio); });
    if (others.empty() || beats_all) {
      for (const Holder* h : others) result.victims.push_back(h->txn);
      std::erase_if(e.holders, [&](const Holder& h) { return h.txn != txn; });
      e.holders.front().mode = LockMode::kExclusive;
      e.holders.front().prio = prio;
      return result;
    }
    result.decision = Access::kBlocked;
    e.waiters.push_back(Waiter{txn, LockMode::kExclusive, prio});
    std::sort(e.waiters.begin(), e.waiters.end(), by_priority);
    return result;
  }

  const bool no_conflict =
      e.holders.empty() ||
      (mode == LockMode::kShared &&
       std::all_of(e.holders.begin(), e.holders.end(), [](const Holder& h) {
         return h.mode == LockMode::kShared;
       }));
  // Even a compatible request must queue behind a higher-priority waiter
  // (otherwise shared requests could starve an urgent exclusive one).
  const bool queue_clear =
      e.waiters.empty() || prio.higher_than(e.waiters.front().prio);

  if (no_conflict && queue_clear) {
    e.holders.push_back(Holder{txn, mode, prio});
    note_object(txn_objects_, txn, oid);
    return result;
  }

  // High Priority rule: beat every conflicting holder or wait.
  std::vector<const Holder*> conflicting;
  for (const Holder& h : e.holders) {
    if (!compatible(h.mode, mode)) conflicting.push_back(&h);
  }
  const bool beats_all =
      !conflicting.empty() &&
      std::all_of(conflicting.begin(), conflicting.end(),
                  [&](const Holder* h) { return prio.higher_than(h->prio); });
  if (beats_all && queue_clear) {
    for (const Holder* h : conflicting) result.victims.push_back(h->txn);
    std::erase_if(e.holders, [&](const Holder& h) {
      return !compatible(h.mode, mode);
    });
    e.holders.push_back(Holder{txn, mode, prio});
    note_object(txn_objects_, txn, oid);
    // The victims' lock state is cleaned up when the engine aborts them
    // (release_all); their holder entries on THIS object are gone already,
    // so release_all tolerates missing entries.
    return result;
  }

  result.decision = Access::kBlocked;
  e.waiters.push_back(Waiter{txn, mode, prio});
  std::sort(e.waiters.begin(), e.waiters.end(), by_priority);
  note_object(txn_objects_, txn, oid);
  return result;
}

LockManager::ReleaseResult LockManager::release_all(TxnId txn) {
  ReleaseResult result;
  // Releasing one transaction can promote waiters that displace further
  // holders (HP rule); displaced holders' own locks must cascade too, or a
  // high-priority waiter could stay parked behind a doomed holder forever.
  std::vector<TxnId> pending{txn};
  std::size_t cursor = 0;
  while (cursor < pending.size()) {
    const TxnId current = pending[cursor++];
    auto it = txn_objects_.find(current);
    if (it == txn_objects_.end()) continue;
    const std::vector<ObjectId> objects = std::move(it->second);
    txn_objects_.erase(it);
    for (ObjectId oid : objects) {
      auto te = table_.find(oid);
      if (te == table_.end()) continue;
      Entry& e = te->second;
      std::erase_if(e.holders,
                    [&](const Holder& h) { return h.txn == current; });
      std::erase_if(e.waiters,
                    [&](const Waiter& w) { return w.txn == current; });
      std::vector<TxnId> victims;
      promote_waiters(oid, e, result.woken, victims);
      for (TxnId v : victims) {
        result.victims.push_back(v);
        pending.push_back(v);  // cascade: release the victim's locks too
      }
      if (e.holders.empty() && e.waiters.empty()) table_.erase(te);
    }
  }
  // A transaction both woken and then victimized in the same cascade is a
  // victim, not a grantee.
  std::erase_if(result.woken, [&](TxnId w) {
    return std::find(result.victims.begin(), result.victims.end(), w) !=
           result.victims.end();
  });
  return result;
}

void LockManager::promote_waiters(ObjectId oid, Entry& e,
                                  std::vector<TxnId>& woken,
                                  std::vector<TxnId>& victims) {
  while (!e.waiters.empty()) {
    const Waiter w = e.waiters.front();
    std::vector<TxnId> conflicting;
    bool beats_all = true;
    for (const Holder& h : e.holders) {
      if (h.txn == w.txn) continue;  // upgrade: own shared hold is fine
      if (!compatible(h.mode, w.mode)) {
        conflicting.push_back(h.txn);
        beats_all &= w.prio.higher_than(h.prio);
      }
    }
    if (!conflicting.empty() && !beats_all) break;
    if (!conflicting.empty()) {
      // HP rule at promotion time: the waiter outranks every remaining
      // conflicting holder; displace them.
      for (TxnId v : conflicting) victims.push_back(v);
      std::erase_if(e.holders, [&](const Holder& h) {
        return std::find(conflicting.begin(), conflicting.end(), h.txn) !=
               conflicting.end();
      });
    }
    auto self = std::find_if(e.holders.begin(), e.holders.end(),
                             [&](const Holder& h) { return h.txn == w.txn; });
    if (self != e.holders.end()) {
      self->mode = LockMode::kExclusive;  // completed upgrade
    } else {
      e.holders.push_back(Holder{w.txn, w.mode, w.prio});
    }
    note_object(txn_objects_, w.txn, oid);
    woken.push_back(w.txn);
    e.waiters.erase(e.waiters.begin());
  }
}

bool LockManager::holds(ObjectId oid, TxnId txn) const {
  auto it = table_.find(oid);
  if (it == table_.end()) return false;
  return std::any_of(it->second.holders.begin(), it->second.holders.end(),
                     [&](const Holder& h) { return h.txn == txn; });
}

std::size_t LockManager::waiting_requests() const {
  std::size_t n = 0;
  for (const auto& [oid, e] : table_) n += e.waiters.size();
  return n;
}

}  // namespace rodain::cc
