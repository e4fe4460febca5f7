// Lock table for 2PL-HP (High Priority) — the classical real-time locking
// baseline the OCC family is compared against.
//
// Conflict rule: if the requester's priority (EDF key) is higher than that of
// every conflicting holder, the holders are restarted and the lock granted;
// otherwise the requester blocks. Because blocked transactions only ever
// wait for strictly higher-priority holders, wait-for edges are acyclic and
// deadlock cannot occur.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "rodain/cc/controller.hpp"

namespace rodain::cc {

enum class LockMode : std::uint8_t { kShared = 0, kExclusive };

class LockManager {
 public:
  struct AcquireResult {
    Access decision{Access::kGranted};
    std::vector<TxnId> victims;  ///< lower-priority holders to restart
  };

  /// Request `mode` on `oid`. Re-entrant: a holder asking again (including
  /// shared->exclusive upgrade) is handled in place.
  AcquireResult acquire(ObjectId oid, TxnId txn, LockMode mode,
                        PriorityKey prio);

  struct ReleaseResult {
    std::vector<TxnId> woken;    ///< queued requests that became grantable
    std::vector<TxnId> victims;  ///< holders displaced by promoted waiters
  };

  /// Drop every lock and pending request of `txn`. Promotion applies the
  /// High Priority rule transitively: a waiter that now beats every
  /// remaining conflicting holder displaces them; displaced holders'
  /// own locks cascade within this call. The caller must restart every
  /// returned victim and wake every woken transaction.
  ReleaseResult release_all(TxnId txn);

  [[nodiscard]] bool holds(ObjectId oid, TxnId txn) const;
  [[nodiscard]] std::size_t locked_objects() const { return table_.size(); }
  [[nodiscard]] std::size_t waiting_requests() const;

 private:
  struct Holder {
    TxnId txn;
    LockMode mode;
    PriorityKey prio;
  };
  struct Waiter {
    TxnId txn;
    LockMode mode;
    PriorityKey prio;
  };
  struct Entry {
    std::vector<Holder> holders;
    std::vector<Waiter> waiters;  // kept sorted by priority (highest first)
  };

  /// Grant every waiter at the head of the queue that is compatible or
  /// beats all conflicting holders (HP rule). Grants append to `woken`,
  /// displaced holders append to `victims`.
  void promote_waiters(ObjectId oid, Entry& e, std::vector<TxnId>& woken,
                       std::vector<TxnId>& victims);

  static bool compatible(LockMode held, LockMode requested) {
    return held == LockMode::kShared && requested == LockMode::kShared;
  }

  std::unordered_map<ObjectId, Entry> table_;
  // txn -> objects it holds or waits on (for O(locks) release).
  std::unordered_map<TxnId, std::vector<ObjectId>> txn_objects_;
};

}  // namespace rodain::cc
