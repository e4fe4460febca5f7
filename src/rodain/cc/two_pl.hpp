// Strict 2PL with High-Priority conflict resolution, wrapped in the common
// ConcurrencyController interface. Locks are held to the end of the write
// phase (strict), so the serialization order equals the validation order.
#pragma once

#include <unordered_set>

#include "rodain/cc/controller.hpp"
#include "rodain/cc/lock_manager.hpp"

namespace rodain::cc {

class TwoPlController final : public ConcurrencyController {
 public:
  [[nodiscard]] std::string_view name() const override { return "2pl-hp"; }

  void on_begin(txn::Transaction& t) override;
  AccessResult on_read(txn::Transaction& t, ObjectId oid,
                       const storage::ObjectRecord* rec) override;
  AccessResult on_write(txn::Transaction& t, ObjectId oid,
                        const storage::ObjectRecord* rec) override;
  ValidationResult validate(txn::Transaction& t, ValidationTs next_seq,
                            const storage::ObjectStore& store) override;
  void on_installed(txn::Transaction& t, storage::ObjectStore& store) override;
  void on_abort(txn::Transaction& t) override;
  void set_wakeup_handler(WakeupFn fn) override { wakeup_ = std::move(fn); }
  void set_victim_handler(VictimFn fn) override { victim_ = std::move(fn); }
  [[nodiscard]] std::size_t active_count() const override { return active_.size(); }

  [[nodiscard]] const LockManager& locks() const { return lock_manager_; }

 private:
  void dispatch(const LockManager::ReleaseResult& result);

  LockManager lock_manager_;
  WakeupFn wakeup_;
  VictimFn victim_;
  std::unordered_set<TxnId> active_;
};

}  // namespace rodain::cc
