// The OCC protocol family: one implementation parameterized by three policy
// choices (see controller.hpp for the mapping to the published protocols).
#pragma once

#include <unordered_map>

#include "rodain/cc/controller.hpp"

namespace rodain::cc {

struct OccPolicy {
  /// Broadcast commit: restart every active reader of the validated write
  /// set instead of adjusting intervals (OCC-BC).
  bool broadcast{false};
  /// Adjust the transaction's own interval eagerly at access time against
  /// committed object timestamps (OCC-TI).
  bool eager_self_adjust{false};
  /// The validating transaction's timestamp is fixed at the default slot —
  /// no backward ordering for the validator (OCC-DA and OCC-BC).
  bool fixed_final_ts{false};
  /// Pick the final timestamp mid-interval instead of at the minimum,
  /// leaving room for later backward-ordered transactions (OCC-DATI).
  bool midpoint_final_ts{false};
};

class OccController final : public ConcurrencyController {
 public:
  OccController(std::string_view name, OccPolicy policy)
      : name_(name), policy_(policy) {}

  [[nodiscard]] std::string_view name() const override { return name_; }
  void on_begin(txn::Transaction& t) override;
  AccessResult on_read(txn::Transaction& t, ObjectId oid,
                       const storage::ObjectRecord* rec) override;
  AccessResult on_write(txn::Transaction& t, ObjectId oid,
                        const storage::ObjectRecord* rec) override;
  ValidationResult validate(txn::Transaction& t, ValidationTs next_seq,
                            const storage::ObjectStore& store) override;
  void on_installed(txn::Transaction& t, storage::ObjectStore& store) override;
  void on_abort(txn::Transaction& t) override;
  [[nodiscard]] std::size_t active_count() const override { return active_.size(); }

 private:
  /// Choose the final serialization timestamp for a transaction whose
  /// interval is [lo, hi] and whose default slot is `slot`.
  [[nodiscard]] ValidationTs choose_ts(const txn::TsInterval& iv,
                                       ValidationTs slot) const;

  std::string_view name_;
  OccPolicy policy_;
  /// Active = begun, not yet validated. Forward validation adjusts exactly
  /// this set; transactions past validation are immune.
  std::unordered_map<TxnId, txn::Transaction*> active_;
};

}  // namespace rodain::cc
