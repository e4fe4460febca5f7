// Concurrency-control interface.
//
// The paper's protocol is OCC-DATI (a combination of OCC-DA and OCC-TI that
// "reduces the number of unnecessary restarts", §2). To reproduce that claim
// we implement the whole family behind one interface:
//
//   OCC-BC    classic broadcast forward validation: every active reader of a
//             validated write set restarts.
//   OCC-DA    dynamic adjustment of serialization order, but the validating
//             transaction's own timestamp is fixed — backward ordering is
//             impossible for the validator, so it restarts itself when it has
//             been ordered before an already-committed transaction.
//   OCC-TI    timestamp intervals adjusted eagerly at access time as well as
//             at validation; the final timestamp is the interval minimum.
//   OCC-DATI  timestamp intervals adjusted only at validation, final
//             timestamp chosen mid-interval to keep room on both sides —
//             the fewest restarts of the family.
//   2PL-HP    two-phase locking with High Priority conflict resolution, the
//             classical real-time lock-based baseline.
//
// All OCC variants use *forward* validation: the validating transaction
// always commits (given its own interval is non-empty); conflicts are pushed
// onto active transactions. Validation calls are serialized by the engine
// ("transactions are validated atomically", §4).
#pragma once

#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "rodain/common/types.hpp"
#include "rodain/storage/object_store.hpp"
#include "rodain/txn/transaction.hpp"

namespace rodain::cc {

/// Logical timestamps are spaced this far apart per validation so that
/// backward-ordered transactions can be placed between committed ones.
inline constexpr ValidationTs kTsSpacing = ValidationTs{1} << 20;

enum class Access : std::uint8_t {
  kGranted = 0,
  kBlocked,      ///< 2PL: wait for the lock; engine parks the transaction
  kRestartSelf,  ///< the requesting transaction must restart
};

struct AccessResult {
  Access decision{Access::kGranted};
  /// Lower-priority transactions the requester displaced (2PL-HP).
  std::vector<TxnId> victims;
};

struct ValidationResult {
  bool ok{false};
  ValidationTs serial_ts{0};  ///< logical serialization timestamp when ok
  /// Active transactions whose serialization interval became empty (or that
  /// were broadcast-invalidated) and must restart.
  std::vector<TxnId> victims;
};

class ConcurrencyController {
 public:
  virtual ~ConcurrencyController() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Transaction enters its read phase (also called again after a restart).
  virtual void on_begin(txn::Transaction& t) = 0;

  /// Read-time hook. `rec` is the committed record (nullptr if the object
  /// does not exist). OCC variants record the observation; 2PL acquires a
  /// shared lock.
  virtual AccessResult on_read(txn::Transaction& t, ObjectId oid,
                               const storage::ObjectRecord* rec) = 0;

  /// Write-intent hook (the update itself goes to the private copy).
  virtual AccessResult on_write(txn::Transaction& t, ObjectId oid,
                                const storage::ObjectRecord* rec) = 0;

  /// Validation, executed inside the engine's validation critical section.
  /// `next_seq` is the dense validation sequence number the transaction
  /// receives if validation succeeds; `store` supplies the committed
  /// timestamps the final-timestamp choice must respect.
  virtual ValidationResult validate(txn::Transaction& t, ValidationTs next_seq,
                                    const storage::ObjectStore& store) = 0;

  /// Called after the write phase installed the after-images: bump the
  /// committed read/write timestamps on the touched objects.
  virtual void on_installed(txn::Transaction& t, storage::ObjectStore& store) = 0;

  /// Abort/restart cleanup (locks released, active-set entry removed).
  virtual void on_abort(txn::Transaction& t) = 0;

  /// 2PL: invoked with transactions whose blocking lock request was granted.
  using WakeupFn = std::function<void(TxnId)>;
  virtual void set_wakeup_handler(WakeupFn fn) { (void)fn; }

  /// 2PL: invoked with holders displaced by a promoted higher-priority
  /// waiter (HP rule at promotion time); the engine must restart them.
  using VictimFn = std::function<void(TxnId)>;
  virtual void set_victim_handler(VictimFn fn) { (void)fn; }

  /// Protocol-wide restart counter (diagnostics; engine keeps its own too).
  [[nodiscard]] virtual std::size_t active_count() const = 0;
};

enum class Protocol : std::uint8_t {
  kOccBc = 0,
  kOccDa,
  kOccTi,
  kOccDati,
  kTwoPlHp,
};

[[nodiscard]] std::string_view to_string(Protocol p);
[[nodiscard]] std::unique_ptr<ConcurrencyController> make_controller(Protocol p);

}  // namespace rodain::cc
