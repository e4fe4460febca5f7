// The database engine: a passive (sans-IO) state machine that advances
// transactions one operation at a time.
//
// Drivers own time and concurrency: the simulator charges each step's CPU
// cost on a virtual preemptive-EDF processor, while the real-time runtime
// executes steps on worker threads, one step at a time under its commit
// mutex. The engine is not thread-safe; it only mutates state:
// it runs reads against the store, keeps deferred-write copies, validates
// through the pluggable concurrency controller, installs after-images, and
// hands redo records to the Log Writer.
//
// A transaction's journey (paper §2–3):
//   read phase  ->  validation  ->  write phase (+ log emission)  ->
//   wait for the commit-record ack  ->  final commit step.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>

#include "rodain/cc/controller.hpp"
#include "rodain/common/clock.hpp"
#include "rodain/common/types.hpp"
#include "rodain/log/redo_index.hpp"
#include "rodain/log/writer.hpp"
#include "rodain/storage/btree.hpp"
#include "rodain/storage/object_store.hpp"
#include "rodain/txn/transaction.hpp"

namespace rodain::engine {

/// CPU cost of each engine step, charged by the driver. Calibrated in
/// workload/calibration.hpp so that the no-logging configuration saturates
/// at the paper's 200–300 txn/s (DESIGN.md §5).
struct CostModel {
  Duration txn_fixed{Duration::micros(1200)};   ///< charged on the first step
  Duration per_read{Duration::micros(350)};
  Duration per_update{Duration::micros(550)};
  Duration per_index_lookup{Duration::micros(80)};
  Duration validate{Duration::micros(250)};
  Duration per_install{Duration::micros(100)};
  Duration per_log_marshal{Duration::micros(50)};
  Duration commit_finalize{Duration::micros(200)};

  [[nodiscard]] static CostModel zero();  ///< free steps (functional tests)
};

struct EngineConfig {
  cc::Protocol protocol{cc::Protocol::kOccDati};
  CostModel costs{};
  /// Restart budget per transaction; < 0 means unlimited (the deadline is
  /// the real bound — "an aborted transaction is either discarded or
  /// restarted depending on its properties", paper §2).
  int max_restarts{-1};
  /// Capture every read value on the transaction (serializability tests).
  bool capture_reads{false};
  /// Driver clock for lifecycle stage stamps (obs/lifecycle.hpp): the
  /// real-time node passes its steady clock, the simulator passes itself.
  /// Null disables stage accounting.
  const Clock* clock{nullptr};
  /// Inert: nothing reads it. Every engine step runs in its driver's
  /// serial context (rt::Node's commit mutex, the simulator's one thread),
  /// so there is no parallel commit path to switch on. The field stays
  /// because rtbench/rtbench.cpp assigns it, and rtbench changes only
  /// together with the benchmark it defines.
  bool parallel_commit{false};
};

enum class StepAction : std::uint8_t {
  kContinue = 0,  ///< charge the cost, then call step() again
  kBlocked,       ///< parked on a lock; on_lock_granted will fire
  kWaitLogAck,    ///< parked until the log ack; on_log_durable will fire
  kCommitted,     ///< transaction finished successfully
  kRestarted,     ///< reset to the read phase; reschedule from scratch
  kAborted,       ///< terminal abort; outcome() says why
};

struct StepResult {
  StepAction action{StepAction::kContinue};
  Duration cost{Duration::zero()};
};

class Engine {
 public:
  struct Hooks {
    /// A concurrency-control victim was reset to its read phase; the driver
    /// must cancel its in-flight CPU work and reschedule it.
    std::function<void(TxnId)> on_victim_restart;
    /// A blocked (2PL) transaction's lock was granted.
    std::function<void(TxnId)> on_lock_granted;
    /// The log ack for a kWaitLogAck transaction arrived; drive its final
    /// commit step. May fire inline from within step().
    std::function<void(TxnId)> on_log_durable;
  };

  Engine(EngineConfig config, storage::ObjectStore& store,
         storage::BPlusTree* index, log::LogWriter& log_writer, Hooks hooks);

  /// Register and begin a transaction (driver keeps ownership).
  void begin(txn::Transaction& t);

  /// Advance the transaction by one unit of work.
  StepResult step(txn::Transaction& t);

  /// True while the transaction has not passed validation (only such
  /// transactions may be aborted — deferred writes make that free).
  [[nodiscard]] bool can_abort(const txn::Transaction& t) const;

  /// Terminal abort (deadline expiry, overload shedding, shutdown).
  void abort(txn::Transaction& t, TxnOutcome reason);

  [[nodiscard]] txn::Transaction* find(TxnId id);
  [[nodiscard]] ValidationTs last_validation_seq() const {
    return next_seq_ - 1;
  }

  /// Highest seq v such that every transaction with seq <= v has installed
  /// its after-images — the consistent snapshot boundary for join serving
  /// and checkpoints. Validation and install are one step, so it is the
  /// last validation seq.
  [[nodiscard]] ValidationTs installed_low_water() const {
    return last_validation_seq();
  }
  [[nodiscard]] std::uint64_t restarts() const { return restarts_; }
  [[nodiscard]] cc::ConcurrencyController& controller() { return *cc_; }
  [[nodiscard]] const CostModel& costs() const { return config_.costs; }

  /// Continue the validation sequence after a takeover (the new primary
  /// must not reuse sequence numbers the old one already shipped).
  void set_next_validation_seq(ValidationTs seq) { next_seq_ = seq; }

  /// Instant recovery (DESIGN.md §12): while `redo` is active, fetches
  /// replay an object's deferred chain on first touch. Pass nullptr to
  /// detach; the pointer must outlive the engine or a later detach.
  void set_recovery(log::RedoIndex* redo) { recovery_ = redo; }

 private:
  StepResult step_read_phase(txn::Transaction& t);
  StepResult step_validate(txn::Transaction& t);
  StepResult step_write_phase(txn::Transaction& t);
  StepResult step_finalize(txn::Transaction& t);

  /// Committed-record fetch for one read-phase access (nullptr on miss).
  const storage::ObjectRecord* fetch(ObjectId oid);

  StepResult exec_read(txn::Transaction& t, ObjectId oid, Duration base_cost);
  StepResult exec_update(txn::Transaction& t, const txn::UpdateOp& op);
  StepResult exec_insert(txn::Transaction& t, const txn::InsertOp& op);
  StepResult exec_delete(txn::Transaction& t, const txn::DeleteOp& op);
  /// Park, restart or continue after a controller access decision. Returns
  /// nullopt when the access was granted and the step goes on.
  std::optional<StepResult> resolve_access(txn::Transaction& t,
                                           cc::AccessResult access,
                                           Duration cost);

  /// Stamp the transaction's lifecycle stage clock (no-op without a
  /// driver clock or with obs disabled).
  void mark_stage(txn::Transaction& t, obs::Stage s) const;

  /// Reset a transaction to its read phase (self restart or victim).
  void restart(txn::Transaction& t);
  void restart_victims(const std::vector<TxnId>& victims);
  /// Self restart unless the budget is exhausted (then terminal abort).
  StepResult restart_or_abort(txn::Transaction& t, Duration cost);

  /// Marshal the redo stream (after-images + commit record, paper §3).
  [[nodiscard]] std::vector<log::Record> marshal_records(
      const txn::Transaction& t) const;

  EngineConfig config_;
  storage::ObjectStore& store_;
  storage::BPlusTree* index_;
  log::LogWriter& log_writer_;
  Hooks hooks_;
  std::unique_ptr<cc::ConcurrencyController> cc_;
  log::RedoIndex* recovery_{nullptr};

  std::unordered_map<TxnId, txn::Transaction*> txns_;
  ValidationTs next_seq_{1};
  std::uint64_t restarts_{0};
};

}  // namespace rodain::engine
