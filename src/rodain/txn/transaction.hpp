// The in-flight transaction descriptor: program counter, deferred write set,
// read tracking, timestamp interval, and lifecycle state.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "rodain/common/time.hpp"
#include "rodain/common/types.hpp"
#include "rodain/obs/lifecycle.hpp"
#include "rodain/storage/value.hpp"
#include "rodain/txn/program.hpp"

namespace rodain::txn {

/// Lifecycle (paper §2–3): read phase → validation → write phase (installs
/// deferred copies + emits redo log) → wait for the commit-record ack →
/// committed. Aborts may happen any time before validation succeeds.
enum class Phase : std::uint8_t {
  kReadPhase = 0,
  kValidating,
  kWritePhase,
  kWaitLogAck,
  kCommitted,
  kAborted,
  kBlocked,  ///< 2PL only: waiting for a lock
};

[[nodiscard]] constexpr std::string_view to_string(Phase p) {
  switch (p) {
    case Phase::kReadPhase: return "read";
    case Phase::kValidating: return "validating";
    case Phase::kWritePhase: return "write";
    case Phase::kWaitLogAck: return "wait-log-ack";
    case Phase::kCommitted: return "committed";
    case Phase::kAborted: return "aborted";
    case Phase::kBlocked: return "blocked";
  }
  return "?";
}

/// One tracked read: which object and which committed version (its wts at
/// read time) the transaction observed. The observed wts anchors the lower
/// bound of the serialization interval.
struct ReadEntry {
  ObjectId oid{kInvalidObject};
  ValidationTs observed_wts{0};
};

/// One deferred write: the private after-image, installed at write phase.
/// kDelete entries install as tombstones; entries carrying an index key
/// register (kPut) or drop (kDelete) the secondary-index entry at install
/// and in the redo stream.
struct WriteEntry {
  enum class Kind : std::uint8_t { kPut = 0, kDelete };
  ObjectId oid{kInvalidObject};
  storage::Value after;
  Kind kind{Kind::kPut};
  bool has_key{false};
  storage::IndexKey key{};

  [[nodiscard]] bool is_delete() const { return kind == Kind::kDelete; }
};

/// Logical serialization-timestamp interval [lo, hi], inclusive.
/// OCC-TI / OCC-DATI shrink it; empty (lo > hi) means restart.
struct TsInterval {
  static constexpr ValidationTs kInf = std::numeric_limits<ValidationTs>::max();
  ValidationTs lo{1};
  ValidationTs hi{kInf};

  [[nodiscard]] bool empty() const { return lo > hi; }
  /// Clamp to [t+1, hi] — "serialize after t". t == kInf is unsatisfiable.
  void after(ValidationTs t) {
    if (t >= kInf) {
      lo = kInf;
      hi = kInf - 1;
      return;
    }
    lo = std::max(lo, t + 1);
  }
  /// Clamp to [lo, t-1] — "serialize before t". t == 0 is unsatisfiable.
  void before(ValidationTs t) {
    if (t == 0) {
      hi = 0;
      lo = std::max<ValidationTs>(lo, 1);
      return;
    }
    hi = std::min(hi, t - 1);
  }
  void reset() { *this = TsInterval{}; }
};

class Transaction {
 public:
  Transaction(TxnId id, std::uint64_t seq, TxnProgram program,
              TimePoint arrival, TimePoint deadline)
      : id_(id), admission_seq_(seq), program_(std::move(program)),
        arrival_(arrival), deadline_(deadline) {}

  [[nodiscard]] TxnId id() const { return id_; }
  [[nodiscard]] const TxnProgram& program() const { return program_; }
  [[nodiscard]] TimePoint arrival() const { return arrival_; }
  [[nodiscard]] TimePoint deadline() const { return deadline_; }
  [[nodiscard]] Criticality criticality() const { return program_.criticality; }

  /// EDF key; the admission sequence breaks deadline ties FIFO.
  [[nodiscard]] PriorityKey priority() const {
    return PriorityKey{program_.criticality, deadline_, admission_seq_};
  }

  [[nodiscard]] Phase phase() const { return phase_; }
  void set_phase(Phase p) { phase_ = p; }

  [[nodiscard]] std::size_t pc() const { return pc_; }
  void advance_pc() { ++pc_; }
  [[nodiscard]] bool program_done() const { return pc_ >= program_.ops.size(); }

  [[nodiscard]] const std::vector<ReadEntry>& read_set() const {
    return read_set_;
  }
  [[nodiscard]] const std::vector<WriteEntry>& write_set() const {
    return write_set_;
  }

  [[nodiscard]] bool in_read_set(ObjectId oid) const;
  [[nodiscard]] bool in_write_set(ObjectId oid) const;
  void note_read(ObjectId oid, ValidationTs observed_wts);
  /// Returns the private copy for `oid`, creating it from `base` on first
  /// write (deferred-write clone). Re-putting a deleted entry revives it.
  storage::Value& write_copy(ObjectId oid, const storage::Value& base);
  /// Mark `oid` deleted in the private write set.
  WriteEntry& delete_entry(ObjectId oid, bool has_key,
                           const storage::IndexKey& key);
  /// Attach an index key to the (existing) private entry for `oid`.
  void set_entry_key(ObjectId oid, const storage::IndexKey& key);
  [[nodiscard]] const WriteEntry* find_write(ObjectId oid) const;

  [[nodiscard]] TsInterval& interval() { return interval_; }
  [[nodiscard]] const TsInterval& interval() const { return interval_; }

  /// Dense validation sequence number (assigned when validation succeeds;
  /// this is the order the mirror re-establishes, paper §3).
  [[nodiscard]] ValidationTs validation_seq() const { return validation_seq_; }
  /// Logical serialization timestamp chosen from the interval.
  [[nodiscard]] ValidationTs serial_ts() const { return serial_ts_; }
  void set_validated(ValidationTs seq, ValidationTs serial) {
    validation_seq_ = seq;
    serial_ts_ = serial;
  }

  [[nodiscard]] int restarts() const { return restarts_; }

  /// Reset all execution state for a restart (keeps identity, arrival,
  /// deadline — the transaction re-enters the read phase from scratch).
  void prepare_restart();

  [[nodiscard]] TxnOutcome outcome() const { return outcome_; }
  void set_outcome(TxnOutcome o) { outcome_ = o; }

  /// Captured read values (enabled by tests to check serializability).
  std::vector<storage::Value> captured_reads;

  /// Lifecycle stage clock (obs/lifecycle.hpp), stamped by the driver and
  /// engine along the commit path. Single-writer by protocol: whichever
  /// thread currently drives the transaction stamps it. Survives restarts —
  /// buckets accumulate across retries of the same transaction.
  obs::StageClock stages;

 private:
  TxnId id_;
  std::uint64_t admission_seq_;
  TxnProgram program_;
  TimePoint arrival_;
  TimePoint deadline_;

  Phase phase_{Phase::kReadPhase};
  std::size_t pc_{0};
  std::vector<ReadEntry> read_set_;
  std::vector<WriteEntry> write_set_;
  TsInterval interval_;
  ValidationTs validation_seq_{kInvalidValidationTs};
  ValidationTs serial_ts_{kInvalidValidationTs};
  int restarts_{0};
  TxnOutcome outcome_{TxnOutcome::kCommitted};
};

}  // namespace rodain::txn
