#include "rodain/engine/engine.hpp"

#include <cassert>
#include <cstring>

#include "rodain/common/diag.hpp"
#include "rodain/obs/obs.hpp"

namespace rodain::engine {

namespace {
/// Registered once, shared by every engine in the process (sim clusters run
/// two); all mutators no-op unless obs::init enabled the layer.
struct EngineMetrics {
  obs::Counter& commits = obs::metrics().counter("engine.commits");
  obs::Counter& aborts = obs::metrics().counter("engine.aborts");
  obs::Counter& restarts = obs::metrics().counter("engine.restarts");
  obs::Counter& validations = obs::metrics().counter("engine.validations");
  obs::Counter& validation_rejects =
      obs::metrics().counter("engine.validation_rejects");
  obs::Counter& installs = obs::metrics().counter("engine.installs");
};
EngineMetrics& em() {
  static EngineMetrics m;
  return m;
}
}  // namespace

CostModel CostModel::zero() {
  CostModel m;
  m.txn_fixed = m.per_read = m.per_update = m.per_index_lookup = m.validate =
      m.per_install = m.per_log_marshal = m.commit_finalize = Duration::zero();
  return m;
}

Engine::Engine(EngineConfig config, storage::ObjectStore& store,
               storage::BPlusTree* index, log::LogWriter& log_writer,
               Hooks hooks)
    : config_(config),
      store_(store),
      index_(index),
      log_writer_(log_writer),
      hooks_(std::move(hooks)),
      cc_(cc::make_controller(config.protocol)) {
  cc_->set_wakeup_handler([this](TxnId id) {
    if (txn::Transaction* t = find(id)) {
      if (t->phase() == txn::Phase::kBlocked) {
        t->set_phase(txn::Phase::kReadPhase);
        if (hooks_.on_lock_granted) hooks_.on_lock_granted(id);
      }
    }
  });
  cc_->set_victim_handler([this](TxnId id) {
    if (txn::Transaction* t = find(id)) {
      if (!can_abort(*t)) return;  // already validated: grant was moot
      restart(*t);
      if (hooks_.on_victim_restart) hooks_.on_victim_restart(id);
    }
  });
}

void Engine::begin(txn::Transaction& t) {
  txns_[t.id()] = &t;
  cc_->on_begin(t);
}

txn::Transaction* Engine::find(TxnId id) {
  auto it = txns_.find(id);
  return it == txns_.end() ? nullptr : it->second;
}

bool Engine::can_abort(const txn::Transaction& t) const {
  switch (t.phase()) {
    case txn::Phase::kReadPhase:
    case txn::Phase::kBlocked:
    case txn::Phase::kValidating:
      return true;
    default:
      return false;
  }
}

void Engine::mark_stage(txn::Transaction& t, obs::Stage s) const {
  if (config_.clock && obs::enabled()) {
    t.stages.enter(s, config_.clock->now().us);
  }
}

void Engine::abort(txn::Transaction& t, TxnOutcome reason) {
  assert(can_abort(t));
  em().aborts.inc();
  cc_->on_abort(t);
  txns_.erase(t.id());
  t.set_phase(txn::Phase::kAborted);
  t.set_outcome(reason);
  mark_stage(t, obs::Stage::kDone);
}

void Engine::restart(txn::Transaction& t) {
  ++restarts_;
  em().restarts.inc();
  cc_->on_abort(t);
  t.prepare_restart();
  cc_->on_begin(t);
  // The retry re-enters the read phase; its stage buckets keep accruing.
  mark_stage(t, obs::Stage::kReadPhase);
}

void Engine::restart_victims(const std::vector<TxnId>& victims) {
  for (TxnId id : victims) {
    txn::Transaction* v = find(id);
    if (!v) continue;
    // A transaction past validation is immune: its sequence number is
    // assigned and its writes are installed.
    assert(can_abort(*v) && "victimized a validated transaction");
    restart(*v);
    if (hooks_.on_victim_restart) hooks_.on_victim_restart(id);
  }
}

StepResult Engine::restart_or_abort(txn::Transaction& t, Duration cost) {
  if (config_.max_restarts >= 0 && t.restarts() >= config_.max_restarts) {
    cc_->on_abort(t);
    txns_.erase(t.id());
    t.set_phase(txn::Phase::kAborted);
    t.set_outcome(TxnOutcome::kConflictAborted);
    return {StepAction::kAborted, cost};
  }
  restart(t);
  return {StepAction::kRestarted, cost};
}

std::optional<StepResult> Engine::resolve_access(txn::Transaction& t,
                                                 cc::AccessResult access,
                                                 Duration cost) {
  restart_victims(access.victims);
  switch (access.decision) {
    case cc::Access::kGranted:
      return std::nullopt;
    case cc::Access::kBlocked:
      t.set_phase(txn::Phase::kBlocked);
      return StepResult{StepAction::kBlocked, cost};
    case cc::Access::kRestartSelf:
      return restart_or_abort(t, cost);
  }
  return std::nullopt;
}

StepResult Engine::step(txn::Transaction& t) {
  switch (t.phase()) {
    case txn::Phase::kReadPhase:
      if (t.program_done()) {
        // Validation and the write phase form one atomic step
        // (Kung-Robinson critical section; the paper's "transactions are
        // validated atomically"). Splitting them would open a window in
        // which other transactions validate against half-installed state.
        t.set_phase(txn::Phase::kValidating);
        StepResult r = step_validate(t);
        if (t.phase() != txn::Phase::kWritePhase) return r;
        StepResult w = step_write_phase(t);
        w.cost += r.cost;
        return w;
      }
      return step_read_phase(t);
    case txn::Phase::kWaitLogAck:
      return step_finalize(t);
    case txn::Phase::kValidating:
    case txn::Phase::kWritePhase:
    case txn::Phase::kBlocked:
    case txn::Phase::kCommitted:
    case txn::Phase::kAborted:
      assert(false && "step() on a parked or finished transaction");
      return {StepAction::kAborted, Duration::zero()};
  }
  return {StepAction::kAborted, Duration::zero()};
}

const storage::ObjectRecord* Engine::fetch(ObjectId oid) {
  // Instant recovery: first touch replays an object's deferred redo chain
  // before the transaction observes it.
  if (recovery_ && recovery_->active()) {
    recovery_->ensure_recovered(oid, store_, index_);
  }
  return store_.find(oid);
}

StepResult Engine::step_read_phase(txn::Transaction& t) {
  obs::ScopedSpan span(obs::tracer(), obs::Phase::kExecute, t.id());
  mark_stage(t, obs::Stage::kReadPhase);
  const Duration first_step_cost =
      (t.pc() == 0) ? config_.costs.txn_fixed : Duration::zero();
  const txn::Op& op = t.program().ops[t.pc()];

  if (const auto* read = std::get_if<txn::ReadOp>(&op)) {
    return exec_read(t, read->oid, first_step_cost + config_.costs.per_read);
  }
  if (const auto* read_key = std::get_if<txn::ReadKeyOp>(&op)) {
    const Duration cost = first_step_cost + config_.costs.per_index_lookup +
                          config_.costs.per_read;
    if (recovery_ && recovery_->active()) {
      // A deferred insert/delete may not have reached the index yet: replay
      // whatever this key could observe before the lookup.
      recovery_->ensure_recovered_key(read_key->key, store_, index_);
    }
    ObjectId oid = kInvalidObject;
    if (index_) {
      if (auto found = index_->find(read_key->key)) oid = *found;
    }
    if (oid == kInvalidObject) {
      // Key miss: the lookup cost was paid, nothing to read.
      t.advance_pc();
      return {StepAction::kContinue, cost};
    }
    return exec_read(t, oid, cost);
  }
  StepResult r{StepAction::kContinue, Duration::zero()};
  if (const auto* update = std::get_if<txn::UpdateOp>(&op)) {
    r = exec_update(t, *update);
  } else if (const auto* insert = std::get_if<txn::InsertOp>(&op)) {
    r = exec_insert(t, *insert);
  } else if (const auto* erase = std::get_if<txn::DeleteOp>(&op)) {
    r = exec_delete(t, *erase);
  } else {
    r.cost = std::get<txn::ComputeOp>(op).cost;
    t.advance_pc();
  }
  r.cost += first_step_cost;
  return r;
}

StepResult Engine::exec_read(txn::Transaction& t, ObjectId oid,
                             Duration base_cost) {
  // Read-your-own-write: the private copy, no concurrency-control tracking.
  // A private delete reads as missing.
  if (const txn::WriteEntry* own = t.find_write(oid)) {
    if (config_.capture_reads) {
      t.captured_reads.push_back(own->is_delete() ? storage::Value{}
                                                  : own->after);
    }
    t.advance_pc();
    return {StepAction::kContinue, base_cost};
  }

  const storage::ObjectRecord* rec = fetch(oid);
  if (auto parked = resolve_access(t, cc_->on_read(t, oid, rec), base_cost)) {
    return *parked;
  }
  if (config_.capture_reads) {
    // Tombstones read as missing (their wts was still observed above).
    t.captured_reads.push_back(rec && rec->live() ? rec->value
                                                  : storage::Value{});
  }
  t.advance_pc();
  return {StepAction::kContinue, base_cost};
}

StepResult Engine::exec_insert(txn::Transaction& t, const txn::InsertOp& op) {
  const Duration cost = config_.costs.per_update;
  const storage::ObjectRecord* rec = fetch(op.oid);
  if (auto parked = resolve_access(t, cc_->on_write(t, op.oid, rec), cost)) {
    return *parked;
  }
  // Blind put of the full value (revives a private or committed delete).
  t.write_copy(op.oid, storage::Value{}) = op.value;
  if (op.has_key) t.set_entry_key(op.oid, op.key);
  t.advance_pc();
  return {StepAction::kContinue, cost};
}

StepResult Engine::exec_delete(txn::Transaction& t, const txn::DeleteOp& op) {
  const Duration cost = config_.costs.per_update;
  const storage::ObjectRecord* rec = fetch(op.oid);
  if (auto parked = resolve_access(t, cc_->on_write(t, op.oid, rec), cost)) {
    return *parked;
  }
  t.delete_entry(op.oid, op.has_key, op.key);
  t.advance_pc();
  return {StepAction::kContinue, cost};
}

StepResult Engine::exec_update(txn::Transaction& t, const txn::UpdateOp& op) {
  const Duration cost = config_.costs.per_update;
  const storage::ObjectRecord* rec = fetch(op.oid);

  // Read-modify-write updates observe the current value: track the read.
  if (op.kind == txn::UpdateOp::Kind::kAddToField &&
      !t.in_write_set(op.oid)) {
    if (auto parked = resolve_access(t, cc_->on_read(t, op.oid, rec), cost)) {
      return *parked;
    }
  }
  if (auto parked = resolve_access(t, cc_->on_write(t, op.oid, rec), cost)) {
    return *parked;
  }

  // Deferred write: mutate the private copy only (paper §2).
  storage::Value& copy =
      t.write_copy(op.oid, rec ? rec->value : storage::Value{});
  switch (op.kind) {
    case txn::UpdateOp::Kind::kSetValue:
      copy = op.value;
      break;
    case txn::UpdateOp::Kind::kAddToField: {
      if (copy.size() < op.field_offset + 8) {
        // Auto-extend so counters can live in fresh objects.
        std::vector<std::byte> grown(op.field_offset + 8);
        std::memcpy(grown.data(), copy.data(), copy.size());
        copy.assign(grown);
      }
      copy.write_u64(op.field_offset,
                     copy.read_u64(op.field_offset) + op.delta);
      break;
    }
  }
  t.advance_pc();
  return {StepAction::kContinue, cost};
}

StepResult Engine::step_validate(txn::Transaction& t) {
  obs::ScopedSpan span(obs::tracer(), obs::Phase::kValidate, t.id());
  mark_stage(t, obs::Stage::kValidate);
  const Duration cost = config_.costs.validate;
  em().validations.inc();
  const ValidationTs seq = next_seq_;
  cc::ValidationResult result = cc_->validate(t, seq, store_);
  if (!result.ok) {
    em().validation_rejects.inc();
    t.set_phase(txn::Phase::kReadPhase);
    return restart_or_abort(t, cost);
  }
  restart_victims(result.victims);
  t.set_validated(seq, result.serial_ts);
  next_seq_ = seq + 1;
  t.set_phase(txn::Phase::kWritePhase);
  return {StepAction::kContinue, cost};
}

StepResult Engine::step_write_phase(txn::Transaction& t) {
  obs::ScopedSpan span(obs::tracer(), obs::Phase::kWritePhase, t.id());
  mark_stage(t, obs::Stage::kWritePhase);
  const auto& writes = t.write_set();
  em().installs.inc(writes.size());
  const bool logging = log_writer_.mode() != LogMode::kOff;
  Duration cost =
      config_.costs.per_install * static_cast<std::int64_t>(writes.size());
  if (logging) {
    cost += config_.costs.per_log_marshal *
            static_cast<std::int64_t>(writes.size() + 1);
  }

  // Install the deferred copies (paper §2: deferred write) and, when
  // logging, generate the redo stream (paper §3: "each update also
  // generates a log record containing transaction identification, data item
  // identification and an after image"; a commit record is generated even
  // for read-only transactions). Deletes install as tombstones; index keys
  // are maintained alongside.
  for (const txn::WriteEntry& w : writes) {
    if (w.is_delete()) {
      store_.tombstone(w.oid, t.serial_ts());
      if (w.has_key && index_) index_->erase(w.key);
    } else {
      store_.upsert(w.oid, w.after, t.serial_ts());
      if (w.has_key && index_) {
        if (!index_->insert(w.key, w.oid)) index_->update(w.key, w.oid);
      }
    }
  }
  cc_->on_installed(t, store_);

  t.set_phase(txn::Phase::kWaitLogAck);
  mark_stage(t, obs::Stage::kLogFlush);
  const TxnId id = t.id();
  if (!logging) {
    // "No logs" configuration: nothing to marshal or wait for.
    if (hooks_.on_log_durable) hooks_.on_log_durable(id);
    return {StepAction::kWaitLogAck, cost};
  }
  log_writer_.submit(
      t.validation_seq(), marshal_records(t),
      [this, id] {
        if (hooks_.on_log_durable) hooks_.on_log_durable(id);
      },
      config_.clock ? &t.stages : nullptr);
  return {StepAction::kWaitLogAck, cost};
}

std::vector<log::Record> Engine::marshal_records(
    const txn::Transaction& t) const {
  const auto& writes = t.write_set();
  std::vector<log::Record> records;
  records.reserve(writes.size() + 1);
  for (const txn::WriteEntry& w : writes) {
    if (w.is_delete()) {
      records.push_back(w.has_key
                            ? log::Record::tombstone(t.id(), w.oid, w.key)
                            : log::Record::tombstone(t.id(), w.oid));
    } else if (w.has_key) {
      records.push_back(log::Record::insert_image(t.id(), w.oid, w.after, w.key));
    } else {
      records.push_back(log::Record::write_image(t.id(), w.oid, w.after));
    }
  }
  records.push_back(log::Record::commit(
      t.id(), t.validation_seq(), t.serial_ts(),
      static_cast<std::uint32_t>(writes.size())));
  return records;
}

StepResult Engine::step_finalize(txn::Transaction& t) {
  em().commits.inc();
  t.set_phase(txn::Phase::kCommitted);
  t.set_outcome(TxnOutcome::kCommitted);
  txns_.erase(t.id());
  mark_stage(t, obs::Stage::kDone);
  return {StepAction::kCommitted, config_.costs.commit_finalize};
}

}  // namespace rodain::engine
