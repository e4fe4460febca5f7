#include "rodain/simdb/sim_node.hpp"

#include <cassert>

#include "rodain/common/diag.hpp"
#include "rodain/obs/obs.hpp"

namespace rodain::simdb {

namespace {
std::unique_ptr<log::LogStorage> make_disk(sim::Simulation& sim,
                                           const SimNodeConfig& config) {
  if (!config.disk_enabled) return std::make_unique<log::MemoryLogStorage>();
  return std::make_unique<log::SimDiskLogStorage>(sim, config.disk);
}

repl::ReplicaController::Config replica_config(const SimNodeConfig& config) {
  repl::ReplicaController::Config c;
  c.heartbeat_interval = config.heartbeat_interval;
  c.watchdog_timeout = config.watchdog_timeout;
  c.ack_timeout = config.ack_timeout;
  c.disconnect_grace = config.disconnect_grace;
  c.takeover_activation = config.takeover_activation;
  c.log_batch = config.log_batch;
  c.store_to_disk = config.disk_enabled;
  // Every role's cadence: the write is modelled, the truncation of the
  // log below each boundary is real.
  c.checkpoint_interval = config.checkpoint_interval;
  return c;
}
}  // namespace

SimNode::SimNode(sim::Simulation& sim, std::string name, NodeId id,
                 SimNodeConfig config)
    : sim_(sim),
      name_(std::move(name)),
      node_id_(id),
      config_(config),
      store_(config.store_capacity_hint),
      disk_(make_disk(sim, config)),
      replica_(replica_config(config), sim, store_, index_, disk_.get(), *this,
               name_),
      cpu_(sim),
      overload_(config.overload),
      reservation_(config.nonrt_fraction) {
  // Lifecycle stage clocks tick in virtual time: the simulation is the
  // Clock the engine and log writer stamp transitions with.
  config_.engine.clock = &sim_;
}

SimNode::~SimNode() = default;

void SimNode::on_role(NodeRole role) {
  if (serving() && checkpoint_event_ == sim::kInvalidEvent) {
    schedule_checkpoint();
  }
  if (on_role_change_) on_role_change_(role);
}

void SimNode::build_engine(log::LogWriter& writer, ValidationTs next_seq) {
  engine::Engine::Hooks hooks;
  hooks.on_victim_restart = [this](TxnId id) {
    auto it = active_.find(id);
    if (it == active_.end()) return;
    cancel_pending_work(it->second);
    nonrt_queued_.erase(id);
    schedule_resume(id);
  };
  hooks.on_lock_granted = [this](TxnId id) { schedule_resume(id); };
  hooks.on_log_durable = [this](TxnId id) { schedule_resume(id); };
  engine_ = std::make_unique<engine::Engine>(config_.engine, store_, &index_,
                                             writer, std::move(hooks));
  engine_->set_next_validation_seq(next_seq);
  if (recovery_ && recovery_->active()) engine_->set_recovery(recovery_.get());
}

void SimNode::drop_engine() {
  RODAIN_INFO("%s: %zu in-flight txns lost", name_.c_str(), active_.size());
  // Flushes still on the device complete without us: their callbacks
  // point into the engine torn down below.
  if (auto* disk = dynamic_cast<log::SimDiskLogStorage*>(disk_.get())) {
    disk->crash();
  }
  auto active = std::move(active_);
  active_.clear();
  nonrt_queued_.clear();
  engine_.reset();
  // Parked redo dies with the role: a winner's snapshot replaces the store,
  // and the next restart_from_disk re-indexes the surviving log.
  if (sweep_event_ != sim::kInvalidEvent) sim_.cancel(sweep_event_);
  sweep_event_ = sim::kInvalidEvent;
  recovery_.reset();
  // The callbacks run last: one that submits again finds no engine.
  for (auto& [id, a] : active) {
    cancel_pending_work(a);
    if (a.deadline_event != sim::kInvalidEvent) sim_.cancel(a.deadline_event);
    overload_.on_finish();
    ++counters_.system_aborted;
    if (a.done) {
      TxnResult r;
      r.id = id;
      r.outcome = TxnOutcome::kSystemAborted;
      r.arrival = a.txn->arrival();
      r.finish = sim_.now();
      r.restarts = a.txn->restarts();
      a.done(r);
    }
  }
}

void SimNode::wake_at(TimePoint at) {
  if (tick_event_ != sim::kInvalidEvent) {
    if (at >= tick_at_) return;
    sim_.cancel(tick_event_);
  }
  tick_at_ = std::max(at, sim_.now());
  tick_event_ = sim_.schedule_at(tick_at_, [this] { run_tick(); });
}

void SimNode::run_tick() {
  tick_event_ = sim::kInvalidEvent;
  const TimePoint due = replica_.tick(sim_.now());
  if (due != TimePoint::max()) wake_at(due);
}

void SimNode::schedule_flush(Duration delay) {
  // The event may outlive this writer (role teardown): calling flush on
  // the successor's empty or fresh batch is harmless — flush_batch()
  // re-arms or no-ops as needed.
  sim_.schedule_after(delay, [this] {
    if (log::LogWriter* writer = replica_.writer()) writer->flush_batch();
  });
}

void SimNode::start_as_primary(LogMode mode) {
  replica_.start_primary(mode, 1);
}

void SimNode::start_as_mirror(ValidationTs expected_next) {
  replica_.start_mirror(expected_next);
}

void SimNode::fail() {
  RODAIN_INFO("%s: node failure", name_.c_str());
  for (sim::EventId* event : {&tick_event_, &checkpoint_event_}) {
    if (*event != sim::kInvalidEvent) sim_.cancel(*event);
    *event = sim::kInvalidEvent;
  }
  drop_engine();
  replica_.stop();
}

void SimNode::recover_and_rejoin() {
  assert(role() == NodeRole::kDown);
  replica_.start_joiner();
}

void SimNode::schedule_checkpoint() {
  if (!replica_.checkpointer().enabled()) return;
  if (checkpoint_event_ != sim::kInvalidEvent) sim_.cancel(checkpoint_event_);
  checkpoint_event_ = sim_.schedule_after(config_.checkpoint_interval,
                                          [this] { checkpoint_tick(); });
}

void SimNode::checkpoint_tick() {
  checkpoint_event_ = sim::kInvalidEvent;
  if (!serving()) return;  // mirror-role checkpoints ride MirrorService::poll
  if (recovery_ && recovery_->active()) {
    // A boundary taken now would truncate log the redo index still needs;
    // re-arm (unlike the !serving() return) and wait out the drain.
    schedule_checkpoint();
    return;
  }
  replica_.checkpointer().tick(sim_.now());
  schedule_checkpoint();
}

SimNode::RestartStats SimNode::restart_from_disk(LogMode mode) {
  assert(role() == NodeRole::kDown && "restart only from a crashed state");
  // The surviving store stands in for the checkpoint file (the simulator
  // never writes one): redo replay is idempotent, so what the two modes
  // model differently is only the *work* before and after serving resumes.
  std::vector<log::Record> stored;
  if (auto* d = dynamic_cast<log::SimDiskLogStorage*>(disk_.get())) {
    stored = d->records();
  } else if (auto* m = dynamic_cast<log::MemoryLogStorage*>(disk_.get())) {
    stored = m->records();
  }
  ValidationTs last_seq = 0;
  std::uint64_t committed = 0;
  for (const log::Record& r : stored) {
    if (r.is_commit() && r.seq != kInvalidValidationTs) {
      ++committed;
      if (r.seq > last_seq) last_seq = r.seq;
    }
  }
  RestartStats stats;
  stats.replayable_txns = committed;

  replica_.start_local_recovery();
  const auto serve = [this, mode, last_seq] {
    if (role() != NodeRole::kRecovering) return;  // raced with fail()
    replica_.start_primary(mode, last_seq + 1);
    if (recovery_ && recovery_->active()) schedule_recovery_sweep();
  };
  if (!config_.instant_recovery) {
    // Classical restart: the node is silent while every stored transaction
    // replays, then activates — TTFC grows linearly with the log.
    stats.time_to_serve = config_.takeover_activation +
                          config_.replay_cost_per_txn *
                              static_cast<std::int64_t>(committed);
    sim_.schedule_after(stats.time_to_serve, serve);
    return stats;
  }

  // Instant restart (DESIGN.md §12): index the log without applying it and
  // serve after the bare activation delay; deferred chains replay on first
  // touch plus background sweep events.
  recovery_ = std::make_unique<log::RedoIndex>();
  if (auto s = recovery_->build(stored, 0); !s) {
    RODAIN_WARN("%s: redo index build failed (%s); restarting with empty log",
                name_.c_str(), s.message().c_str());
    recovery_.reset();
  }
  stats.instant = true;
  stats.deferred_txns = recovery_ ? recovery_->pending_txns() : 0;
  stats.time_to_serve = config_.takeover_activation;
  sim_.schedule_after(config_.takeover_activation, serve);
  return stats;
}

void SimNode::schedule_recovery_sweep() {
  if (sweep_event_ != sim::kInvalidEvent) sim_.cancel(sweep_event_);
  sweep_event_ =
      sim_.schedule_after(config_.recovery_sweep_interval, [this] {
        sweep_event_ = sim::kInvalidEvent;
        if (!recovery_ || !serving()) return;
        if (recovery_->active()) {
          recovery_->sweep(config_.recovery_sweep_txns, store_, &index_);
        }
        if (!recovery_->active()) {
          // On-demand touches may have finished the drain between events.
          if (engine_) engine_->set_recovery(nullptr);
          recovery_->retire();
          RODAIN_INFO(
              "%s: instant recovery drained (%llu on-demand, %llu background)",
              name_.c_str(),
              static_cast<unsigned long long>(recovery_->ondemand_applied()),
              static_cast<unsigned long long>(recovery_->background_applied()));
          return;
        }
        schedule_recovery_sweep();
      });
}

// ---- transaction driving -------------------------------------------------

void SimNode::submit(txn::TxnProgram program, DoneFn done) {
  ++counters_.submitted;
  const TimePoint now = sim_.now();
  TxnResult result;
  result.arrival = now;
  result.finish = now;

  if (!serving() || !engine_) {
    ++counters_.system_aborted;
    result.outcome = TxnOutcome::kSystemAborted;
    if (done) done(result);
    return;
  }
  // Overload manager: when the active-transaction cap is reached, the
  // arriving (lower-priority) transaction is aborted (paper §2/§4). With
  // displacement enabled, an arrival that outranks the lowest-priority
  // abortable active transaction sheds that one instead.
  if (!overload_.try_admit(now)) {
    bool admitted = false;
    if (config_.overload.displace_on_admission) {
      const PriorityKey arriving{
          program.criticality,
          program.criticality == Criticality::kNonRealTime
              ? TimePoint::max()
              : now + program.relative_deadline,
          admission_seq_ + 1};
      TxnId victim = kInvalidTxn;
      const txn::Transaction* lowest = nullptr;
      for (const auto& [vid, a] : active_) {
        if (!engine_ || !engine_->can_abort(*a.txn)) continue;
        if (!lowest || lowest->priority().higher_than(a.txn->priority())) {
          lowest = a.txn.get();
          victim = vid;
        }
      }
      if (lowest && arriving.higher_than(lowest->priority())) {
        auto vit = active_.find(victim);
        cancel_pending_work(vit->second);
        engine_->abort(*vit->second.txn, TxnOutcome::kOverloadRejected);
        finish(victim, TxnOutcome::kOverloadRejected);
        admitted = overload_.try_admit(now);
      }
    }
    if (!admitted) {
      ++counters_.overload_rejected;
      result.outcome = TxnOutcome::kOverloadRejected;
      if (done) done(result);
      return;
    }
  }

  const TxnId id = (static_cast<TxnId>(node_id_) << 56) | next_local_txn_++;
  const TimePoint deadline =
      program.criticality == Criticality::kNonRealTime
          ? TimePoint::max()
          : now + program.relative_deadline;
  auto txn = std::make_unique<txn::Transaction>(
      id, ++admission_seq_, std::move(program), now, deadline);

  Active a;
  a.txn = std::move(txn);
  a.done = std::move(done);
  if (obs::enabled()) a.txn->stages.enter(obs::Stage::kAdmit, now.us);
  if (deadline != TimePoint::max()) {
    a.deadline_event =
        sim_.schedule_at(deadline, [this, id] { on_deadline(id); });
  }
  engine_->begin(*a.txn);
  if (obs::enabled()) a.txn->stages.enter(obs::Stage::kQueueWait, now.us);
  active_.emplace(id, std::move(a));
  run_step(id);
}

PriorityKey SimNode::dispatch_key(const txn::Transaction& t) {
  PriorityKey key = t.priority();
  if (key.crit == Criticality::kNonRealTime && reservation_.should_boost()) {
    // Demand-based reservation: run this non-RT step above the EDF queue.
    key = sched::NonRtReservation::boost_key(key.seq);
  }
  return key;
}

void SimNode::run_step(TxnId id) {
  auto it = active_.find(id);
  if (it == active_.end()) return;
  Active& a = it->second;
  a.resume_event = sim::kInvalidEvent;

  const engine::StepResult r = engine_->step(*a.txn);
  const Criticality crit = a.txn->criticality();
  const PriorityKey key = dispatch_key(*a.txn);
  a.job = cpu_.submit(
      key, r.cost, [this, id, action = r.action, cost = r.cost, crit] {
        nonrt_queued_.erase(id);
        reservation_.charge(crit, cost);
        // The reservation may have fallen behind its share: promote a
        // waiting non-RT step in place.
        if (!nonrt_queued_.empty() && reservation_.should_boost()) {
          const TxnId starved = *nonrt_queued_.begin();
          nonrt_queued_.erase(nonrt_queued_.begin());
          if (auto sit = active_.find(starved); sit != active_.end()) {
            cpu_.reprioritize(sit->second.job,
                              sched::NonRtReservation::boost_key(
                                  sit->second.txn->priority().seq));
          }
        }
        on_step_done(id, action, cost);
      });
  if (crit == Criticality::kNonRealTime &&
      key.crit == Criticality::kNonRealTime) {
    nonrt_queued_.insert(id);  // running at background priority
  }
}

void SimNode::on_step_done(TxnId id, engine::StepAction action, Duration cost) {
  (void)cost;
  auto it = active_.find(id);
  if (it == active_.end()) return;
  it->second.job = sim::SimCpu::kInvalidJob;
  switch (action) {
    case engine::StepAction::kContinue:
    case engine::StepAction::kRestarted:
      run_step(id);
      break;
    case engine::StepAction::kBlocked:
    case engine::StepAction::kWaitLogAck:
      // An engine hook resumes the transaction. The hook may already have
      // fired while this step's CPU charge was in flight.
      if (it->second.pending_resume) {
        it->second.pending_resume = false;
        run_step(id);
      }
      break;
    case engine::StepAction::kCommitted:
      finish(id, TxnOutcome::kCommitted);
      break;
    case engine::StepAction::kAborted:
      finish(id, it->second.txn->outcome());
      break;
  }
}

void SimNode::schedule_resume(TxnId id) {
  auto it = active_.find(id);
  if (it == active_.end()) return;
  Active& a = it->second;
  if (a.job != sim::SimCpu::kInvalidJob) {
    // The previous step is still being charged; resume once it completes.
    a.pending_resume = true;
    return;
  }
  if (a.resume_event != sim::kInvalidEvent) return;  // already scheduled
  a.resume_event =
      sim_.schedule_after(Duration::zero(), [this, id] { run_step(id); });
}

void SimNode::cancel_pending_work(Active& a) {
  if (a.job != sim::SimCpu::kInvalidJob) {
    cpu_.cancel(a.job);
    a.job = sim::SimCpu::kInvalidJob;
  }
  if (a.resume_event != sim::kInvalidEvent) {
    sim_.cancel(a.resume_event);
    a.resume_event = sim::kInvalidEvent;
  }
  a.pending_resume = false;
}

void SimNode::on_deadline(TxnId id) {
  auto it = active_.find(id);
  if (it == active_.end()) return;
  Active& a = it->second;
  a.deadline_event = sim::kInvalidEvent;
  if (a.txn->criticality() == Criticality::kFirm && engine_ &&
      engine_->can_abort(*a.txn)) {
    // "If the deadline of a transaction expires, the transaction is always
    // aborted" (paper §4, firm deadlines). Deferred writes make this a
    // discard.
    cancel_pending_work(a);
    engine_->abort(*a.txn, TxnOutcome::kMissedDeadline);
    finish(id, TxnOutcome::kMissedDeadline);
  } else {
    // Soft deadline, or already past validation: the transaction completes,
    // but it is late (its result has diminished value).
    a.late = true;
  }
}

void SimNode::finish(TxnId id, TxnOutcome outcome) {
  auto it = active_.find(id);
  if (it == active_.end()) return;
  Active a = std::move(it->second);
  active_.erase(it);
  nonrt_queued_.erase(id);
  if (a.deadline_event != sim::kInvalidEvent) sim_.cancel(a.deadline_event);

  const TimePoint now = sim_.now();
  TxnResult result;
  result.id = id;
  result.arrival = a.txn->arrival();
  result.finish = now;
  result.restarts = a.txn->restarts();
  result.late = a.late;
  result.outcome = outcome;
  sched::tally_finish(*a.txn, outcome, a.late, now, counters_,
                      commit_latency_, overload_);
  if (observer_) observer_(*a.txn, result);
  if (a.done) a.done(result);
}

}  // namespace rodain::simdb
