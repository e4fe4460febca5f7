#include "rodain/simdb/sim_node.hpp"

#include <cassert>

#include "rodain/common/diag.hpp"
#include "rodain/obs/obs.hpp"

namespace rodain::simdb {

SimNode::SimNode(sim::Simulation& sim, std::string name, NodeId id,
                 SimNodeConfig config)
    : sim_(sim),
      name_(std::move(name)),
      node_id_(id),
      config_(config),
      store_(config.store_capacity_hint),
      cpu_(sim),
      overload_(config.overload),
      reservation_(config.nonrt_fraction) {
  // Lifecycle stage clocks tick in virtual time: the simulation is the
  // Clock the engine and log writer stamp transitions with.
  config_.engine.clock = &sim_;
  if (config_.disk_enabled) {
    disk_ = std::make_unique<log::SimDiskLogStorage>(sim_, config_.disk);
  } else {
    disk_ = std::make_unique<log::MemoryLogStorage>();
  }
  if (config_.checkpoint_interval.is_positive()) {
    log::Checkpointer::Options ckpt;
    ckpt.interval = config_.checkpoint_interval;
    ckpt.boundary = [this] {
      return engine_ ? engine_->installed_low_water() : ValidationTs{0};
    };
    // The simulator has no checkpoint file: the cadence exists for its
    // side effect — the Checkpointer truncates the modelled log below
    // each boundary. The flip is the write's only commit-path cost, and
    // it is modelled as free.
    ckpt.write = [](ValidationTs) { return Status::ok(); };
    ckpt.log = disk_.get();
    ckpt_.configure(std::move(ckpt));
  }
}

SimNode::~SimNode() = default;

void SimNode::escalate_mirror_lost(const char* why) {
  if (role_ != NodeRole::kPrimaryWithMirror) return;
  RODAIN_INFO("%s: %s, switching to direct disk logging", name_.c_str(), why);
  link_down_since_.reset();
  log_writer_->on_mirror_lost();
  become(NodeRole::kPrimaryAlone);
}

void SimNode::build_log_writer(LogMode mode) {
  log_writer_ = std::make_unique<log::LogWriter>(LogMode::kOff, disk_.get(),
                                                 nullptr);
  log_writer_->set_stage_clock(&sim_);
  if (channel_) {
    repl::PrimaryReplicator::Hooks hooks;
    hooks.snapshot_boundary = [this] {
      return engine_ ? engine_->installed_low_water() : ValidationTs{0};
    };
    hooks.on_join_started = [this] {
      escalate_mirror_lost("mirror asked to rejoin");
    };
    hooks.on_mirror_joined = [this] {
      log_writer_->set_mode(LogMode::kMirror);
      become(NodeRole::kPrimaryWithMirror);
    };
    hooks.on_disconnect = [this] {
      if (role_ != NodeRole::kPrimaryWithMirror) return;
      if (!config_.disconnect_grace.is_positive()) {
        escalate_mirror_lost("mirror link lost");
      } else if (!link_down_since_) {
        // Tolerate the flap for the grace window; the heartbeat tick
        // escalates if no reconnect happens in time.
        link_down_since_ = sim_.now();
      }
    };
    hooks.on_reconnected = [this] { link_down_since_.reset(); };
    hooks.on_peer_primary = [this](ValidationTs peer_height) {
      resolve_primary_conflict(peer_height);
    };
    replicator_ = std::make_unique<repl::PrimaryReplicator>(
        *channel_, sim_, store_, *log_writer_, std::move(hooks));
    replicator_->set_index(&index_);
    log_writer_->set_shipper(replicator_.get());
    log_writer_->configure_ack_timeout(
        &sim_, config_.ack_timeout,
        [this] { escalate_mirror_lost("commit ack timeout"); });
    log_writer_->configure_batching(
        &sim_, config_.log_batch, [this](Duration d) {
          // The event may outlive this writer (role teardown): calling
          // flush on the successor's empty or fresh batch is harmless —
          // flush_batch() re-arms or no-ops as needed.
          sim_.schedule_after(d, [this] {
            if (log_writer_) log_writer_->flush_batch();
          });
        });
  }
  log_writer_->set_mode(mode);
}

void SimNode::resolve_primary_conflict(ValidationTs peer_height) {
  // Both nodes believe they are primary: a link-only outage outlasted the
  // mirror's watchdog, so it took over while this node kept serving. The
  // pair re-converges deterministically: the node with the richer commit
  // history keeps serving; on a tie the endpoint built earlier (the
  // original primary — smaller epoch) wins and the spurious taker-over
  // yields. Both sides evaluate the same rule with the same inputs, so
  // exactly one of them demotes.
  if (demotion_pending_ || !serving() || !replicator_) return;
  const ValidationTs mine = engine_ ? engine_->installed_low_water() : 0;
  if (mine > peer_height) return;
  if (mine == peer_height &&
      replicator_->endpoint_epoch() < replicator_->peer_epoch()) {
    return;
  }
  RODAIN_WARN(
      "%s: split brain: peer also serves (height %llu vs our %llu); "
      "stepping down to rejoin as mirror",
      name_.c_str(), static_cast<unsigned long long>(peer_height),
      static_cast<unsigned long long>(mine));
  demotion_pending_ = true;
  // Deferred: this fires from inside the replicator's heartbeat handler,
  // and the step-down destroys the replicator.
  sim_.schedule_after(Duration::zero(), [this] {
    demotion_pending_ = false;
    if (!serving()) return;  // raced with a real crash
    fail();
    recover_and_rejoin();
  });
}

void SimNode::build_engine(ValidationTs next_seq) {
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
                                             *log_writer_, std::move(hooks));
  engine_->set_next_validation_seq(next_seq);
}

void SimNode::become(NodeRole role) {
  if (role_ == role) return;
  RODAIN_INFO("%s: role %s -> %s", name_.c_str(),
              std::string(to_string(role_)).c_str(),
              std::string(to_string(role)).c_str());
  role_ = role;
  if (on_role_change_) on_role_change_(role);
}

void SimNode::start_as_primary(LogMode mode) {
  mirror_.reset();
  replicator_.reset();
  build_log_writer(mode);
  build_engine(1);
  become(mode == LogMode::kMirror ? NodeRole::kPrimaryWithMirror
                                  : NodeRole::kPrimaryAlone);
  schedule_heartbeat();
  schedule_checkpoint();
}

void SimNode::start_as_mirror(ValidationTs expected_next) {
  replicator_.reset();
  engine_.reset();
  log_writer_.reset();
  assert(channel_ && "mirror needs a channel to the primary");
  repl::MirrorService::Options options;
  options.store_to_disk = config_.disk_enabled;
  // Real threads under the virtual clock: the epoch barrier keeps apply
  // inside the delivering event, so determinism is preserved and the wave
  // accounting matches a width-1 run exactly.
  options.on_synced = [this] { become(NodeRole::kMirror); };
  options.on_abandoned = [this] { become(NodeRole::kRecovering); };
  if (config_.checkpoint_interval.is_positive()) {
    // Mirror-side checkpoints ride the apply path (MirrorService::poll);
    // the write is modelled, the truncation of the stored log is real.
    options.checkpoint_interval = config_.checkpoint_interval;
    options.write_checkpoint = [](ValidationTs) { return Status::ok(); };
  }
  mirror_ = std::make_unique<repl::MirrorService>(store_, disk_.get(),
                                                  *channel_, sim_, options,
                                                  &index_);
  mirror_->attach_synced(expected_next);
  become(NodeRole::kMirror);
  schedule_heartbeat();
}

void SimNode::fail() {
  RODAIN_INFO("%s: node failure (%zu in-flight txns lost)", name_.c_str(),
              active_.size());
  if (heartbeat_event_ != sim::kInvalidEvent) {
    sim_.cancel(heartbeat_event_);
    heartbeat_event_ = sim::kInvalidEvent;
  }
  if (checkpoint_event_ != sim::kInvalidEvent) {
    sim_.cancel(checkpoint_event_);
    checkpoint_event_ = sim::kInvalidEvent;
  }
  if (sweep_event_ != sim::kInvalidEvent) {
    sim_.cancel(sweep_event_);
    sweep_event_ = sim::kInvalidEvent;
  }
  // Flushes still on the device complete without us: their callbacks
  // point into the engine torn down below.
  if (auto* disk = dynamic_cast<log::SimDiskLogStorage*>(disk_.get())) {
    disk->crash();
  }
  // Parked redo dies with the node; the next restart_from_disk re-indexes
  // the surviving log (crash mid-sweep is the re-restart test's territory).
  recovery_.reset();
  takeover_pending_ = false;
  demotion_pending_ = false;
  link_down_since_.reset();
  // Every in-flight transaction dies with the node.
  auto active = std::move(active_);
  active_.clear();
  nonrt_queued_.clear();
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
  engine_.reset();
  replicator_.reset();
  mirror_.reset();
  log_writer_.reset();
  become(NodeRole::kDown);
}

void SimNode::recover_and_rejoin() {
  assert(role_ == NodeRole::kDown);
  assert(channel_ && "rejoin needs a channel");
  become(NodeRole::kRecovering);
  repl::MirrorService::Options options;
  options.store_to_disk = config_.disk_enabled;
  options.on_synced = [this] { become(NodeRole::kMirror); };
  options.on_abandoned = [this] { become(NodeRole::kRecovering); };
  if (config_.checkpoint_interval.is_positive()) {
    options.checkpoint_interval = config_.checkpoint_interval;
    options.write_checkpoint = [](ValidationTs) { return Status::ok(); };
  }
  mirror_ = std::make_unique<repl::MirrorService>(store_, disk_.get(),
                                                  *channel_, sim_, options,
                                                  &index_);
  mirror_->request_join(0);
  schedule_heartbeat();
}

void SimNode::schedule_heartbeat() {
  if (!channel_) return;  // lone node: no peer, no watchdog traffic
  if (heartbeat_event_ != sim::kInvalidEvent) sim_.cancel(heartbeat_event_);
  heartbeat_event_ = sim_.schedule_after(config_.heartbeat_interval,
                                         [this] { heartbeat_tick(); });
}

void SimNode::heartbeat_tick() {
  heartbeat_event_ = sim::kInvalidEvent;
  if (role_ == NodeRole::kDown) return;
  const repl::Watchdog watchdog(config_.watchdog_timeout);
  switch (role_) {
    case NodeRole::kPrimaryWithMirror:
      if (replicator_) {
        replicator_->send_heartbeat(
            role_, engine_ ? engine_->installed_low_water() : 0);
        replicator_->poll(sim_.now());
        if (channel_ && channel_->connected()) link_down_since_.reset();
        if (link_down_since_ &&
            sim_.now() - *link_down_since_ > config_.disconnect_grace) {
          escalate_mirror_lost("mirror link still down past grace");
        } else if (log_writer_) {
          log_writer_->check_ack_timeouts();
        }
        if (role_ == NodeRole::kPrimaryWithMirror &&
            watchdog.expired(sim_.now(), replicator_->last_heard())) {
          RODAIN_INFO("%s: watchdog expired for mirror", name_.c_str());
          escalate_mirror_lost("mirror watchdog expired");
        }
      }
      break;
    case NodeRole::kPrimaryAlone:
      if (replicator_) {
        replicator_->send_heartbeat(
            role_, engine_ ? engine_->installed_low_water() : 0);
        replicator_->poll(sim_.now());
      }
      break;
    case NodeRole::kMirror:
      if (mirror_) {
        mirror_->send_heartbeat();
        mirror_->poll(sim_.now());
        // serving_last_heard, not last_heard: a recovering peer heartbeats
        // too, and its frames must not convince us the primary is alive.
        if (!takeover_pending_ &&
            watchdog.expired(sim_.now(), mirror_->serving_last_heard())) {
          RODAIN_INFO("%s: watchdog expired for primary, taking over",
                      name_.c_str());
          begin_takeover();
        }
      }
      break;
    case NodeRole::kRecovering:
      // A joiner still heartbeats (so the serving node's watchdog does not
      // fire during a long snapshot install) and drives its join retries.
      if (mirror_) {
        mirror_->send_heartbeat();
        mirror_->poll(sim_.now());
      }
      break;
    case NodeRole::kDown:
      return;
  }
  schedule_heartbeat();
}

void SimNode::schedule_checkpoint() {
  if (!ckpt_.enabled()) return;
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
  ckpt_.tick(sim_.now());
  schedule_checkpoint();
}

SimNode::RestartStats SimNode::restart_from_disk(LogMode mode) {
  assert(role_ == NodeRole::kDown && "restart only from a crashed state");
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

  if (!config_.instant_recovery) {
    // Classical restart: the node is silent while every stored transaction
    // replays, then activates — TTFC grows linearly with the log.
    become(NodeRole::kRecovering);
    stats.time_to_serve = config_.takeover_activation +
                          config_.replay_cost_per_txn *
                              static_cast<std::int64_t>(committed);
    sim_.schedule_after(stats.time_to_serve, [this, mode, last_seq] {
      if (role_ != NodeRole::kRecovering) return;  // raced with fail()
      build_log_writer(mode);
      build_engine(last_seq + 1);
      become(NodeRole::kPrimaryAlone);
      schedule_heartbeat();
      schedule_checkpoint();
    });
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
  build_log_writer(mode);
  build_engine(last_seq + 1);
  if (recovery_ && recovery_->active()) {
    engine_->set_recovery(recovery_.get());
  }
  become(NodeRole::kRecovering);
  stats.instant = true;
  stats.deferred_txns = recovery_ ? recovery_->pending_txns() : 0;
  stats.time_to_serve = config_.takeover_activation;
  sim_.schedule_after(config_.takeover_activation, [this] {
    if (role_ != NodeRole::kRecovering) return;  // raced with fail()
    become(NodeRole::kPrimaryAlone);
    schedule_heartbeat();
    schedule_checkpoint();
    if (recovery_ && recovery_->active()) schedule_recovery_sweep();
  });
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

void SimNode::begin_takeover() {
  takeover_pending_ = true;
  sim_.schedule_after(config_.takeover_activation, [this] {
    if (role_ != NodeRole::kMirror || !mirror_) {
      // Raced with a rejoin or an abandon: the takeover is off, and the
      // latch MUST clear — a stuck takeover_pending_ would mute the
      // watchdog forever, so the next real primary death never promotes us.
      takeover_pending_ = false;
      return;
    }
    takeover_pending_ = false;
    auto takeover = mirror_->take_over();
    mirror_.reset();
    build_log_writer(LogMode::kDirectDisk);
    build_engine(takeover.next_seq);
    become(NodeRole::kPrimaryAlone);
    schedule_checkpoint();
  });
}

// ---- transaction driving -------------------------------------------------

void SimNode::submit(txn::TxnProgram program, DoneFn done) {
  ++counters_.submitted;
  const TimePoint now = sim_.now();
  TxnResult result;
  result.arrival = now;
  result.finish = now;

  if (!serving()) {
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
  overload_.on_finish();

  const TimePoint now = sim_.now();
  TxnResult result;
  result.id = id;
  result.arrival = a.txn->arrival();
  result.finish = now;
  result.restarts = a.txn->restarts();
  result.late = a.late;
  counters_.restarts += static_cast<std::uint64_t>(a.txn->restarts());

  if (obs::enabled()) {
    obs::observe_stages(a.txn->stages, now.us);
    const bool missed = (outcome == TxnOutcome::kCommitted && a.late) ||
                        outcome == TxnOutcome::kMissedDeadline;
    if (missed && a.txn->deadline() != TimePoint::max()) {
      obs::charge_deadline_miss(a.txn->stages,
                                (a.txn->deadline() - a.txn->arrival()).us,
                                now.us);
    }
  }

  if (outcome == TxnOutcome::kCommitted && a.late) {
    // Committed after its deadline: the update is durable, but the client
    // missed its deadline — counted with the misses (paper counts the
    // transaction as unsuccessful).
    outcome = TxnOutcome::kCommitted;
    ++counters_.missed_deadline;
    overload_.on_deadline_miss(now);
  } else {
    switch (outcome) {
      case TxnOutcome::kCommitted:
        ++counters_.committed;
        commit_latency_.add(now - a.txn->arrival());
        break;
      case TxnOutcome::kMissedDeadline:
        ++counters_.missed_deadline;
        overload_.on_deadline_miss(now);
        break;
      case TxnOutcome::kOverloadRejected:
        ++counters_.overload_rejected;
        break;
      case TxnOutcome::kConflictAborted:
        ++counters_.conflict_aborted;
        break;
      case TxnOutcome::kSystemAborted:
        ++counters_.system_aborted;
        break;
    }
  }
  result.outcome = outcome;
  if (observer_) observer_(*a.txn, result);
  if (a.done) a.done(result);
}

}  // namespace rodain::simdb
