#include "rodain/rt/node.hpp"

#include <algorithm>
#include <cassert>

#include "rodain/common/diag.hpp"
#include "rodain/log/reorder.hpp"
#include "rodain/log/segment.hpp"
#include "rodain/obs/obs.hpp"

namespace rodain::rt {

namespace {
struct NodeMetrics {
  obs::Counter& submitted = obs::metrics().counter("node.txn.submitted");
  obs::Counter& committed = obs::metrics().counter("node.txn.committed");
  obs::Counter& missed_deadline =
      obs::metrics().counter("node.txn.missed_deadline");
  obs::Counter& conflict_aborted =
      obs::metrics().counter("node.txn.conflict_aborted");
  obs::Counter& system_aborted =
      obs::metrics().counter("node.txn.system_aborted");
  obs::Counter& role_transitions =
      obs::metrics().counter("node.role_transitions");
  obs::Timer& commit_latency = obs::metrics().timer("node.commit_latency_us");
  obs::Timer& commit_mu_wait = obs::metrics().timer("node.commit_mu_wait");
  obs::Gauge& role = obs::metrics().gauge("node.role");
  obs::Gauge& active_txns = obs::metrics().gauge("node.active_txns");
  obs::Gauge& miss_ratio = obs::metrics().gauge("node.miss_ratio");
  /// Time a checkpoint holds commit_mu_ (DESIGN.md §7, §15): the flip on
  /// a primary, the whole write on a mirror.
  obs::Timer& checkpoint_stall =
      obs::metrics().timer("node.checkpoint_stall_us");
};
NodeMetrics& nm() {
  static NodeMetrics m;
  return m;
}

// Seqlock retries of the lock-free read_committed path.
obs::Counter& read_retry_counter() {
  static obs::Counter& c = obs::metrics().counter("engine.read_retries");
  return c;
}

std::unique_ptr<log::LogStorage> open_log(const NodeConfig& config,
                                          const std::string& name,
                                          bool& tail_trimmed) {
  if (config.log_path.empty()) {
    return std::make_unique<log::MemoryLogStorage>();
  }
  if (config.log_segment_bytes > 0) {
    log::SegmentedLogStorage::Options seg;
    seg.segment_bytes = config.log_segment_bytes;
    seg.fsync_on_flush = config.fsync_log;
    auto segmented = log::SegmentedLogStorage::open(config.log_path, seg);
    if (segmented.is_ok()) {
      tail_trimmed = segmented.value()->tail_trimmed_at_open();
      return std::move(segmented).value();
    }
    RODAIN_ERROR("%s: cannot open segmented log %s (%s); using memory log",
                 name.c_str(), config.log_path.c_str(),
                 segmented.status().to_string().c_str());
    return std::make_unique<log::MemoryLogStorage>();
  }
  auto file = log::FileLogStorage::open(config.log_path, config.fsync_log);
  if (file.is_ok()) return std::move(file).value();
  RODAIN_ERROR("%s: cannot open log %s (%s); using memory log", name.c_str(),
               config.log_path.c_str(), file.status().to_string().c_str());
  return std::make_unique<log::MemoryLogStorage>();
}

repl::ReplicaController::Config replica_config(const NodeConfig& config) {
  repl::ReplicaController::Config c;
  c.heartbeat_interval = config.heartbeat_interval;
  c.watchdog_timeout = config.watchdog_timeout;
  c.ack_timeout = config.ack_timeout;
  c.disconnect_grace = config.disconnect_grace;
  c.log_batch = config.log_batch;
  if (!config.checkpoint_path.empty()) {
    c.checkpoint_interval = config.checkpoint_interval;
  }
  return c;
}
}  // namespace

// ----------------------------------------------------- guarded channel ---

void Node::GuardedChannel::set_message_handler(MessageHandler handler) {
  // Do not capture `this`: the wrapper outlives the GuardedChannel inside
  // the socket's handler slot.
  Node* node = &node_;
  inner_.set_message_handler(
      [node, h = std::move(handler)](std::vector<std::byte> frame) {
        std::unique_lock lock(node->commit_mu_);
        if (h) h(std::move(frame));
        // A commit ack finishes its parked transactions in place
        // (on_log_durable_locked); their callbacks run after the unlock.
        node->run_done(lock);
      });
}

void Node::GuardedChannel::set_disconnect_handler(DisconnectHandler handler) {
  Node* node = &node_;
  inner_.set_disconnect_handler([node, h = std::move(handler)] {
    std::unique_lock lock(node->commit_mu_);
    if (h) h();
    // Losing the mirror re-routes unacked commits to disk, which finishes
    // their parked transactions.
    node->run_done(lock);
  });
}

// ----------------------------------------------------------------- node ---

Node::Node(NodeConfig config, std::string name)
    : config_(config),
      name_(std::move(name)),
      store_(config.store_capacity_hint),
      disk_(open_log(config_, name_, log_tail_trimmed_)),
      replica_(replica_config(config_), clock_, store_, index_, disk_.get(),
               *this, name_),
      overload_(config.overload),
      chain_(config.checkpoint_path, config.checkpoint_delta_limit) {
  // Lifecycle stage clocks read this node's steady clock; the engine stamps
  // read/validate/write transitions, the log writer ship/ack.
  config_.engine.clock = &clock_;
  if (config_.http_port >= 0) start_http();
}

void Node::start_http() {
  auto server = net::HttpServer::listen(
      static_cast<std::uint16_t>(config_.http_port),
      [this](const std::string& path) { return route_http(path); });
  if (!server.is_ok()) {
    RODAIN_ERROR("%s: observability endpoint failed: %s", name_.c_str(),
                 server.status().to_string().c_str());
    return;
  }
  http_ = std::move(server).value();
  RODAIN_INFO("%s: observability endpoint on 127.0.0.1:%u", name_.c_str(),
              static_cast<unsigned>(http_->port()));
}

net::HttpServer::Response Node::route_http(const std::string& path) {
  // Runs on the HTTP server thread. Touches only the process-wide obs
  // registries and this node's atomics — no node mutex, so a wedged commit
  // path can still be inspected live.
  net::HttpServer::Response r;
  if (path == "/metrics") {
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = obs::metrics().render_text();
  } else if (path == "/vars") {
    r.content_type = "application/json";
    r.body = obs::metrics().render_json();
  } else if (path == "/trace") {
    r.content_type = "application/json";
    r.body = obs::tracer().dump_json();
  } else if (path == "/healthz") {
    const NodeRole current = role();
    const bool up = serving();
    r.status = up ? 200 : 503;
    r.content_type = "application/json";
    r.body = "{\"node\":\"" + name_ + "\",\"role\":\"" +
             std::string(to_string(current)) +
             "\",\"serving\":" + (up ? "true" : "false") +
             ",\"recovery_mode\":" +
             std::to_string(recovery_mode_.load(std::memory_order_acquire)) +
             "}\n";
  } else {
    r.status = 404;
    r.body = "unknown path; routes: /metrics /vars /trace /healthz\n";
  }
  return r;
}

Node::~Node() { stop(); }

NodeRole Node::role() const { return role_.load(std::memory_order_acquire); }

bool Node::serving() const {
  const NodeRole r = role_.load(std::memory_order_acquire);
  return r == NodeRole::kPrimaryWithMirror || r == NodeRole::kPrimaryAlone;
}

void Node::on_role(NodeRole role) {
  role_.store(role, std::memory_order_release);
  nm().role_transitions.inc();
  nm().role.set(static_cast<double>(static_cast<int>(role)));
  if (obs::tracing_enabled()) {
    obs::tracer().record_instant(obs::Phase::kRoleChange,
                                 static_cast<std::uint64_t>(role));
  }
  // Availability timeline: serving roles open a serving window; leaving one
  // opens an outage. A node that was never serving (fresh mirror, rejoin)
  // does not log an outage for its mirror tenure.
  const std::int64_t t = clock_.now().us;
  const bool now_serving = serving();
  if (now_serving || availability_.serving()) {
    availability_.set_serving(now_serving, t);
  }
  availability_.publish_metrics("node.avail", t);
  if (now_serving) start_serving_threads_locked();
}

void Node::build_engine(log::LogWriter& writer, ValidationTs next_seq) {
  // Every engine hook fires with commit_mu_ held (worker steps, channel
  // handlers, the timer's flush path), so push_ready's park-resume
  // handshake is race-free by construction. A restarted victim that a
  // worker owns needs no resume: the owner steps it from its read phase.
  engine::Engine::Hooks hooks;
  hooks.on_victim_restart = [this](TxnId id) {
    push_ready(id, /*resume_owner=*/false);
  };
  hooks.on_lock_granted = [this](TxnId id) { push_ready(id); };
  hooks.on_log_durable = [this](TxnId id) { on_log_durable_locked(id); };
  engine_ = std::make_unique<engine::Engine>(config_.engine, store_, &index_,
                                             writer, std::move(hooks));
  engine_->set_next_validation_seq(next_seq);
  if (recovery_ && recovery_->active()) {
    engine_->set_recovery(recovery_.get());
  }
}

void Node::drop_engine() {
  // Demotion and stop(): the role's transactions die with it. A worker
  // waiting for commit_mu_ looks its transaction up again (drive).
  std::lock_guard q(queue_mu_);
  for (auto& [id, a] : active_) {
    if (a.done) {
      CommitInfo info;
      info.outcome = TxnOutcome::kSystemAborted;
      done_.emplace_back(std::move(a.done), info);
    }
    overload_.on_finish();
    ++counters_.system_aborted;
  }
  active_.clear();
  ready_.clear();
  deadlines_.clear();
  engine_.reset();
  if (recovery_ && recovery_->active()) {
    // Deferred redo belongs to the history this role served: a winner's
    // snapshot replaces it, and a restart re-indexes the surviving log.
    recovery_->abandon();
    finish_recovery_locked("abandoned with the serving role");
  }
}

void Node::schedule_flush(Duration delay) {
  // Runs under commit_mu_ (every submit path holds it); the timer thread
  // then drives flush_batch(), also under it.
  const TimePoint at = clock_.now() + delay;
  if (!log_flush_at_ || at < *log_flush_at_) log_flush_at_ = at;
  wake_timer_locked(at);
}

void Node::start_primary(LogMode mode, net::Channel* peer) {
  start_role(peer, [&] { replica_.start_primary(mode, recovered_next_seq_); });
}

void Node::start_serving_threads_locked() {
  if (workers_.empty()) {
    for (std::size_t i = 0; i < config_.worker_threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
    timer_ = std::thread([this] { timer_loop(); });
  }
  // A survivor's cadence extends the chain its mirror cadence wrote.
  start_checkpointer_locked();
}

void Node::start_checkpointer_locked() {
  if (checkpointer_.joinable() || config_.checkpoint_path.empty() ||
      !config_.checkpoint_interval.is_positive()) {
    return;
  }
  checkpointer_ = std::thread([this] {
    std::unique_lock ckpt_lock(commit_mu_);
    while (!stopping_) {
      stop_cv_.wait_for(
          ckpt_lock, std::chrono::microseconds(config_.checkpoint_interval.us));
      if (stopping_ || !serving()) {
        continue;
      }
      if (recovery_ && recovery_->active()) {
        // A checkpoint at the installed low-water would claim to cover
        // deferred commits whose after-images are still parked in the
        // redo index; wait for the sweep to drain it.
        continue;
      }
      // The Checkpointer owns the cadence and truncates the log after
      // each successful write.
      replica_.checkpointer().tick(clock_.now());
    }
  });
}

void Node::sweeper_loop() {
  std::unique_lock lock(commit_mu_);
  while (!stopping_) {
    if (!recovery_) break;
    if (recovery_->active()) {
      recovery_->sweep(config_.recovery_sweep_txns, store_, &index_);
    }
    if (!recovery_->active()) {
      // Drained — by this sweep, the on-demand path, or an explicit
      // checkpoint drain (then finish already ran and this is a no-op).
      finish_recovery_locked("background sweep drained");
      break;
    }
    stop_cv_.wait_for(
        lock, std::chrono::microseconds(config_.recovery_sweep_interval.us));
  }
}

void Node::finish_recovery_locked(const char* how) {
  // Acquire pairs with the release store in recover_from_local_state: the
  // sweeper or a checkpoint drain entering here must observe the fully
  // initialized redo index the flag published, not just the flag itself
  // (commit_mu_ orders the common paths, but the pairing keeps the flag
  // self-contained for every reader — /healthz reads it with no mutex).
  if (!recovery_ || recovery_mode_.load(std::memory_order_acquire) == 0) {
    return;  // never entered recovery mode, or already finished
  }
  if (engine_) engine_->set_recovery(nullptr);
  recovery_->retire();
  recovery_mode_.store(0, std::memory_order_release);
  obs::metrics().gauge("recovery.mode").set(0.0);
  RODAIN_INFO("%s: instant recovery complete: %s (%llu on-demand, "
              "%llu background replays)",
              name_.c_str(), how,
              static_cast<unsigned long long>(recovery_->ondemand_applied()),
              static_cast<unsigned long long>(recovery_->background_applied()));
  if (obs::tracing_enabled()) {
    obs::tracer().record_instant(obs::Phase::kRecovery, recovery_->last_seq());
  }
}

void Node::start_sampler_locked() {
  if (sampler_.joinable() || !config_.metrics_snapshot_interval.is_positive()) {
    return;
  }
  sampler_ = std::thread([this] {
    std::unique_lock lock(commit_mu_);
    while (!stopping_) {
      stop_cv_.wait_for(
          lock,
          std::chrono::microseconds(config_.metrics_snapshot_interval.us));
      if (stopping_) break;
      sample_metrics_locked();
    }
  });
}

void Node::sample_metrics_locked() {
  if (!obs::enabled()) return;
  // Refresh the point-in-time gauges right before the registry snapshot so
  // the sampled row is internally consistent. active_ structure is written
  // under both mutexes, so reading its size under commit_mu_ is safe.
  nm().active_txns.set(static_cast<double>(active_.size()));
  nm().miss_ratio.set(counters_.miss_ratio());
  obs::metrics().sample_into(series_, obs::now_us());
}

Status Node::write_checkpoint_chain_locked(ValidationTs boundary) {
  Status s = Status::ok();
  if (!engine_) {
    obs::ScopedTimer stall(nm().checkpoint_stall);
    s = chain_.write(store_, index_, boundary);
  } else {
    storage::CheckpointChain::Flip flip;
    {
      obs::ScopedTimer stall(nm().checkpoint_stall);
      flip = chain_.flip(store_, index_, boundary);
    }
    // Committers run during the encode; any record they overwrite before
    // the walker reaches it is retained as a pre-image by the store.
    encoding_ = true;
    commit_mu_.unlock();
    s = chain_.encode(flip, store_, index_);
    commit_mu_.lock();
    encoding_ = false;
    heartbeat_cv_.notify_all();  // a demotion may be waiting for the encode
    s = chain_.finish(flip, store_, index_, std::move(s));
  }
  if (s && obs::tracing_enabled()) {
    obs::tracer().record_instant(obs::Phase::kCheckpoint, boundary);
  }
  return s;
}

Status Node::write_checkpoint() {
  std::lock_guard lock(commit_mu_);
  if (config_.checkpoint_path.empty()) {
    return Status::error(ErrorCode::kFailedPrecondition, "no checkpoint path");
  }
  if (recovery_ && recovery_->active()) {
    // The boundary below claims every commit up to the installed low-water
    // is in the store; deferred redo chains would make that a lie. Drain
    // them first (an explicit checkpoint request ends instant recovery).
    recovery_->drain(store_, &index_);
    finish_recovery_locked("drained for checkpoint");
  }
  // The Checkpointer is the single boundary authority: routing the explicit
  // request through run() serializes it with the cadenced timer (single
  // flight), so the covered boundary stays monotone even when the fuzzy
  // path drops commit_mu_ mid-write.
  return replica_.checkpointer().run(clock_.now(), /*force=*/true);
}

std::optional<repl::JoinArtifacts> Node::join_artifacts() {
  if (config_.log_segment_bytes == 0 || config_.checkpoint_path.empty()) {
    return std::nullopt;
  }
  auto ckpt = storage::read_artifact_chain_bytes(config_.checkpoint_path);
  if (!ckpt.is_ok()) return std::nullopt;
  const ValidationTs boundary = ckpt.value().boundary;
  const ValidationTs low_water = engine_ ? engine_->installed_low_water() : 0;
  if (boundary > low_water) {
    // Never serve a snapshot claiming more than the engine installed.
    return std::nullopt;
  }
  repl::JoinArtifacts artifacts;
  artifacts.boundary = boundary;
  if (low_water > boundary) {
    // Catch-up candidates: the surviving segments plus the writer's
    // in-memory tail; a collector reorderer dedups the overlap and orders
    // them. Dense coverage of (boundary, low_water] is proven by the
    // released floor reaching low_water — after a kMirror epoch the local
    // segments can have holes (records shipped to the mirror never hit
    // this disk), and then the live-encode path must take over.
    auto all = log::SegmentedLogStorage::read_all(config_.log_path);
    if (!all.is_ok()) return std::nullopt;
    ValidationTs released = boundary;
    log::Reorderer collector(
        [&](ValidationTs seq, TxnId, std::vector<log::Record> records) {
          released = seq;
          for (log::Record& r : records) {
            artifacts.catch_up.push_back(std::move(r));
          }
        },
        boundary + 1);
    collector.begin_batch();
    for (log::Record& r : all.value()) (void)collector.add(std::move(r));
    if (log::LogWriter* writer = replica_.writer()) {
      auto tail = writer->tail_since(boundary);
      collector.begin_batch();
      for (log::Record& r : tail) (void)collector.add(std::move(r));
    }
    if (released != low_water) {
      RODAIN_INFO(
          "%s: disk join artifacts cover to seq %llu < low water %llu; "
          "falling back to live encode",
          name_.c_str(), static_cast<unsigned long long>(released),
          static_cast<unsigned long long>(low_water));
      return std::nullopt;
    }
  }
  artifacts.checkpoint_bytes = std::move(ckpt.value().bytes);
  return artifacts;
}

Result<log::RecoveryStats> Node::recover_from_local_state() {
  std::lock_guard lock(commit_mu_);
  if (role_.load(std::memory_order_relaxed) != NodeRole::kDown) {
    return Status::error(ErrorCode::kFailedPrecondition,
                         "recover before starting a role");
  }
  // A recovering node is in an outage until a serving role closes it: the
  // window from here to the first post-restart commit is the restart
  // downtime the flight recorder reports.
  availability_.set_serving(false, clock_.now().us);
  const bool instant =
      config_.instant_recovery && config_.log_segment_bytes > 0;
  Result<log::RecoveryStats> stats = [&]() -> Result<log::RecoveryStats> {
    if (instant) {
      // Instant recovery (DESIGN.md §12): load the checkpoint, index the
      // surviving segments, and let start_primary serve immediately — first
      // touch replays on demand, the sweeper thread drains the rest.
      recovery_ = std::make_unique<log::RedoIndex>();
      return log::recover_instant_segments(config_.checkpoint_path,
                                           config_.log_path, store_, *recovery_,
                                           &index_);
    }
    return config_.log_segment_bytes > 0
               ? log::recover_checkpoint_and_segments(config_.checkpoint_path,
                                                      config_.log_path, store_,
                                                      &index_)
               : log::recover_checkpoint_and_log(config_.checkpoint_path,
                                                 config_.log_path, store_,
                                                 &index_);
  }();
  if (instant) {
    if (!stats.is_ok() || !recovery_->active()) {
      // Error, or nothing to defer (empty log / checkpoint covers it all):
      // no recovery phase to run.
      recovery_.reset();
    } else {
      recovery_mode_.store(1, std::memory_order_release);
      obs::metrics().gauge("recovery.mode").set(1.0);
    }
  }
  if (stats.is_ok()) {
    // Opening the segmented log (in the constructor) already trimmed any
    // torn tail the crash left, so the replay above saw a clean directory;
    // fold the trim back into the stats the caller sees.
    stats.value().torn_tail |= log_tail_trimmed_;
    recovered_next_seq_ = stats.value().last_seq + 1;
    RODAIN_INFO("%s: local recovery done (%llu txns %s, next seq %llu)",
                name_.c_str(),
                static_cast<unsigned long long>(
                    instant ? stats.value().deferred_txns
                            : stats.value().committed_applied),
                instant ? "deferred" : "replayed",
                static_cast<unsigned long long>(recovered_next_seq_));
    if (obs::tracing_enabled()) {
      obs::tracer().record_instant(obs::Phase::kRecovery,
                                   stats.value().last_seq);
    }
  }
  return stats;
}

void Node::start_mirror(net::Channel& peer, ValidationTs expected_next) {
  start_role(&peer, [&] { replica_.start_mirror(expected_next); });
}

void Node::start_rejoin(net::Channel& peer) {
  start_role(&peer, [&] { replica_.start_joiner(); });
}

void Node::start_role(net::Channel* peer, const std::function<void()>& start) {
  std::unique_lock lock(commit_mu_);
  assert(role_.load(std::memory_order_relaxed) == NodeRole::kDown);
  {
    std::lock_guard q(queue_mu_);
    stopping_ = false;
  }
  guarded_channel_ =
      peer ? std::make_unique<GuardedChannel>(*this, *peer) : nullptr;
  replica_.set_channel(guarded_channel_.get());
  start();
  if (recovery_ && recovery_->active()) {
    if (serving()) {
      sweeper_ = std::thread([this] { sweeper_loop(); });
    } else {
      // The peer's stream or snapshot supersedes the local log's deferred
      // chains; applying them afterwards would clobber newer state.
      recovery_->abandon();
      finish_recovery_locked("superseded by the peer");
    }
  }
  if (peer) heartbeater_ = std::thread([this] { heartbeat_loop(); });
  start_sampler_locked();
}

void Node::stop() {
  std::vector<std::pair<DoneFn, CommitInfo>> callbacks;
  {
    std::unique_lock lock(commit_mu_);
    if (stopping_ &&
        role_.load(std::memory_order_relaxed) == NodeRole::kDown) {
      return;
    }
    {
      std::lock_guard q(queue_mu_);
      stopping_ = true;
    }
    drop_engine();  // in-flight transactions die with the node
    replica_.stop();
    guarded_channel_.reset();
    // Freeze the outage the role change just opened: downtime accrual
    // stops at shutdown, but the outage stays reported as open.
    availability_.close(clock_.now().us);
    callbacks.swap(done_);
  }
  ready_cv_.notify_all();
  timer_cv_.notify_all();
  heartbeat_cv_.notify_all();
  stop_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  if (timer_.joinable()) timer_.join();
  if (heartbeater_.joinable()) heartbeater_.join();
  if (checkpointer_.joinable()) checkpointer_.join();
  if (sampler_.joinable()) sampler_.join();
  if (sweeper_.joinable()) sweeper_.join();
  http_.reset();
  for (auto& [cb, info] : callbacks) cb(info);
}

// ------------------------------------------------------------ client ----

void Node::submit(txn::TxnProgram program, DoneFn done) {
  std::vector<std::pair<DoneFn, CommitInfo>> callbacks;
  {
    std::unique_lock lock(commit_mu_);
    ++counters_.submitted;
    nm().submitted.inc();
    const TimePoint now = clock_.now();
    CommitInfo info;
    if (!serving()) {
      ++counters_.system_aborted;
      info.outcome = TxnOutcome::kSystemAborted;
      if (done) callbacks.emplace_back(std::move(done), info);
    } else if (!overload_.try_admit(now)) {
      ++counters_.overload_rejected;
      info.outcome = TxnOutcome::kOverloadRejected;
      if (done) callbacks.emplace_back(std::move(done), info);
    } else {
      const TxnId id = next_local_txn_++;
      const TimePoint deadline =
          program.criticality == Criticality::kNonRealTime
              ? TimePoint::max()
              : now + program.relative_deadline;
      Active a;
      a.txn = std::make_unique<txn::Transaction>(
          id, ++admission_seq_, std::move(program), now, deadline);
      a.done = std::move(done);
      if (obs::enabled()) a.txn->stages.enter(obs::Stage::kAdmit, now.us);
      engine_->begin(*a.txn);
      if (deadline != TimePoint::max()) {
        deadlines_.emplace(deadline, id);
        wake_timer_locked(deadline);
      }
      if (obs::enabled()) {
        // Admission work done; the clock ticks in kQueueWait until a worker
        // picks the transaction up (step_read_phase stamps kReadPhase).
        a.txn->stages.enter(obs::Stage::kQueueWait, clock_.now().us);
      }
      {
        std::lock_guard q(queue_mu_);
        active_.emplace(id, std::move(a));
      }
      push_ready(id);
    }
  }
  for (auto& [cb, info] : callbacks) cb(info);
}

CommitInfo Node::execute(txn::TxnProgram program) {
  std::promise<CommitInfo> promise;
  auto future = promise.get_future();
  submit(std::move(program),
         [&promise](const CommitInfo& info) { promise.set_value(info); });
  return future.get();
}

Result<storage::Value> Node::get(ObjectId oid) {
  txn::TxnProgram program;
  program.read(oid);
  program.relative_deadline = Duration::seconds(5);
  const CommitInfo info = execute(std::move(program));
  if (info.outcome != TxnOutcome::kCommitted) {
    return Status::error(ErrorCode::kAborted, "read transaction aborted");
  }
  std::lock_guard lock(commit_mu_);
  const storage::ObjectRecord* rec = store_.find(oid);
  if (!rec) return Status::error(ErrorCode::kNotFound, "no such object");
  return rec->value;
}

Result<storage::Value> Node::read_committed(ObjectId oid) {
  if (!serving()) {
    return Status::error(ErrorCode::kUnavailable, "not serving");
  }
  // serving() ordered the role_ acquire before this: recovery_ was set (if
  // at all) before the node started serving and is never re-assigned until
  // the destructor, so the unlocked pointer read is safe. While the index
  // is active the store may lack deferred commits for this object; the
  // transactional fallback path replays them on first touch.
  if (recovery_ && recovery_->active()) {
    return Status::error(ErrorCode::kUnavailable, "instant recovery draining");
  }
  storage::ObjectRecord snap;
  std::uint32_t retries = 0;
  const storage::OptimisticRead r = store_.read_optimistic(oid, snap, retries);
  if (retries != 0) read_retry_counter().inc(retries);
  if (r == storage::OptimisticRead::kContended) {
    return Status::error(ErrorCode::kUnavailable, "seqlock contention");
  }
  // Re-check the role AFTER the snapshot: a takeover/demotion that raced the
  // read invalidates it (the value may predate the new primary's installs).
  if (!serving()) {
    return Status::error(ErrorCode::kUnavailable, "not serving");
  }
  if (r == storage::OptimisticRead::kMiss || snap.deleted) {
    return Status::error(ErrorCode::kNotFound, "no such object");
  }
  return std::move(snap.value);
}

// ------------------------------------------------------------ workers ---

void Node::push_ready(TxnId id, bool resume_owner) {
  std::lock_guard q(queue_mu_);
  auto it = active_.find(id);
  if (it == active_.end()) return;
  Active& a = it->second;
  if (a.owned_by_worker) {
    // The owner worker is driving it right now; it re-checks this flag at
    // its next park point (under commit_mu_ + queue_mu_, both held by every
    // caller of this path, so the handshake cannot be missed).
    if (resume_owner) a.resume_pending = true;
    return;
  }
  ready_.emplace(a.txn->priority(), id);
  ready_cv_.notify_one();
}

void Node::on_log_durable_locked(TxnId id) {
  txn::Transaction* parked = nullptr;
  {
    std::lock_guard q(queue_mu_);
    auto it = active_.find(id);
    if (it == active_.end()) return;
    if (it->second.owned_by_worker) {
      // Its worker finalizes it at the next park point (see push_ready).
      it->second.resume_pending = true;
      return;
    }
    parked = it->second.txn.get();
  }
  // Parked with no owner and not in ready_: no worker can pick it up, and
  // the timer never aborts a validated transaction, so this thread owns it
  // until finish_locked erases it (both under commit_mu_).
  assert(parked->phase() == txn::Phase::kWaitLogAck);
  const engine::StepResult r = engine_->step(*parked);
  assert(r.action == engine::StepAction::kCommitted);
  burn_modelled_cost(r.cost);
  finish_locked(id, TxnOutcome::kCommitted);
}

void Node::burn_modelled_cost(Duration cost) const {
  if (!config_.engine.costs.per_read.is_positive()) return;  // fidelity off
  const TimePoint until = clock_.now() + cost;
  while (clock_.now() < until) {
  }
}

void Node::run_done(std::unique_lock<std::mutex>& lock) {
  std::vector<std::pair<DoneFn, CommitInfo>> done;
  done.swap(done_);
  lock.unlock();
  for (auto& [cb, info] : done) cb(info);
}

void Node::lock_commit(std::unique_lock<std::mutex>& lock) {
  assert(lock.mutex() == &commit_mu_ && !lock.owns_lock());
  if (lock.try_lock()) return;
  obs::ScopedTimer wait(nm().commit_mu_wait);
  lock.lock();
}

void Node::worker_loop() {
  std::unique_lock qlock(queue_mu_);
  while (true) {
    ready_cv_.wait(qlock, [this] {
      return stopping_ || !ready_.empty();
    });
    if (stopping_) return;
    const TxnId id = ready_.begin()->second;
    ready_.erase(ready_.begin());
    drive(id, qlock);
  }
}

void Node::drive(TxnId id, std::unique_lock<std::mutex>& qlock) {
  auto it = active_.find(id);
  if (it == active_.end()) return;
  it->second.owned_by_worker = true;
  qlock.unlock();

  // Every step runs under commit_mu_, held until the transaction parks or
  // finishes (DESIGN.md §11). stop() sets stopping_ under it too. While
  // this worker waited for it, a demotion or stop() may have swept
  // active_, so the transaction is looked up again (ids are never reused).
  std::unique_lock commit(commit_mu_, std::defer_lock);
  lock_commit(commit);
  it = active_.find(id);
  txn::Transaction* t = it == active_.end() ? nullptr : it->second.txn.get();
  bool done = stopping_ || t == nullptr;
  while (!done) {
    const engine::StepResult r = engine_->step(*t);
    burn_modelled_cost(r.cost);
    switch (r.action) {
      case engine::StepAction::kContinue:
      case engine::StepAction::kRestarted:
        break;
      case engine::StepAction::kBlocked:
      case engine::StepAction::kWaitLogAck: {
        // Every resume path (lock grant, log ack) runs under commit_mu_,
        // which we hold: checking resume_pending and parking are one
        // atomic decision.
        std::lock_guard q(queue_mu_);
        auto it2 = active_.find(id);
        if (it2 == active_.end()) {
          done = true;
        } else if (it2->second.resume_pending) {
          it2->second.resume_pending = false;  // the grant/ack arrived
        } else {
          it2->second.owned_by_worker = false;
          done = true;
        }
        break;
      }
      case engine::StepAction::kCommitted:
        finish_locked(id, TxnOutcome::kCommitted);
        done = true;
        break;
      case engine::StepAction::kAborted:
        finish_locked(id, t->outcome());
        done = true;
        break;
    }
  }
  run_done(commit);
  qlock.lock();
}

void Node::finish_locked(TxnId id, TxnOutcome outcome) {
  Active a;
  {
    std::lock_guard q(queue_mu_);
    auto it = active_.find(id);
    if (it == active_.end()) return;
    a = std::move(it->second);
    active_.erase(it);
  }
  // Drop the deadline now rather than when it falls due, so the timer
  // thread wakes only for deadlines it may have to enforce.
  auto [lo, hi] = deadlines_.equal_range(a.txn->deadline());
  for (auto it = lo; it != hi; ++it) {
    if (it->second == id) {
      deadlines_.erase(it);
      break;
    }
  }

  const TimePoint now = clock_.now();
  CommitInfo info;
  info.latency = now - a.txn->arrival();
  info.restarts = a.txn->restarts();
  info.late = a.late;
  info.captured_reads = std::move(a.txn->captured_reads);
  if (outcome == TxnOutcome::kCommitted) availability_.on_commit(now.us);
  switch (sched::tally_finish(*a.txn, outcome, a.late, now, counters_,
                              commit_latency_, overload_)) {
    case TxnOutcome::kCommitted:
      nm().committed.inc();
      nm().commit_latency.observe(info.latency);
      break;
    case TxnOutcome::kMissedDeadline:
      nm().missed_deadline.inc();
      break;
    case TxnOutcome::kConflictAborted:
      nm().conflict_aborted.inc();
      break;
    case TxnOutcome::kSystemAborted:
      nm().system_aborted.inc();
      break;
    case TxnOutcome::kOverloadRejected:
      break;
  }
  info.outcome = outcome;
  if (a.done) done_.emplace_back(std::move(a.done), info);
}

// -------------------------------------------------------------- timers ---

void Node::wake_timer_locked(TimePoint at) {
  if (at >= timer_wake_at_) return;
  timer_wake_at_ = at;
  timer_cv_.notify_one();
}

void Node::wake_heartbeat_locked(TimePoint at) {
  if (at >= heartbeat_wake_at_) return;
  heartbeat_wake_at_ = at;
  heartbeat_cv_.notify_one();
}

void Node::timer_loop() {
  std::unique_lock lock(commit_mu_);
  while (!stopping_) {
    // Sleep toward whichever comes first: the earliest deadline of an
    // unfinished transaction or a pending group-commit flush. Only an
    // earlier one wakes the thread before that (wake_timer_locked).
    TimePoint next = TimePoint::max();
    if (!deadlines_.empty()) next = deadlines_.begin()->first;
    if (log_flush_at_) next = std::min(next, *log_flush_at_);
    const TimePoint now = clock_.now();
    if (now < next) {
      timer_wake_at_ = next;
      const auto woken = [&] { return stopping_ || timer_wake_at_ < next; };
      if (next == TimePoint::max()) {
        timer_cv_.wait(lock, woken);
      } else {
        timer_cv_.wait_for(lock, std::chrono::microseconds((next - now).us),
                           woken);
      }
      continue;
    }
    if (log_flush_at_ && clock_.now() >= *log_flush_at_) {
      log_flush_at_.reset();
      // flush_batch may re-arm via the schedule hook (sets log_flush_at_).
      if (log::LogWriter* writer = replica_.writer()) writer->flush_batch();
    }
    while (!deadlines_.empty() && deadlines_.begin()->first <= clock_.now()) {
      const TxnId id = deadlines_.begin()->second;
      deadlines_.erase(deadlines_.begin());
      txn::Transaction* expired = nullptr;
      {
        std::lock_guard q(queue_mu_);
        auto it = active_.find(id);
        if (it == active_.end()) continue;
        Active& a = it->second;
        // An owned transaction belongs to its worker, which may be waiting
        // for commit_mu_ to step it: it completes late instead.
        if (!a.owned_by_worker &&
            a.txn->criticality() == Criticality::kFirm &&
            engine_->can_abort(*a.txn)) {
          // Not owned: no worker can pick it up once it leaves ready_
          // (push_ready callers hold commit_mu_, which we hold).
          ready_.erase({a.txn->priority(), id});
          expired = a.txn.get();
        } else {
          // Soft deadline, running, or already validated: it completes late.
          a.late = true;
        }
      }
      if (expired) {
        engine_->abort(*expired, TxnOutcome::kMissedDeadline);
        finish_locked(id, TxnOutcome::kMissedDeadline);
      }
    }
    if (!done_.empty()) {
      run_done(lock);
      lock.lock();
    }
  }
}

// ---------------------------------------------------------- heartbeats ---

void Node::heartbeat_loop() {
  std::unique_lock lock(commit_mu_);
  while (!stopping_) {
    if (replica_.demotion_pending() && encoding_) {
      // The demotion drops the engine and then installs a snapshot: neither
      // may run under a chain encode that released commit_mu_ (DESIGN.md
      // §11, snapshot retain-list invariant).
      heartbeat_cv_.wait(lock, [&] { return stopping_ || !encoding_; });
      continue;
    }
    const TimePoint wake = replica_.tick(clock_.now());
    if (!done_.empty()) {
      // Losing the mirror re-routes unacked commits to disk, and a
      // demotion aborts what was in flight: both finish transactions. The
      // state may move while unlocked, so the controller ticks again.
      run_done(lock);
      lock.lock();
      continue;
    }
    // Only an earlier due time ends the wait early (wake_heartbeat_locked).
    const TimePoint now = clock_.now();
    if (now >= wake) continue;
    heartbeat_wake_at_ = wake;
    const auto woken = [&] { return stopping_ || heartbeat_wake_at_ < wake; };
    if (wake == TimePoint::max()) {
      heartbeat_cv_.wait(lock, woken);
    } else {
      heartbeat_cv_.wait_for(lock, std::chrono::microseconds((wake - now).us),
                             woken);
    }
  }
}

// ------------------------------------------------------------ telemetry --

TxnCounters Node::counters() const {
  std::lock_guard lock(commit_mu_);
  return counters_;
}

LatencyHistogram Node::commit_latency() const {
  std::lock_guard lock(commit_mu_);
  return commit_latency_;
}

ValidationTs Node::mirror_applied_seq() const {
  std::lock_guard lock(commit_mu_);
  const repl::MirrorService* mirror = replica_.mirror();
  return mirror ? mirror->applied_seq() : 0;
}

obs::TimeSeries Node::metrics_series() const {
  std::lock_guard lock(commit_mu_);
  return series_;
}

obs::AvailabilityTimeline Node::availability() const {
  std::lock_guard lock(commit_mu_);
  return availability_;
}

std::uint16_t Node::http_port() const { return http_ ? http_->port() : 0; }

}  // namespace rodain::rt
