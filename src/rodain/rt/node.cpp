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

/// The watchdog and the disconnect grace are strict: each fires one tick
/// past its start + window.
TimePoint past(TimePoint since, Duration window) {
  return since + window + Duration::micros(1);
}
}  // namespace

// ----------------------------------------------------- guarded channel ---

void Node::GuardedChannel::set_message_handler(MessageHandler handler) {
  // Do not capture `this`: the wrapper outlives the GuardedChannel inside
  // the socket's handler slot. The epoch check (under the commit mutex)
  // makes sure `h` is only invoked while the objects it points into still
  // exist.
  Node* node = &node_;
  const std::uint64_t epoch = node_.channel_epoch_;
  inner_.set_message_handler(
      [node, epoch, h = std::move(handler)](std::vector<std::byte> frame) {
        std::unique_lock lock(node->commit_mu_);
        if (node->channel_epoch_ != epoch) return;  // role torn down
        if (h) h(std::move(frame));
        // A commit ack finishes its parked transactions in place
        // (on_log_durable_locked); their callbacks run after the unlock.
        node->run_done(lock);
      });
}

void Node::GuardedChannel::set_disconnect_handler(DisconnectHandler handler) {
  Node* node = &node_;
  const std::uint64_t epoch = node_.channel_epoch_;
  inner_.set_disconnect_handler([node, epoch, h = std::move(handler)] {
    std::unique_lock lock(node->commit_mu_);
    if (node->channel_epoch_ != epoch) return;
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
      overload_(config.overload),
      chain_(config.checkpoint_path, config.checkpoint_delta_limit) {
  if (config_.log_path.empty()) {
    disk_ = std::make_unique<log::MemoryLogStorage>();
  } else if (config_.log_segment_bytes > 0) {
    log::SegmentedLogStorage::Options seg;
    seg.segment_bytes = config_.log_segment_bytes;
    seg.fsync_on_flush = config_.fsync_log;
    auto segmented = log::SegmentedLogStorage::open(config_.log_path, seg);
    if (!segmented.is_ok()) {
      RODAIN_ERROR("%s: cannot open segmented log %s (%s); using memory log",
                   name_.c_str(), config_.log_path.c_str(),
                   segmented.status().to_string().c_str());
      disk_ = std::make_unique<log::MemoryLogStorage>();
    } else {
      log_tail_trimmed_ = segmented.value()->tail_trimmed_at_open();
      disk_ = std::move(segmented).value();
    }
  } else {
    auto file = log::FileLogStorage::open(config_.log_path, config_.fsync_log);
    if (!file.is_ok()) {
      RODAIN_ERROR("%s: cannot open log %s (%s); using memory log",
                   name_.c_str(), config_.log_path.c_str(),
                   file.status().to_string().c_str());
      disk_ = std::make_unique<log::MemoryLogStorage>();
    } else {
      disk_ = std::move(file).value();
    }
  }
  log::Checkpointer::Options ckpt;
  ckpt.interval = config_.checkpoint_interval;
  ckpt.boundary = [this] {
    return engine_ ? engine_->installed_low_water() : ValidationTs{0};
  };
  ckpt.write = [this](ValidationTs b) {
    return write_checkpoint_chain_locked(b);
  };
  ckpt.log = disk_.get();
  ckpt_.configure(std::move(ckpt));
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

void Node::become_locked(NodeRole role) {
  const NodeRole old = role_.load(std::memory_order_relaxed);
  if (old == role) return;
  RODAIN_INFO("%s: role %s -> %s", name_.c_str(),
              std::string(to_string(old)).c_str(),
              std::string(to_string(role)).c_str());
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
  const bool now_serving =
      role == NodeRole::kPrimaryWithMirror || role == NodeRole::kPrimaryAlone;
  if (now_serving) {
    availability_.set_serving(true, t);
  } else if (availability_.serving()) {
    availability_.set_serving(false, t);
  }
  availability_.publish_metrics("node.avail", t);
}

void Node::escalate_mirror_lost_locked(const char* why) {
  if (role_.load(std::memory_order_relaxed) != NodeRole::kPrimaryWithMirror) {
    return;
  }
  RODAIN_INFO("%s: mirror lost (%s)", name_.c_str(), why);
  link_down_since_.reset();
  log_writer_->on_mirror_lost();
  become_locked(NodeRole::kPrimaryAlone);
  ready_cv_.notify_all();
}

void Node::build_primary_locked(LogMode mode) {
  ++channel_epoch_;  // invalidate callbacks into the old role's objects
  link_down_since_.reset();
  mirror_.reset();
  replicator_.reset();
  log_writer_ =
      std::make_unique<log::LogWriter>(LogMode::kOff, disk_.get(), nullptr);
  log_writer_->set_stage_clock(&clock_);
  if (peer_) {
    guarded_channel_ = std::make_unique<GuardedChannel>(*this, *peer_);
    repl::PrimaryReplicator::Hooks hooks;
    hooks.snapshot_boundary = [this] {
      return engine_ ? engine_->installed_low_water() : ValidationTs{0};
    };
    // Runs under commit_mu_ (GuardedChannel wraps every inbound frame).
    hooks.join_artifacts = [this] { return join_artifacts_locked(); };
    hooks.on_join_started = [this] {
      escalate_mirror_lost_locked("mirror asked to rejoin");
    };
    hooks.on_mirror_joined = [this] {
      log_writer_->set_mode(LogMode::kMirror);
      become_locked(NodeRole::kPrimaryWithMirror);
    };
    hooks.on_disconnect = [this] {
      if (role_.load(std::memory_order_relaxed) !=
          NodeRole::kPrimaryWithMirror) {
        return;
      }
      if (!config_.disconnect_grace.is_positive()) {
        escalate_mirror_lost_locked("link lost");
      } else if (!link_down_since_) {
        link_down_since_ = clock_.now();
        RODAIN_INFO("%s: mirror link down, grace %lld us", name_.c_str(),
                    static_cast<long long>(config_.disconnect_grace.us));
        // The heartbeat thread escalates when the grace ends.
        wake_heartbeat_locked(
            past(*link_down_since_, config_.disconnect_grace));
      }
    };
    hooks.on_reconnected = [this] {
      if (link_down_since_) {
        RODAIN_INFO("%s: mirror link restored within grace", name_.c_str());
        link_down_since_.reset();
      }
    };
    hooks.on_peer_primary = [this, warned = false](ValidationTs peer) mutable {
      // Split brain in the threaded runtime is detected and surfaced, not
      // auto-resolved: demoting a live primary means quiescing the worker
      // pool mid-transaction, so the deployment fences manually (the sim
      // runtime auto-demotes — DESIGN.md §8 documents the asymmetry).
      obs::metrics().counter("node.split_brain_detected").inc();
      if (!warned) {
        warned = true;
        RODAIN_WARN(
            "%s: split brain: peer also claims a primary role "
            "(peer height %llu vs ours %llu) — manual fencing required",
            name_.c_str(), static_cast<unsigned long long>(peer),
            static_cast<unsigned long long>(
                engine_ ? engine_->installed_low_water() : 0));
      }
    };
    replicator_ = std::make_unique<repl::PrimaryReplicator>(
        *guarded_channel_, clock_, store_, *log_writer_, std::move(hooks));
    replicator_->set_index(&index_);
    log_writer_->set_shipper(replicator_.get());
    log_writer_->configure_ack_timeout(
        &clock_, config_.ack_timeout,
        [this] { escalate_mirror_lost_locked("commit ack timeout"); },
        [this](TimePoint at) { wake_heartbeat_locked(at); });
    // The schedule hook runs under commit_mu_ (every submit path holds it);
    // flush_batch() is then driven by the timer thread, also under it.
    log_flush_at_.reset();
    log_writer_->configure_batching(
        &clock_, config_.log_batch, [this](Duration d) {
          const TimePoint at = clock_.now() + d;
          if (!log_flush_at_ || at < *log_flush_at_) log_flush_at_ = at;
          wake_timer_locked(at);
        });
  }
  log_writer_->set_mode(mode);

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
                                             *log_writer_, std::move(hooks));
  if (recovery_ && recovery_->active()) {
    engine_->set_recovery(recovery_.get());
  }
}

void Node::start_primary(LogMode mode, net::Channel* peer) {
  std::unique_lock lock(commit_mu_);
  assert(role_.load(std::memory_order_relaxed) == NodeRole::kDown);
  peer_ = peer;
  {
    std::lock_guard q(queue_mu_);
    stopping_ = false;
  }
  build_primary_locked(mode);
  engine_->set_next_validation_seq(recovered_next_seq_);
  become_locked(mode == LogMode::kMirror ? NodeRole::kPrimaryWithMirror
                                         : NodeRole::kPrimaryAlone);
  for (std::size_t i = 0; i < config_.worker_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  timer_ = std::thread([this] { timer_loop(); });
  if (peer_) heartbeater_ = std::thread([this] { heartbeat_loop(); });
  start_checkpointer_locked();
  if (recovery_ && recovery_->active()) {
    sweeper_ = std::thread([this] { sweeper_loop(); });
  }
  start_sampler_locked();
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
      if (stopping_ || !serving_locked()) {
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
      ckpt_.tick(clock_.now());
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

bool Node::serving_locked() const {
  const NodeRole r = role_.load(std::memory_order_relaxed);
  return r == NodeRole::kPrimaryWithMirror || r == NodeRole::kPrimaryAlone;
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
    commit_mu_.unlock();
    s = chain_.encode(flip, store_, index_);
    commit_mu_.lock();
    s = chain_.finish(flip, store_, index_, std::move(s));
  }
  if (s && obs::tracing_enabled()) {
    obs::tracer().record_instant(obs::Phase::kCheckpoint, boundary);
  }
  return s;
}

Status Node::write_checkpoint_locked() {
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
  return ckpt_.run(clock_.now(), /*force=*/true);
}

Status Node::write_checkpoint() {
  std::lock_guard lock(commit_mu_);
  if (config_.checkpoint_path.empty()) {
    return Status::error(ErrorCode::kFailedPrecondition, "no checkpoint path");
  }
  return write_checkpoint_locked();
}

std::optional<repl::JoinArtifacts> Node::join_artifacts_locked() {
  if (config_.log_segment_bytes == 0 || config_.checkpoint_path.empty()) {
    return std::nullopt;
  }
  if (!mirror_disk_dense_) {
    // A stored-log flush failed while this node was the mirror: the disk
    // log may have holes the collector below cannot detect (an entire
    // flushed batch can be missing, not just a torn tail). Serve the join
    // by live encode instead.
    RODAIN_INFO("%s: disk log marked non-dense by the mirror epoch; "
                "falling back to live encode",
                name_.c_str());
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
    if (log_writer_) {
      auto tail = log_writer_->tail_since(boundary);
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
    if (instant) {
      RODAIN_INFO(
          "%s: instant recovery ready (%llu txns deferred, next seq %llu)",
          name_.c_str(),
          static_cast<unsigned long long>(stats.value().deferred_txns),
          static_cast<unsigned long long>(recovered_next_seq_));
    } else {
      RODAIN_INFO(
          "%s: local recovery done (%llu txns replayed, next seq %llu)",
          name_.c_str(),
          static_cast<unsigned long long>(stats.value().committed_applied),
          static_cast<unsigned long long>(recovered_next_seq_));
    }
    if (obs::tracing_enabled()) {
      obs::tracer().record_instant(obs::Phase::kRecovery,
                                   stats.value().last_seq);
    }
  }
  return stats;
}

repl::MirrorService::Options Node::mirror_options_locked() {
  repl::MirrorService::Options options;
  options.store_to_disk = true;
  options.on_synced = [this] { become_locked(NodeRole::kMirror); };
  options.on_abandoned = [this] { become_locked(NodeRole::kRecovering); };
  if (!config_.checkpoint_path.empty() &&
      config_.checkpoint_interval.is_positive()) {
    // Checkpoints ride the apply path: MirrorService polls the cadence and
    // truncates the stored log after each write (DESIGN.md §10).
    options.checkpoint_interval = config_.checkpoint_interval;
    options.write_checkpoint = [this](ValidationTs boundary) {
      return write_checkpoint_chain_locked(boundary);
    };
  }
  return options;
}

void Node::start_mirror(net::Channel& peer, ValidationTs expected_next) {
  std::unique_lock lock(commit_mu_);
  assert(role_.load(std::memory_order_relaxed) == NodeRole::kDown);
  peer_ = &peer;
  {
    std::lock_guard q(queue_mu_);
    stopping_ = false;
  }
  guarded_channel_ = std::make_unique<GuardedChannel>(*this, peer);
  if (recovery_ && recovery_->active()) {
    // The peer's stream supersedes whatever the local log still owed.
    recovery_->abandon();
    finish_recovery_locked("superseded by mirror role");
  }
  mirror_ = std::make_unique<repl::MirrorService>(
      store_, disk_.get(), *guarded_channel_, clock_, mirror_options_locked(),
      &index_);
  mirror_->attach_synced(expected_next);
  become_locked(NodeRole::kMirror);
  heartbeater_ = std::thread([this] { heartbeat_loop(); });
  start_sampler_locked();
}

void Node::start_rejoin(net::Channel& peer) {
  std::unique_lock lock(commit_mu_);
  assert(role_.load(std::memory_order_relaxed) == NodeRole::kDown);
  peer_ = &peer;
  {
    std::lock_guard q(queue_mu_);
    stopping_ = false;
  }
  guarded_channel_ = std::make_unique<GuardedChannel>(*this, peer);
  if (recovery_ && recovery_->active()) {
    // The snapshot about to install supersedes the local log's deferred
    // chains; applying them afterwards would clobber newer state.
    recovery_->abandon();
    finish_recovery_locked("superseded by snapshot rejoin");
  }
  mirror_ = std::make_unique<repl::MirrorService>(
      store_, disk_.get(), *guarded_channel_, clock_, mirror_options_locked(),
      &index_);
  become_locked(NodeRole::kRecovering);
  RODAIN_INFO("%s: rejoining via snapshot + catch-up", name_.c_str());
  mirror_->request_join(0);
  heartbeater_ = std::thread([this] { heartbeat_loop(); });
  start_sampler_locked();
}

void Node::take_over_locked() {
  if (role_.load(std::memory_order_relaxed) != NodeRole::kMirror || !mirror_) {
    return;
  }
  auto takeover = mirror_->take_over();
  // Sticky until restart: a stored-log write failure during the mirror
  // epoch means the disk may have holes, so join_artifacts_locked must
  // never vouch for dense catch-up coverage from it.
  mirror_disk_dense_ = mirror_->disk_log_dense();
  ++channel_epoch_;
  link_down_since_.reset();
  mirror_.reset();
  peer_ = nullptr;  // the old primary is gone; a rejoin brings a new channel
  guarded_channel_.reset();
  build_primary_locked(LogMode::kDirectDisk);
  engine_->set_next_validation_seq(takeover.next_seq);
  become_locked(NodeRole::kPrimaryAlone);
  if (workers_.empty()) {
    for (std::size_t i = 0; i < config_.worker_threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
    timer_ = std::thread([this] { timer_loop(); });
  }
  // The mirror's cadence died with mirror_; the survivor's extends the
  // same chain.
  start_checkpointer_locked();
}

void Node::stop() {
  {
    std::scoped_lock lock(commit_mu_, queue_mu_);
    if (stopping_ &&
        role_.load(std::memory_order_relaxed) == NodeRole::kDown) {
      return;
    }
    stopping_ = true;
    become_locked(NodeRole::kDown);
    // Freeze the outage become_locked just opened: downtime accrual stops at
    // shutdown, but the outage stays reported as open (never re-served).
    availability_.close(clock_.now().us);
  }
  ready_cv_.notify_all();
  timer_cv_.notify_all();
  heartbeat_cv_.notify_all();
  stop_cv_.notify_all();
  // Join BEFORE sweeping active_: a worker that owns a transaction holds a
  // raw pointer to it while it waits for commit_mu_.
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  if (timer_.joinable()) timer_.join();
  if (heartbeater_.joinable()) heartbeater_.join();
  if (checkpointer_.joinable()) checkpointer_.join();
  if (sampler_.joinable()) sampler_.join();
  if (sweeper_.joinable()) sweeper_.join();
  std::vector<std::pair<DoneFn, CommitInfo>> callbacks;
  {
    std::scoped_lock lock(commit_mu_, queue_mu_);
    callbacks.swap(done_);
    // In-flight transactions die with the node.
    for (auto& [id, a] : active_) {
      if (a.done) {
        CommitInfo info;
        info.outcome = TxnOutcome::kSystemAborted;
        callbacks.emplace_back(std::move(a.done), info);
      }
      ++counters_.system_aborted;
    }
    active_.clear();
    ready_.clear();
    deadlines_.clear();
    ++channel_epoch_;
    engine_.reset();
    replicator_.reset();
    mirror_.reset();
    log_writer_.reset();
    guarded_channel_.reset();
  }
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
    if (!serving_locked()) {
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
  // The entry (and the Transaction it owns) is stable while owned: only
  // finish_locked (called by this worker) or stop() — which joins workers
  // before sweeping — erases it.
  txn::Transaction* t = it->second.txn.get();
  qlock.unlock();

  // Every step runs under commit_mu_, held until the transaction parks or
  // finishes (DESIGN.md §11). stop() sets stopping_ under it too.
  std::unique_lock commit(commit_mu_, std::defer_lock);
  lock_commit(commit);
  bool done = stopping_;
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
  overload_.on_finish();
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
  counters_.restarts += static_cast<std::uint64_t>(a.txn->restarts());

  if (obs::enabled()) {
    obs::observe_stages(a.txn->stages, now.us);
    const bool missed = (outcome == TxnOutcome::kCommitted && a.late) ||
                        outcome == TxnOutcome::kMissedDeadline;
    if (missed && a.txn->deadline() != TimePoint::max()) {
      // Charge the miss to the lifecycle stage that exhausted the slack.
      obs::charge_deadline_miss(a.txn->stages,
                                (a.txn->deadline() - a.txn->arrival()).us,
                                now.us);
    }
  }
  if (outcome == TxnOutcome::kCommitted) availability_.on_commit(now.us);

  if (outcome == TxnOutcome::kCommitted && a.late) {
    ++counters_.missed_deadline;
    nm().missed_deadline.inc();
    overload_.on_deadline_miss(now);
  } else {
    switch (outcome) {
      case TxnOutcome::kCommitted:
        ++counters_.committed;
        commit_latency_.add(info.latency);
        nm().committed.inc();
        nm().commit_latency.observe(info.latency);
        break;
      case TxnOutcome::kMissedDeadline:
        ++counters_.missed_deadline;
        nm().missed_deadline.inc();
        overload_.on_deadline_miss(now);
        break;
      case TxnOutcome::kOverloadRejected:
        ++counters_.overload_rejected;
        break;
      case TxnOutcome::kConflictAborted:
        ++counters_.conflict_aborted;
        nm().conflict_aborted.inc();
        break;
      case TxnOutcome::kSystemAborted:
        ++counters_.system_aborted;
        nm().system_aborted.inc();
        break;
    }
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
      if (log_writer_) log_writer_->flush_batch();
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
  const repl::Watchdog watchdog(config_.watchdog_timeout);
  // This thread keeps its own time: it wakes for its next beat, for the
  // watchdog expiry and, on a primary with a mirror, for the ack deadline
  // of the oldest unacked shipment and the end of a disconnect grace.
  TimePoint next_beat = clock_.now() + config_.heartbeat_interval;
  while (!stopping_) {
    const TimePoint now = clock_.now();
    if (now >= next_beat) {
      next_beat = now + config_.heartbeat_interval;
      // Heartbeats feed the peer's watchdog (a recovering node's keep the
      // primary's quiet while its snapshot installs); polls drive
      // reconnects and join retries.
      if (replicator_) {
        replicator_->send_heartbeat(
            role(), engine_ ? engine_->installed_low_water() : 0);
        replicator_->poll(now);
      }
      if (mirror_) {
        mirror_->send_heartbeat();
        mirror_->poll(now);
      }
    }
    TimePoint wake = next_beat;
    const NodeRole current = role_.load(std::memory_order_relaxed);
    if (current == NodeRole::kPrimaryWithMirror && replicator_) {
      if (link_down_since_ && replicator_->channel_connected()) {
        link_down_since_.reset();
      }
      if (link_down_since_ &&
          now - *link_down_since_ > config_.disconnect_grace) {
        escalate_mirror_lost_locked("disconnect grace expired");
      } else if (!log_writer_->check_ack_timeouts()) {  // escalates itself
        if (watchdog.expired(now, replicator_->last_heard())) {
          RODAIN_INFO("%s: watchdog expired for mirror", name_.c_str());
          escalate_mirror_lost_locked("watchdog expired");
        } else {
          wake = std::min(wake, past(replicator_->last_heard(),
                                     watchdog.timeout()));
          if (link_down_since_) {
            wake = std::min(wake, past(*link_down_since_,
                                       config_.disconnect_grace));
          }
          if (const auto ack = log_writer_->ack_deadline()) {
            wake = std::min(wake, *ack);
          }
        }
      }
    } else if (current == NodeRole::kMirror && mirror_) {
      // serving_last_heard, not last_heard: a recovering peer's heartbeats
      // must not keep a lone mirror from taking over.
      if (!watchdog.expired(now, mirror_->serving_last_heard())) {
        wake = std::min(wake, past(mirror_->serving_last_heard(),
                                   watchdog.timeout()));
      } else {
        RODAIN_INFO("%s: watchdog expired for primary, taking over",
                    name_.c_str());
        if (obs::tracing_enabled()) {
          obs::tracer().record_instant(obs::Phase::kPrimaryFailure, 0);
        }
        obs::metrics().counter("node.takeovers").inc();
        take_over_locked();
      }
    }
    if (!done_.empty()) {
      // Losing the mirror re-routes unacked commits to disk, which finishes
      // their parked transactions. The state may move while unlocked, so
      // the wake times are computed again.
      run_done(lock);
      lock.lock();
      continue;
    }
    // Only an earlier wake time ends the wait early: the end of a
    // disconnect grace, or the ack deadline of a first unacked shipment
    // (wake_heartbeat_locked).
    const TimePoint after = clock_.now();
    if (after < wake) {
      heartbeat_wake_at_ = wake;
      heartbeat_cv_.wait_for(
          lock, std::chrono::microseconds((wake - after).us),
          [&] { return stopping_ || heartbeat_wake_at_ < wake; });
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
  return mirror_ ? mirror_->applied_seq() : 0;
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
