#include "rodain/repl/controller.hpp"

#include <algorithm>

#include "rodain/common/diag.hpp"
#include "rodain/obs/obs.hpp"

namespace rodain::repl {

namespace {
struct ControllerMetrics {
  obs::Counter& takeovers = obs::metrics().counter("node.takeovers");
  obs::Counter& split_brain =
      obs::metrics().counter("node.split_brain_detected");
  obs::Counter& discarded =
      obs::metrics().counter("node.split_brain_discarded_txns");
};
ControllerMetrics& cm() {
  static ControllerMetrics m;
  return m;
}
}  // namespace

ReplicaController::ReplicaController(Config config, const Clock& clock,
                                     storage::ObjectStore& store,
                                     storage::BPlusTree& index,
                                     log::LogStorage* disk, Driver& driver,
                                     std::string name)
    : config_(config),
      clock_(clock),
      store_(store),
      index_(index),
      disk_(disk),
      driver_(driver),
      name_(std::move(name)),
      watchdog_(config_.watchdog_timeout),
      link_grace_(config_.disconnect_grace) {
  log::Checkpointer::Options ckpt;
  ckpt.interval = config_.checkpoint_interval;
  ckpt.boundary = [this] { return driver_.commit_height(); };
  ckpt.write = [this](ValidationTs b) { return driver_.write_checkpoint(b); };
  ckpt.log = disk_;
  checkpointer_.configure(std::move(ckpt));
}

void ReplicaController::become(NodeRole role) {
  if (role_ == role) return;
  RODAIN_INFO("%s: role %s -> %s", name_.c_str(),
              std::string(to_string(role_)).c_str(),
              std::string(to_string(role)).c_str());
  role_ = role;
  peer_primary_seen_ = false;
  // A takeover decided in the old role is off: the mirror rejoined or was
  // abandoned before the activation ran out.
  takeover_at_.reset();
  driver_.on_role(role);
  // The checks that are due, and so the next tick, depend on the role.
  if (role != NodeRole::kDown) driver_.wake_at(clock_.now());
}

void ReplicaController::build_writer(LogMode mode) {
  writer_ = std::make_unique<log::LogWriter>(LogMode::kOff, disk_, nullptr);
  writer_->set_stage_clock(&clock_);
  if (channel_) {
    PrimaryReplicator::Hooks hooks;
    hooks.snapshot_boundary = [this] { return driver_.commit_height(); };
    hooks.join_artifacts = [this]() -> std::optional<JoinArtifacts> {
      if (!disk_dense_) return std::nullopt;  // served by live encode
      return driver_.join_artifacts();
    };
    hooks.on_join_started = [this] { lose_mirror("mirror asked to rejoin"); };
    hooks.on_mirror_joined = [this] {
      writer_->set_mode(LogMode::kMirror);
      become(NodeRole::kPrimaryWithMirror);
    };
    hooks.on_disconnect = [this] { on_disconnect(); };
    hooks.on_peer_primary = [this](ValidationTs h) { on_peer_primary(h); };
    replicator_ = std::make_unique<PrimaryReplicator>(
        *channel_, clock_, store_, *writer_, std::move(hooks));
    replicator_->set_index(&index_);
    writer_->set_shipper(replicator_.get());
    writer_->configure_ack_timeout(
        &clock_, config_.ack_timeout,
        [this] { lose_mirror("commit ack timeout"); },
        [this](TimePoint at) { driver_.wake_at(at); });
    writer_->configure_batching(
        &clock_, config_.log_batch,
        [this](Duration d) { driver_.schedule_flush(d); });
  }
  writer_->set_mode(mode);
}

void ReplicaController::build_mirror() {
  MirrorService::Options options;
  options.store_to_disk = config_.store_to_disk;
  options.on_synced = [this] { become(NodeRole::kMirror); };
  options.on_abandoned = [this] { become(NodeRole::kRecovering); };
  // Checkpoints ride the apply path: MirrorService polls the cadence and
  // truncates the stored log after each write (DESIGN.md §10).
  options.checkpoint_interval = config_.checkpoint_interval;
  options.write_checkpoint = [this](ValidationTs boundary) {
    return driver_.write_checkpoint(boundary);
  };
  mirror_ = std::make_unique<MirrorService>(store_, disk_, *channel_, clock_,
                                            std::move(options), &index_);
}

void ReplicaController::start_primary(LogMode mode, ValidationTs next_seq) {
  build_writer(mode);
  driver_.build_engine(*writer_, next_seq);
  alone_from_ = next_seq - 1;
  next_beat_ = clock_.now() + config_.heartbeat_interval;
  become(mode == LogMode::kMirror ? NodeRole::kPrimaryWithMirror
                                  : NodeRole::kPrimaryAlone);
}

void ReplicaController::start_mirror(ValidationTs expected_next) {
  build_mirror();
  mirror_->attach_synced(expected_next);
  next_beat_ = clock_.now() + config_.heartbeat_interval;
  become(NodeRole::kMirror);
}

void ReplicaController::start_joiner() {
  build_mirror();
  next_beat_ = clock_.now() + config_.heartbeat_interval;
  become(NodeRole::kRecovering);
  RODAIN_INFO("%s: rejoining via snapshot + catch-up", name_.c_str());
  mirror_->request_join(0);
}

void ReplicaController::stop() {
  replicator_.reset();
  mirror_.reset();
  writer_.reset();
  link_down_since_.reset();
  demotion_pending_ = false;
  become(NodeRole::kDown);
}

void ReplicaController::lose_mirror(const char* why) {
  if (role_ != NodeRole::kPrimaryWithMirror) return;
  RODAIN_INFO("%s: mirror lost (%s), logging to disk", name_.c_str(), why);
  link_down_since_.reset();
  // Before the re-route: the unacked commits it finishes may be missing
  // from the mirror.
  alone_from_ = driver_.commit_height();
  writer_->on_mirror_lost();
  become(NodeRole::kPrimaryAlone);
}

void ReplicaController::on_disconnect() {
  if (role_ != NodeRole::kPrimaryWithMirror) return;
  if (!config_.disconnect_grace.is_positive()) {
    lose_mirror("link lost");
  } else if (!link_down_since_) {
    link_down_since_ = clock_.now();
    RODAIN_INFO("%s: mirror link down, grace %lld us", name_.c_str(),
                static_cast<long long>(config_.disconnect_grace.us));
    driver_.wake_at(link_grace_.deadline(*link_down_since_));
  }
}

void ReplicaController::on_peer_primary(ValidationTs peer_height) {
  // A link-only outage outlasted the mirror's watchdog. Both sides apply
  // the same rule to the same inputs, so exactly one demotes; on a tie the
  // endpoint built earlier (the original primary) wins.
  const ValidationTs mine = driver_.commit_height();
  if (!peer_primary_seen_) {
    peer_primary_seen_ = true;
    cm().split_brain.inc();
    RODAIN_WARN("%s: split brain: peer also serves (height %llu vs our %llu)",
                name_.c_str(), static_cast<unsigned long long>(peer_height),
                static_cast<unsigned long long>(mine));
  }
  if (demotion_pending_ || mine > peer_height) return;
  if (mine == peer_height &&
      replicator_->endpoint_epoch() < replicator_->peer_epoch()) {
    return;
  }
  // Deferred: this runs inside the replicator's heartbeat handler, and the
  // demotion destroys the replicator.
  demotion_pending_ = true;
  driver_.wake_at(clock_.now());
}

void ReplicaController::take_over() {
  takeover_at_.reset();
  const MirrorService::TakeoverResult result = mirror_->take_over();
  disk_dense_ = disk_dense_ && mirror_->disk_log_dense();
  mirror_.reset();
  build_writer(LogMode::kDirectDisk);
  driver_.build_engine(*writer_, result.next_seq);
  alone_from_ = result.next_seq - 1;
  cm().takeovers.inc();
  become(NodeRole::kPrimaryAlone);
}

void ReplicaController::demote() {
  // The winner's snapshot replaces this store, and with it every commit
  // acknowledged while serving alone (DESIGN.md §8).
  const ValidationTs lost = role_ == NodeRole::kPrimaryAlone
                                ? driver_.commit_height() - alone_from_
                                : 0;
  cm().discarded.inc(lost);
  RODAIN_WARN("%s: stepping down to rejoin as mirror (%llu commits made "
              "alone discarded)",
              name_.c_str(), static_cast<unsigned long long>(lost));
  driver_.drop_engine();
  replicator_.reset();
  writer_.reset();
  link_down_since_.reset();
  start_joiner();
}

void ReplicaController::beat(TimePoint now) {
  next_beat_ = now + config_.heartbeat_interval;
  // Heartbeats feed the peer's watchdog (a joiner's keep the primary's
  // quiet while its snapshot installs); polls drive reconnects, join
  // retries and the mirror's checkpoint cadence.
  if (replicator_) {
    replicator_->send_heartbeat(role_, driver_.commit_height());
    replicator_->poll(now);
  } else if (mirror_) {
    mirror_->send_heartbeat();
    mirror_->poll(now);
  }
}

void ReplicaController::check_mirror(TimePoint now) {
  if (link_down_since_ && replicator_->channel_connected()) {
    link_down_since_.reset();
  }
  if (link_down_since_ && link_grace_.expired(now, *link_down_since_)) {
    lose_mirror("disconnect grace expired");
  } else if (!writer_->check_ack_timeouts() &&
             watchdog_.expired(now, replicator_->last_heard())) {
    lose_mirror("watchdog expired");
  }
}

TimePoint ReplicaController::tick(TimePoint now) {
  if (demotion_pending_) {
    demotion_pending_ = false;
    demote();
  }
  if (takeover_at_ && now >= *takeover_at_) take_over();
  if (!channel_ || role_ == NodeRole::kDown) return TimePoint::max();
  if (now >= next_beat_) beat(now);
  if (role_ == NodeRole::kPrimaryWithMirror) {
    check_mirror(now);
  } else if (role_ == NodeRole::kMirror && !takeover_at_ &&
             watchdog_.expired(now, mirror_->serving_last_heard())) {
    // serving_last_heard, not last_heard: a joiner's heartbeats must not
    // keep a lone mirror from taking over.
    RODAIN_INFO("%s: watchdog expired for primary, taking over",
                name_.c_str());
    if (obs::tracing_enabled()) {
      obs::tracer().record_instant(obs::Phase::kPrimaryFailure, 0);
    }
    takeover_at_ = now + config_.takeover_activation;
    if (!config_.takeover_activation.is_positive()) take_over();
  }
  return due();
}

TimePoint ReplicaController::due() const {
  if (!channel_ || role_ == NodeRole::kDown) return TimePoint::max();
  TimePoint at = next_beat_;
  if (takeover_at_) at = std::min(at, *takeover_at_);
  if (role_ == NodeRole::kPrimaryWithMirror) {
    at = std::min(at, watchdog_.deadline(replicator_->last_heard()));
    if (link_down_since_) {
      at = std::min(at, link_grace_.deadline(*link_down_since_));
    }
    if (const auto ack = writer_->ack_deadline()) at = std::min(at, *ack);
  } else if (role_ == NodeRole::kMirror && !takeover_at_) {
    at = std::min(at, watchdog_.deadline(mirror_->serving_last_heard()));
  }
  return at;
}

}  // namespace rodain::repl
