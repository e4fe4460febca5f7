// The paper's role rules (§2), written once for both drivers (DESIGN.md
// §4). Passive: no threads, locks or sleeps, and time only from the `now`
// it is handed. It owns the role and that role's replication objects (the
// LogWriter, and a PrimaryReplicator or a MirrorService); the driver
// (rt::Node, SimNode) owns the engine and the wake-ups.
//
// * A primary loses its mirror on an ack timeout, at the end of a
//   disconnect grace, at its watchdog's expiry, or on a join request, and
//   then serves alone, logging to disk.
// * A mirror takes over `takeover_activation` after its watchdog on the
//   serving primary expires, keeps the channel, and logs to disk.
// * A recovering node always comes back as a joiner, never as a primary.
// * Split brain: the higher commit height keeps serving, and on a tie the
//   older endpoint. The loser demotes on its next tick (never inside the
//   replicator's handler) and rejoins on the same channel; the commits it
//   made alone are lost, and counted (node.split_brain_discarded_txns).
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "rodain/common/clock.hpp"
#include "rodain/log/writer.hpp"
#include "rodain/repl/mirror.hpp"
#include "rodain/repl/primary.hpp"

namespace rodain::repl {

class ReplicaController {
 public:
  struct Config {
    Duration heartbeat_interval{Duration::millis(100)};
    Duration watchdog_timeout{Duration::millis(500)};
    /// Oldest unacked shipment older than this loses the mirror; zero
    /// disables.
    Duration ack_timeout{Duration::millis(250)};
    /// How long a dropped mirror link may stay down before the mirror is
    /// lost; zero loses it at the drop.
    Duration disconnect_grace{Duration::zero()};
    /// From the watchdog's expiry to serving. The simulator models it; the
    /// threaded runtime takes over at once.
    Duration takeover_activation{Duration::zero()};
    log::LogWriter::BatchOptions log_batch{};
    /// The mirror stores the ordered log on the node's disk.
    bool store_to_disk{true};
    /// Checkpoint cadence of every role (zero disables): a serving node's
    /// driver ticks checkpointer(), a mirror's MirrorService its own.
    Duration checkpoint_interval{Duration::zero()};
  };

  /// What the controller asks of its driver, always from inside one of
  /// its own methods.
  class Driver {
   public:
    virtual ~Driver() = default;
    /// The role changed (availability, metrics, a serving role's threads).
    virtual void on_role(NodeRole role) = 0;
    /// Build the engine over `writer`, its validation seq continuing at
    /// `next_seq`.
    virtual void build_engine(log::LogWriter& writer,
                              ValidationTs next_seq) = 0;
    /// Leave a serving role: abort every transaction in flight and drop the
    /// engine. The writer it was built over is destroyed right after.
    virtual void drop_engine() = 0;
    /// Call tick() no later than `at`.
    virtual void wake_at(TimePoint at) = 0;
    /// Call writer()->flush_batch() after `delay`.
    virtual void schedule_flush(Duration delay) = 0;
    virtual Status write_checkpoint(ValidationTs boundary) = 0;
    /// Disk-served join (DESIGN.md §12), or nullopt for a live encode.
    virtual std::optional<JoinArtifacts> join_artifacts() = 0;
    /// The engine's installed low-water mark; 0 without an engine.
    [[nodiscard]] virtual ValidationTs commit_height() const = 0;
  };

  ReplicaController(Config config, const Clock& clock,
                    storage::ObjectStore& store, storage::BPlusTree& index,
                    log::LogStorage* disk, Driver& driver, std::string name);
  ReplicaController(const ReplicaController&) = delete;
  ReplicaController& operator=(const ReplicaController&) = delete;

  /// The channel toward the peer (null: a lone node). Set while down; it is
  /// kept across every role change.
  void set_channel(net::Channel* channel) { channel_ = channel; }

  // ---- role starts (from kDown, or from kRecovering for start_primary) --
  void start_primary(LogMode mode, ValidationTs next_seq);
  /// An in-sync mirror of a fresh pair; the stream begins at
  /// `expected_next`.
  void start_mirror(ValidationTs expected_next);
  /// Rejoin the serving peer: snapshot, catch-up, then the switch.
  void start_joiner();
  /// A node restoring its own disk state before it serves alone
  /// (kRecovering with no replication objects; start_primary ends it).
  void start_local_recovery() { become(NodeRole::kRecovering); }
  /// Down, with every replication object torn down (the driver has dropped
  /// its engine).
  void stop();

  /// Beats, due checks, and a pending demotion or takeover. Returns the
  /// earliest of the next beat, the watchdog's expiry, the end of a grace,
  /// the oldest ack deadline and a pending takeover.
  TimePoint tick(TimePoint now);

  [[nodiscard]] NodeRole role() const { return role_; }
  [[nodiscard]] bool serving() const {
    return role_ == NodeRole::kPrimaryWithMirror ||
           role_ == NodeRole::kPrimaryAlone;
  }
  /// A split-brain demotion waits for the next tick.
  [[nodiscard]] bool demotion_pending() const { return demotion_pending_; }
  [[nodiscard]] log::LogWriter* writer() { return writer_.get(); }
  [[nodiscard]] PrimaryReplicator* replicator() { return replicator_.get(); }
  [[nodiscard]] MirrorService* mirror() { return mirror_.get(); }
  /// The serving role's checkpoint cadence: it writes through the driver
  /// at the commit height and truncates the log below each boundary.
  [[nodiscard]] log::Checkpointer& checkpointer() { return checkpointer_; }
  [[nodiscard]] const log::Checkpointer& checkpointer() const {
    return checkpointer_;
  }
  [[nodiscard]] const MirrorService* mirror() const { return mirror_.get(); }

 private:
  void become(NodeRole role);
  /// Build the writer in `mode`, and a replicator when there is a channel.
  void build_writer(LogMode mode);
  void build_mirror();
  void lose_mirror(const char* why);
  void on_disconnect();
  void on_peer_primary(ValidationTs peer_height);
  void take_over();
  void demote();
  void beat(TimePoint now);
  /// The checks of a serving primary with a mirror.
  void check_mirror(TimePoint now);
  [[nodiscard]] TimePoint due() const;

  Config config_;
  const Clock& clock_;
  storage::ObjectStore& store_;
  storage::BPlusTree& index_;
  log::LogStorage* disk_;
  Driver& driver_;
  std::string name_;
  net::Channel* channel_{nullptr};
  /// A primary's watchdog on its mirror, or a mirror's on the serving
  /// primary; and the disconnect grace of a dropped mirror link.
  Watchdog watchdog_;
  Watchdog link_grace_;

  NodeRole role_{NodeRole::kDown};
  log::Checkpointer checkpointer_;
  std::unique_ptr<log::LogWriter> writer_;
  std::unique_ptr<PrimaryReplicator> replicator_;
  std::unique_ptr<MirrorService> mirror_;
  TimePoint next_beat_{TimePoint::max()};
  /// When the mirror link dropped, while its grace runs.
  std::optional<TimePoint> link_down_since_;
  /// When a detected primary failure turns into the takeover.
  std::optional<TimePoint> takeover_at_;
  bool demotion_pending_{false};
  /// The commit height from which this node serves with no mirror holding
  /// its commits: what a split-brain demotion discards lies above it.
  ValidationTs alone_from_{0};
  /// A primary-role heartbeat was heard since the role began: one split
  /// brain counts once.
  bool peer_primary_seen_{false};
  /// False once a stored-log write failed during this process's mirror
  /// epoch: the disk log may have holes, so joins are served by live
  /// encode, never from it.
  bool disk_dense_{true};
};

}  // namespace rodain::repl
