// The Primary Node's replication half: ships the redo stream (it is the
// LogWriter's Shipper), routes commit acks back, serves join requests with
// a snapshot + catch-up tail, and exposes peer liveness for the watchdog.
//
// A join is two-phase (DESIGN.md §12). The serve ships the snapshot and the
// catch-up through the installed low-water, and leaves the writer in its
// transient mode, its tail pinned, while the joiner installs. The joiner's
// kSnapshotInstalled report triggers the switch: ship what committed since
// the serve, switch the writer to kMirror, answer kJoinComplete.
//
// Hardened against lossy links: send statuses are counted instead of
// dropped, the last served snapshot is cached so the joiner can ask for
// exactly the chunks it is missing (kChunkRetry), and a reconnect observed
// by the endpoint triggers a re-ship of every unacknowledged transaction.
#pragma once

#include <optional>
#include <vector>

#include "rodain/common/clock.hpp"
#include "rodain/log/writer.hpp"
#include "rodain/repl/endpoint.hpp"
#include "rodain/storage/object_store.hpp"

namespace rodain::repl {

/// Disk-served join (instant rejoin, DESIGN.md §12): the on-disk checkpoint
/// plus the log records that densely cover (boundary, installed_low_water],
/// already deduplicated and in validation-seq order. Serving these instead
/// of encoding the live store keeps the join off the commit path's cache
/// and skips the snapshot encode entirely.
struct JoinArtifacts {
  std::vector<std::byte> checkpoint_bytes;
  ValidationTs boundary{0};
  std::vector<log::Record> catch_up;
};

class PrimaryReplicator final : public log::Shipper {
 public:
  struct Hooks {
    /// Snapshot boundary: the highest validation seq v such that every
    /// transaction with seq <= v has installed its writes (the engine's
    /// installed low-water mark).
    std::function<ValidationTs()> snapshot_boundary;
    /// Optional disk-based join serving. Return artifacts to ship the
    /// stored checkpoint + log instead of a live snapshot encode; return
    /// nullopt to fall back to the live path (no checkpoint on disk, log
    /// coverage gap, non-segmented log, ...).
    std::function<std::optional<JoinArtifacts>()> join_artifacts;
    /// A join request arrived and is about to be served. A node that asks
    /// to join is no longer a mirror: a node that still counts on it must
    /// drop to transient mode first (on_mirror_lost re-routes unacked
    /// commits to disk).
    std::function<void()> on_join_started;
    /// The joiner reported its snapshot installed, and everything committed
    /// since the serve has been shipped: the node should switch the
    /// LogWriter to kMirror mode and update its role. Runs inside the
    /// report's frame handler, so no commit falls between the catch-up and
    /// the live stream.
    std::function<void()> on_mirror_joined;
    /// The link dropped.
    std::function<void()> on_disconnect;
    /// A heartbeat arrived whose sender also claims a primary role: split
    /// brain (a spurious mirror takeover during a link-only outage). The
    /// argument is the peer's commit height from its heartbeat; the node
    /// layer resolves the conflict (see DESIGN.md §8).
    std::function<void(ValidationTs)> on_peer_primary;
  };

  struct Options {
    std::size_t snapshot_chunk_bytes{256 * 1024};
  };

  PrimaryReplicator(net::Channel& channel, const Clock& clock,
                    storage::ObjectStore& store, log::LogWriter& writer,
                    Hooks hooks);
  PrimaryReplicator(net::Channel& channel, const Clock& clock,
                    storage::ObjectStore& store, log::LogWriter& writer,
                    Hooks hooks, Options options);

  /// Include the secondary index in served snapshots (optional).
  void set_index(const storage::BPlusTree* index) { index_ = index; }

  // log::Shipper
  void ship(std::span<const log::Record> records) override;

  /// `height` is this node's commit height (installed low-water mark); a
  /// peer that also believes it is primary uses it to resolve the conflict
  /// (richer history wins).
  void send_heartbeat(NodeRole role, ValidationTs height = 0);

  /// Drive the endpoint's reconnect machinery (heartbeat tick).
  void poll(TimePoint now);

  [[nodiscard]] TimePoint last_heard() const { return endpoint_.last_heard(); }
  [[nodiscard]] bool channel_connected() const { return endpoint_.connected(); }
  [[nodiscard]] ValidationTs mirror_applied_seq() const {
    return mirror_applied_;
  }
  [[nodiscard]] std::uint64_t snapshots_served() const {
    return snapshots_served_;
  }
  [[nodiscard]] std::uint64_t snapshot_chunks_resent() const {
    return snapshot_chunks_resent_;
  }
  /// Endpoint ages for the split-brain tie-break: with equal commit
  /// heights, the younger endpoint (larger epoch — the spurious
  /// taker-over rebuilt its replicator later) yields.
  [[nodiscard]] std::uint64_t endpoint_epoch() const {
    return endpoint_.epoch();
  }
  [[nodiscard]] std::uint64_t peer_epoch() const {
    return endpoint_.peer_epoch();
  }

 private:
  void on_join_request(ValidationTs have);
  void on_chunk_retry(std::uint64_t snapshot_id,
                      const std::vector<std::uint32_t>& missing);
  void on_snapshot_installed(std::uint64_t snapshot_id);
  Status send_counted(const Message& m);
  Status send_chunk(std::uint32_t index);
  /// Ship records as kLogBatch slices cut at commit boundaries; returns how
  /// many transactions they carried.
  std::size_t ship_catch_up(std::vector<log::Record> records);
  /// Forget the serves still waiting for an install report, and the pin.
  void drop_pending_serves();

  /// The last served snapshot, so lost chunks can be re-served without
  /// re-encoding. Kept until the joiner reports it installed, a newer serve
  /// replaces it, or the link drops — never dropped on a heartbeat's
  /// applied seq, which can already pass a low boundary.
  struct CachedSnapshot {
    std::uint64_t id{0};
    ValidationTs boundary{0};
    std::uint32_t chunk_total{0};
    std::vector<std::byte> bytes;
  };

  Endpoint endpoint_;
  const Clock& clock_;
  storage::ObjectStore& store_;
  const storage::BPlusTree* index_{nullptr};
  log::LogWriter& writer_;
  Hooks hooks_;
  Options options_;
  ValidationTs mirror_applied_{0};
  std::uint64_t snapshots_served_{0};
  std::uint64_t send_failures_{0};
  std::uint64_t snapshot_chunks_resent_{0};
  std::optional<CachedSnapshot> last_snapshot_;
  /// Serves waiting for the joiner's install report, oldest first. A
  /// joiner that re-sent its request before the first serve reached it
  /// gets several and installs one of them, so any of them may switch.
  /// Every one covered each seq <= `pending_through_`, and the writer's
  /// tail is pinned above it.
  std::vector<std::uint64_t> pending_serves_;
  ValidationTs pending_through_{0};
  static constexpr std::size_t kMaxPendingServes = 4;
  /// The last switched serve and its kJoinComplete seq: a repeated report
  /// for it (the answer was lost) is answered again.
  std::uint64_t switched_serve_{0};
  ValidationTs switched_through_{0};
};

}  // namespace rodain::repl
