// Typed message pump over a Channel: decodes frames, dispatches to
// handlers, stamps liveness for the watchdog. Both node roles own one.
//
// Hardened against a faulty link: every outgoing message is wrapped in a
// crc/epoch/sequence envelope, corrupted frames are rejected, duplicated
// and stale reordered frames are suppressed by a sliding anti-replay
// window, and a polled reconnect state machine with capped exponential
// backoff re-establishes the stream (firing on_reconnected so the sender
// can retry unacknowledged commit records).
#pragma once

#include <memory>

#include "rodain/common/backoff.hpp"
#include "rodain/common/clock.hpp"
#include "rodain/net/channel.hpp"
#include "rodain/repl/protocol.hpp"

namespace rodain::repl {

class Endpoint {
 public:
  struct Handlers {
    std::function<void(std::vector<log::Record>)> on_log_batch;
    std::function<void(ValidationTs)> on_commit_ack;
    std::function<void(NodeRole, ValidationTs)> on_heartbeat;
    std::function<void(ValidationTs)> on_join_request;
    std::function<void(std::uint64_t, std::uint32_t, std::uint32_t,
                       std::vector<std::byte>)>
        on_snapshot_chunk;  ///< (snapshot id, index, total, bytes)
    std::function<void(ValidationTs, std::uint64_t)>
        on_snapshot_done;  ///< (boundary, snapshot id)
    std::function<void(std::uint64_t, std::vector<std::uint32_t>)>
        on_chunk_retry;  ///< (snapshot id, missing chunk indexes)
    std::function<void(std::uint64_t)> on_snapshot_installed;  ///< (id)
    std::function<void(std::uint64_t, ValidationTs)>
        on_join_complete;  ///< (snapshot id, through seq)
    std::function<void()> on_disconnect;
    /// The channel came back after a disconnect (observed by poll()).
    std::function<void()> on_reconnected;
    std::function<void(Status)> on_protocol_error;
  };

  struct Options {
    BackoffPolicy reconnect{Duration::millis(5), Duration::millis(500), 2.0,
                            0.2};
    std::uint64_t seed{0x0e9d};
  };

  struct Stats {
    std::uint64_t frames_sent{0};
    std::uint64_t send_failures{0};
    std::uint64_t frames_received{0};
    std::uint64_t corrupt_rejected{0};
    std::uint64_t duplicates_suppressed{0};
    std::uint64_t stale_suppressed{0};
    std::uint64_t reconnect_attempts{0};
    std::uint64_t reconnects{0};
  };

  Endpoint(net::Channel& channel, const Clock& clock, Handlers handlers);
  Endpoint(net::Channel& channel, const Clock& clock, Handlers handlers,
           Options options);

  Status send(const Message& m);

  /// Drive the reconnect state machine; call periodically (heartbeat tick).
  /// Detects channel restoration, paces reconnect attempts with capped
  /// exponential backoff + jitter, and fires on_reconnected.
  void poll(TimePoint now);

  /// Transports that need an active reconnect step (e.g. dialing a TCP
  /// peer) install it here; it returns true once the channel is up again.
  /// Transports that restore passively (SimLink) leave it unset.
  void set_connector(std::function<bool()> connector) {
    connector_ = std::move(connector);
  }

  /// When any frame (or heartbeat) was last received — watchdog input.
  [[nodiscard]] TimePoint last_heard() const { return last_heard_; }

  [[nodiscard]] bool connected() const { return channel_.connected(); }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  /// The peer's current send epoch (0 until a frame is accepted). Epochs
  /// are clock-ordered, so comparing ours against the peer's tells which
  /// endpoint was (re)built more recently — the split-brain tie-break.
  [[nodiscard]] std::uint64_t peer_epoch() const { return peer_epoch_; }

 private:
  void on_frame(std::vector<std::byte> frame);
  /// Anti-replay admission for a received (epoch, frame_seq).
  [[nodiscard]] bool accept_frame(std::uint64_t epoch, std::uint64_t seq);

  net::Channel& channel_;
  const Clock& clock_;
  Handlers handlers_;
  /// Liveness sentinel captured (weakly) by the handlers this endpoint
  /// installs on the channel: the channel outlives the endpoint (a SimLink
  /// end survives a node failure), so a late frame or disconnect event must
  /// not reach a destroyed endpoint. Destroying the endpoint expires the
  /// sentinel and the stale handlers become no-ops.
  std::shared_ptr<bool> alive_{std::make_shared<bool>(true)};
  TimePoint last_heard_;
  Stats stats_;

  // Send side: this endpoint's epoch (monotone across rebuilds), frame
  // counter, and the reused frame-encode buffer.
  std::uint64_t epoch_;
  std::uint64_t next_frame_seq_{1};
  ByteWriter encode_buf_;

  // Receive side: DTLS-style 64-frame sliding window within the peer's
  // current epoch.
  std::uint64_t peer_epoch_{0};
  std::uint64_t window_highest_{0};
  std::uint64_t window_mask_{0};

  // Reconnect state machine.
  Backoff backoff_;
  std::function<bool()> connector_;
  bool reconnecting_{false};
  TimePoint next_attempt_{};
};

/// Failure detector: a peer that has not been heard from within `timeout`
/// is declared failed (paper §2's Watchdog subsystem).
class Watchdog {
 public:
  explicit Watchdog(Duration timeout) : timeout_(timeout) {}

  [[nodiscard]] bool expired(TimePoint now, TimePoint last_heard) const {
    return now - last_heard > timeout_;
  }
  /// The first time expired() holds: one tick past last_heard + timeout.
  [[nodiscard]] TimePoint deadline(TimePoint last_heard) const {
    return last_heard + timeout_ + Duration::micros(1);
  }

 private:
  Duration timeout_;
};

}  // namespace rodain::repl
