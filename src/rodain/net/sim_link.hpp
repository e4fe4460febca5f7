// Simulated point-to-point duplex link: constant propagation latency plus a
// serialization delay from link bandwidth, optional jitter, in-order
// delivery. sever()/restore() model node or link failure — undelivered
// frames on a severed link are dropped, exactly what a crashed peer means
// for the log-shipping protocol.
#pragma once

#include <array>
#include <deque>

#include "rodain/common/rng.hpp"
#include "rodain/net/channel.hpp"
#include "rodain/sim/simulation.hpp"

namespace rodain::net {

class SimLink {
 public:
  struct Options {
    /// One-way propagation delay (the paper's commit path costs one
    /// round-trip, i.e. 2x this).
    Duration latency{Duration::micros(500)};
    /// Uniform extra delay in [0, jitter].
    Duration jitter{Duration::zero()};
    /// Bytes/second; 0 disables serialization delay.
    double bandwidth_bytes_per_sec{12.5e6};  // 100 Mbit/s
    /// Fixed per-frame cost (protocol/processing overhead) occupying the
    /// sender's serial transmitter in addition to the byte time. This is
    /// the group-commit lever: many commits in one frame pay it once, and
    /// a per-txn frame stream saturates the transmitter at high rates.
    /// Zero (default) preserves the pure-bandwidth model.
    Duration per_frame_overhead{Duration::zero()};
    std::uint64_t seed{1};
  };

  SimLink(sim::Simulation& sim, Options options);

  [[nodiscard]] Channel& end_a() { return ends_[0]; }
  [[nodiscard]] Channel& end_b() { return ends_[1]; }

  /// Drop the link: both ends disconnect, in-flight frames vanish.
  void sever();
  /// Bring the link back (both ends reconnected, fresh stream).
  void restore();

  [[nodiscard]] bool up() const { return up_; }
  [[nodiscard]] std::uint64_t frames_delivered() const { return delivered_; }

 private:
  class End final : public Channel {
   public:
    void set_message_handler(MessageHandler handler) override {
      handler_ = std::move(handler);
    }
    void set_disconnect_handler(DisconnectHandler handler) override {
      on_disconnect_ = std::move(handler);
    }
    Status send(std::vector<std::byte> frame) override;
    [[nodiscard]] bool connected() const override;
    void close() override;

   private:
    friend class SimLink;
    SimLink* link_{nullptr};
    int index_{0};
    MessageHandler handler_;
    DisconnectHandler on_disconnect_;
  };

  void transmit(int from, std::vector<std::byte> frame);

  sim::Simulation& sim_;
  Options options_;
  Rng rng_;
  std::array<End, 2> ends_;
  bool up_{true};
  /// Generation counter: frames in flight when the link is severed carry a
  /// stale generation and are discarded on delivery.
  std::uint64_t generation_{0};
  /// Per-direction time the channel becomes free (serialization delay).
  std::array<TimePoint, 2> tx_free_{};
  std::uint64_t delivered_{0};
};

}  // namespace rodain::net
