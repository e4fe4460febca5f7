#include "rodain/net/sim_link.hpp"

#include <utility>

namespace rodain::net {

SimLink::SimLink(sim::Simulation& sim, Options options)
    : sim_(sim), options_(options), rng_(options.seed) {
  for (int i = 0; i < 2; ++i) {
    ends_[static_cast<std::size_t>(i)].link_ = this;
    ends_[static_cast<std::size_t>(i)].index_ = i;
  }
  tx_free_.fill(TimePoint::origin());
}

Status SimLink::End::send(std::vector<std::byte> frame) {
  if (!link_->up_) {
    return Status::error(ErrorCode::kUnavailable, "link down");
  }
  link_->transmit(index_, std::move(frame));
  return Status::ok();
}

bool SimLink::End::connected() const { return link_->up_; }

void SimLink::End::close() { link_->sever(); }

void SimLink::transmit(int from, std::vector<std::byte> frame) {
  const int to = 1 - from;
  Duration delay = options_.latency;
  if (options_.jitter.is_positive()) {
    delay += Duration::micros(static_cast<std::int64_t>(
        rng_.next_below(static_cast<std::uint64_t>(options_.jitter.us) + 1)));
  }
  Duration ser = options_.per_frame_overhead;
  if (options_.bandwidth_bytes_per_sec > 0) {
    const double bps = static_cast<double>(options_.bandwidth_bytes_per_sec);
    const double seconds = static_cast<double>(frame.size()) / bps;
    ser += Duration::micros(static_cast<std::int64_t>(seconds * 1e6));
  }
  if (ser.is_positive()) {
    // The sender's transmitter is serial: frames queue behind each other.
    auto& free_at = tx_free_[static_cast<std::size_t>(from)];
    const TimePoint start = std::max(free_at, sim_.now());
    free_at = start + ser;
    delay += (free_at - sim_.now());
  }
  const std::uint64_t gen = generation_;
  sim_.schedule_after(delay, [this, to, gen, f = std::move(frame)]() mutable {
    if (gen != generation_ || !up_) return;  // dropped with the old link
    ++delivered_;
    auto& handler = ends_[static_cast<std::size_t>(to)].handler_;
    if (handler) handler(std::move(f));
  });
}

void SimLink::sever() {
  if (!up_) return;
  up_ = false;
  ++generation_;
  for (End& e : ends_) {
    if (e.on_disconnect_) e.on_disconnect_();
  }
}

void SimLink::restore() {
  if (up_) return;
  up_ = true;
  ++generation_;
  tx_free_.fill(sim_.now());
}

}  // namespace rodain::net
