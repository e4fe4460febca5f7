#include "rodain/repl/endpoint.hpp"

#include <atomic>

#include "rodain/common/diag.hpp"
#include "rodain/obs/obs.hpp"

namespace rodain::repl {

namespace {

struct EndpointMetrics {
  obs::Counter& corrupt = obs::metrics().counter("repl.frames_corrupt");
  obs::Counter& duplicates = obs::metrics().counter("repl.frames_duplicate");
  obs::Counter& stale = obs::metrics().counter("repl.frames_stale");
  obs::Counter& send_failures = obs::metrics().counter("repl.send_failures");
  obs::Counter& reconnects = obs::metrics().counter("repl.reconnects");
  obs::Counter& reconnect_attempts =
      obs::metrics().counter("repl.reconnect_attempts");
};
EndpointMetrics& epm() {
  static EndpointMetrics m;
  return m;
}

/// Epochs must be distinct and monotone across endpoint rebuilds so a new
/// endpoint's frames are never suppressed by a receiver's stale anti-replay
/// window: clock microseconds in the high bits order rebuilds over time, a
/// process-wide counter in the low bits breaks ties at equal timestamps.
std::uint64_t next_epoch(const Clock& clock) {
  static std::atomic<std::uint64_t> counter{1};
  const auto us = static_cast<std::uint64_t>(clock.now().us);
  return (us << 16) | (counter.fetch_add(1, std::memory_order_relaxed) &
                       0xffffULL);
}

constexpr std::uint64_t kWindowBits = 64;

}  // namespace

Endpoint::Endpoint(net::Channel& channel, const Clock& clock,
                   Handlers handlers)
    : Endpoint(channel, clock, std::move(handlers), Options{}) {}

Endpoint::Endpoint(net::Channel& channel, const Clock& clock,
                   Handlers handlers, Options options)
    : channel_(channel), clock_(clock), handlers_(std::move(handlers)),
      last_heard_(clock.now()), epoch_(next_epoch(clock)),
      backoff_(options.reconnect, options.seed) {
  // Weak liveness guard: the channel outlives this endpoint, and a late
  // event (a frame in flight, a sever after the owning node failed) must
  // not call into a destroyed endpoint.
  channel_.set_message_handler(
      [this, alive = std::weak_ptr<bool>(alive_)](std::vector<std::byte> f) {
        if (alive.expired()) return;
        on_frame(std::move(f));
      });
  channel_.set_disconnect_handler([this, alive = std::weak_ptr<bool>(alive_)] {
    if (alive.expired()) return;
    if (handlers_.on_disconnect) handlers_.on_disconnect();
  });
}

Status Endpoint::send(const Message& m) {
  // One encode buffer for the endpoint's lifetime: it grows to the peak
  // frame size once, after which encoding is allocation-free up to the
  // exact-size copy the channel takes ownership of.
  encode_buf_.clear();
  encode_framed_into(epoch_, next_frame_seq_++, m, encode_buf_);
  const auto view = encode_buf_.view();
  Status s = channel_.send(std::vector<std::byte>(view.begin(), view.end()));
  if (s) {
    ++stats_.frames_sent;
  } else {
    ++stats_.send_failures;
    epm().send_failures.inc();
  }
  return s;
}

void Endpoint::poll(TimePoint now) {
  if (channel_.connected()) {
    if (reconnecting_) {
      reconnecting_ = false;
      backoff_.reset();
      ++stats_.reconnects;
      epm().reconnects.inc();
      if (handlers_.on_reconnected) handlers_.on_reconnected();
    }
    return;
  }
  if (!reconnecting_) {
    reconnecting_ = true;
    next_attempt_ = now + backoff_.next();
    return;
  }
  if (now < next_attempt_) return;
  ++stats_.reconnect_attempts;
  epm().reconnect_attempts.inc();
  if (connector_ && connector_()) {
    reconnecting_ = false;
    backoff_.reset();
    ++stats_.reconnects;
    epm().reconnects.inc();
    if (handlers_.on_reconnected) handlers_.on_reconnected();
    return;
  }
  next_attempt_ = now + backoff_.next();
}

bool Endpoint::accept_frame(std::uint64_t epoch, std::uint64_t seq) {
  if (epoch < peer_epoch_) {
    ++stats_.stale_suppressed;
    epm().stale.inc();
    return false;
  }
  if (epoch > peer_epoch_) {
    // The peer rebuilt its endpoint (role transition / recovery): start a
    // fresh window.
    peer_epoch_ = epoch;
    window_highest_ = seq;
    window_mask_ = 1;
    return true;
  }
  if (seq > window_highest_) {
    const std::uint64_t shift = seq - window_highest_;
    window_mask_ = shift >= kWindowBits ? 0 : window_mask_ << shift;
    window_mask_ |= 1;
    window_highest_ = seq;
    return true;
  }
  const std::uint64_t behind = window_highest_ - seq;
  if (behind >= kWindowBits) {
    ++stats_.stale_suppressed;
    epm().stale.inc();
    return false;
  }
  const std::uint64_t bit = 1ULL << behind;
  if (window_mask_ & bit) {
    ++stats_.duplicates_suppressed;
    epm().duplicates.inc();
    return false;
  }
  window_mask_ |= bit;
  return true;
}

void Endpoint::on_frame(std::vector<std::byte> frame) {
  auto decoded = decode_framed(frame);
  if (!decoded.is_ok()) {
    ++stats_.corrupt_rejected;
    epm().corrupt.inc();
    RODAIN_WARN("replication frame rejected: %s",
                decoded.status().to_string().c_str());
    if (handlers_.on_protocol_error) {
      handlers_.on_protocol_error(decoded.status());
    }
    return;
  }
  Frame f = std::move(decoded).value();
  if (!accept_frame(f.epoch, f.frame_seq)) return;
  ++stats_.frames_received;
  last_heard_ = clock_.now();
  Message m = std::move(f.msg);
  switch (m.type) {
    case MsgType::kLogBatch:
      if (handlers_.on_log_batch) handlers_.on_log_batch(std::move(m.records));
      break;
    case MsgType::kCommitAck:
      if (handlers_.on_commit_ack) handlers_.on_commit_ack(m.seq);
      break;
    case MsgType::kHeartbeat:
      if (handlers_.on_heartbeat) handlers_.on_heartbeat(m.role, m.seq);
      break;
    case MsgType::kJoinRequest:
      if (handlers_.on_join_request) handlers_.on_join_request(m.have);
      break;
    case MsgType::kSnapshotChunk:
      if (handlers_.on_snapshot_chunk) {
        handlers_.on_snapshot_chunk(m.snapshot_id, m.chunk_index,
                                    m.chunk_total, std::move(m.blob));
      }
      break;
    case MsgType::kSnapshotDone:
      if (handlers_.on_snapshot_done) {
        handlers_.on_snapshot_done(m.seq, m.snapshot_id);
      }
      break;
    case MsgType::kChunkRetry:
      if (handlers_.on_chunk_retry) {
        handlers_.on_chunk_retry(m.snapshot_id, std::move(m.missing));
      }
      break;
    case MsgType::kSnapshotInstalled:
      if (handlers_.on_snapshot_installed) {
        handlers_.on_snapshot_installed(m.snapshot_id);
      }
      break;
    case MsgType::kJoinComplete:
      if (handlers_.on_join_complete) {
        handlers_.on_join_complete(m.snapshot_id, m.seq);
      }
      break;
  }
}

}  // namespace rodain::repl
