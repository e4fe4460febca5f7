#include "rodain/repl/primary.hpp"

#include <algorithm>
#include <atomic>

#include "rodain/common/diag.hpp"
#include "rodain/obs/obs.hpp"
#include "rodain/storage/fuzzy_checkpoint.hpp"

namespace rodain::repl {

namespace {
struct PrimaryMetrics {
  obs::Counter& batches_shipped =
      obs::metrics().counter("repl.batches_shipped");
  obs::Counter& heartbeats_sent =
      obs::metrics().counter("repl.heartbeats_sent");
  obs::Counter& snapshots_served =
      obs::metrics().counter("repl.snapshots_served");
  obs::Counter& snapshots_from_disk =
      obs::metrics().counter("repl.snapshots_from_disk");
  obs::Counter& chunks_resent =
      obs::metrics().counter("repl.snapshot_chunks_resent");
  obs::Gauge& mirror_applied_seq =
      obs::metrics().gauge("repl.mirror_applied_seq");
  /// How long a serve holds the frame handler (the commit path stalls for
  /// it), and the transactions shipped at the switch of a two-phase join.
  obs::Timer& join_serve = obs::metrics().timer("repl.join_serve_us");
  obs::Counter& join_catchup_txns =
      obs::metrics().counter("repl.join_catchup_txns");
};
PrimaryMetrics& pm() {
  static PrimaryMetrics m;
  return m;
}

/// Catch-up batches cut at commit boundaries at roughly this many records.
constexpr std::size_t kCatchUpBatchRecords = 256;

/// Snapshot-serve ids must be monotone across replicator rebuilds so the
/// joiner can order serves (clock microseconds high, process counter low —
/// same scheme as endpoint epochs).
std::uint64_t next_snapshot_id(const Clock& clock) {
  static std::atomic<std::uint64_t> counter{1};
  const auto us = static_cast<std::uint64_t>(clock.now().us);
  return (us << 16) |
         (counter.fetch_add(1, std::memory_order_relaxed) & 0xffffULL);
}
}  // namespace

PrimaryReplicator::PrimaryReplicator(net::Channel& channel, const Clock& clock,
                                     storage::ObjectStore& store,
                                     log::LogWriter& writer, Hooks hooks)
    : PrimaryReplicator(channel, clock, store, writer, std::move(hooks),
                        Options{}) {}

PrimaryReplicator::PrimaryReplicator(net::Channel& channel, const Clock& clock,
                                     storage::ObjectStore& store,
                                     log::LogWriter& writer, Hooks hooks,
                                     Options options)
    : endpoint_(channel, clock,
                Endpoint::Handlers{
                    .on_log_batch = {},
                    .on_commit_ack =
                        [this](ValidationTs seq) {
                          // Cumulative: releases every pending txn <= seq.
                          writer_.on_mirror_ack(seq);
                        },
                    .on_heartbeat =
                        [this](NodeRole role, ValidationTs applied) {
                          if (role == NodeRole::kPrimaryAlone ||
                              role == NodeRole::kPrimaryWithMirror) {
                            // The peer also believes it is serving: split
                            // brain. Its `applied` is a commit height, not
                            // a mirror-applied seq — don't mix the two.
                            if (hooks_.on_peer_primary) {
                              hooks_.on_peer_primary(applied);
                            }
                            return;
                          }
                          mirror_applied_ = std::max(mirror_applied_, applied);
                          pm().mirror_applied_seq.set(
                              static_cast<double>(mirror_applied_));
                        },
                    .on_join_request =
                        [this](ValidationTs have) { on_join_request(have); },
                    .on_snapshot_chunk = {},
                    .on_snapshot_done = {},
                    .on_chunk_retry =
                        [this](std::uint64_t id,
                               std::vector<std::uint32_t> missing) {
                          on_chunk_retry(id, missing);
                        },
                    .on_snapshot_installed =
                        [this](std::uint64_t id) { on_snapshot_installed(id); },
                    .on_join_complete = {},
                    .on_disconnect =
                        [this] {
                          // The joiner is gone with the link; a rejoin
                          // starts with a fresh request and a new serve.
                          drop_pending_serves();
                          last_snapshot_.reset();
                          if (hooks_.on_disconnect) hooks_.on_disconnect();
                        },
                    .on_reconnected =
                        [this] {
                          // The stream restarted: anything unacked may have
                          // been lost in flight — ship it again (the mirror
                          // drops what it already applied as stale).
                          writer_.resend_pending();
                        },
                    .on_protocol_error = {},
                }),
      clock_(clock),
      store_(store),
      writer_(writer),
      hooks_(std::move(hooks)),
      options_(options) {}

Status PrimaryReplicator::send_counted(const Message& m) {
  Status s = endpoint_.send(m);
  if (!s) {
    if (++send_failures_ == 1 || endpoint_.connected()) {
      RODAIN_WARN("primary: replication send failed: %s",
                  s.to_string().c_str());
    }
  }
  return s;
}

void PrimaryReplicator::ship(std::span<const log::Record> records) {
  pm().batches_shipped.inc();
  (void)send_counted(Message::log_batch(
      std::vector<log::Record>(records.begin(), records.end())));
  // A failed ship is not fatal: either the disconnect handler or the
  // writer's ack timeout escalates, or a reconnect re-ships the pending set.
}

void PrimaryReplicator::send_heartbeat(NodeRole role, ValidationTs height) {
  pm().heartbeats_sent.inc();
  (void)send_counted(Message::heartbeat(role, height));
}

void PrimaryReplicator::poll(TimePoint now) { endpoint_.poll(now); }

Status PrimaryReplicator::send_chunk(std::uint32_t index) {
  const CachedSnapshot& snap = *last_snapshot_;
  const std::size_t chunk = options_.snapshot_chunk_bytes;
  const std::size_t begin = static_cast<std::size_t>(index) * chunk;
  const std::size_t len = std::min(chunk, snap.bytes.size() - begin);
  return send_counted(Message::snapshot_chunk(
      snap.id, index, snap.chunk_total,
      std::vector<std::byte>(
          snap.bytes.begin() + static_cast<std::ptrdiff_t>(begin),
          snap.bytes.begin() + static_cast<std::ptrdiff_t>(begin + len))));
}

std::size_t PrimaryReplicator::ship_catch_up(std::vector<log::Record> records) {
  // Slices are cut at commit boundaries: a transaction's records never span
  // batches (Shipper contract the reorderer relies on).
  std::size_t txns = 0;
  std::vector<log::Record> batch;
  batch.reserve(std::min<std::size_t>(records.size(), kCatchUpBatchRecords));
  for (log::Record& r : records) {
    const bool commit = r.is_commit();
    txns += commit ? 1 : 0;
    batch.push_back(std::move(r));
    if (commit && batch.size() >= kCatchUpBatchRecords) {
      (void)send_counted(Message::log_batch(std::move(batch)));
      batch.clear();
    }
  }
  if (!batch.empty()) (void)send_counted(Message::log_batch(std::move(batch)));
  return txns;
}

void PrimaryReplicator::drop_pending_serves() {
  if (pending_serves_.empty()) return;
  pending_serves_.clear();
  writer_.unpin_tail();
}

void PrimaryReplicator::on_join_request(ValidationTs have) {
  (void)have;  // a full snapshot is always shipped; `have` is advisory
  // A node that asks to join is no longer a mirror.
  if (hooks_.on_join_started) hooks_.on_join_started();
  switched_serve_ = 0;
  obs::ScopedTimer serve_timer(pm().join_serve);
  ValidationTs boundary =
      hooks_.snapshot_boundary ? hooks_.snapshot_boundary() : 0;

  // Prefer the on-disk artifacts (checkpoint + stored log) when the node
  // can vouch they densely cover up to the boundary; otherwise encode a
  // consistent snapshot of the live copy.
  std::vector<std::byte> bytes;
  std::vector<log::Record> tail;
  bool from_disk = false;
  if (hooks_.join_artifacts) {
    if (auto artifacts = hooks_.join_artifacts()) {
      boundary = artifacts->boundary;
      bytes = std::move(artifacts->checkpoint_bytes);
      tail = std::move(artifacts->catch_up);
      from_disk = true;
      pm().snapshots_from_disk.inc();
    }
  }
  if (!from_disk) {
    bytes = storage::encode_live_chain(store_, index_, boundary);
    // Catch-up: committed transactions past the boundary that the writer
    // already logged (the joiner drops any overlap as stale).
    tail = writer_.tail_since(boundary);
  }

  const std::size_t chunk = options_.snapshot_chunk_bytes;
  const auto total = static_cast<std::uint32_t>(
      std::max<std::size_t>(1, (bytes.size() + chunk - 1) / chunk));
  last_snapshot_ = CachedSnapshot{next_snapshot_id(clock_), boundary, total,
                                  std::move(bytes)};
  for (std::uint32_t i = 0; i < total; ++i) (void)send_chunk(i);

  // Phase 1 ends with the catch-up and the done marker. The writer keeps
  // its transient mode while the joiner installs; what commits meanwhile
  // stays in the writer's pinned tail and ships at the switch. `through` is
  // the dense prefix this serve covers: the boundary plus the consecutive
  // commits of the catch-up.
  ValidationTs through = boundary;
  for (const log::Record& r : tail) {
    if (r.is_commit() && r.seq == through + 1) through = r.seq;
  }
  (void)ship_catch_up(std::move(tail));
  (void)send_counted(Message::snapshot_done(boundary, last_snapshot_->id));
  if (pending_serves_.empty() || writer_.tail_pin() != pending_through_) {
    // No earlier serve is pending, or its pin hit the bound.
    pending_serves_.clear();
    pending_through_ = through;
  }
  pending_through_ = std::min(pending_through_, through);
  writer_.pin_tail(pending_through_);
  pending_serves_.push_back(last_snapshot_->id);
  if (pending_serves_.size() > kMaxPendingServes) {
    pending_serves_.erase(pending_serves_.begin());
  }
  ++snapshots_served_;
  pm().snapshots_served.inc();
  RODAIN_INFO(
      "primary: served snapshot %llu at boundary %llu (%zu bytes, %u chunks, "
      "%s)",
      static_cast<unsigned long long>(last_snapshot_->id),
      static_cast<unsigned long long>(boundary), last_snapshot_->bytes.size(),
      total, from_disk ? "from disk" : "live encode");
}

void PrimaryReplicator::on_snapshot_installed(std::uint64_t snapshot_id) {
  if (last_snapshot_ && last_snapshot_->id == snapshot_id) {
    // The joiner holds every chunk of this serve: no retry can need them.
    last_snapshot_.reset();
  }
  if (snapshot_id != 0 && snapshot_id == switched_serve_) {
    // The joiner missed our kJoinComplete: say it again.
    (void)send_counted(Message::join_complete(snapshot_id, switched_through_));
    return;
  }
  if (std::find(pending_serves_.begin(), pending_serves_.end(), snapshot_id) ==
      pending_serves_.end()) {
    RODAIN_WARN("primary: install report for unknown serve %llu ignored",
                static_cast<unsigned long long>(snapshot_id));
    return;
  }
  pending_serves_.clear();
  if (writer_.tail_pin() != pending_through_) {
    // The pin hit its bound, so the tail no longer holds everything
    // committed during the install. The joiner's report retries run out
    // and it starts the join over.
    RODAIN_WARN("primary: tail pin for serve %llu was dropped; join abandoned",
                static_cast<unsigned long long>(snapshot_id));
    return;
  }
  // Phase 2, the switch, in one critical section (the node runs every frame
  // handler under its commit mutex): ship what committed since the serve,
  // switch the writer, then tell the joiner how far the shipped stream goes.
  // Shipping from the oldest pending serve's seq may repeat transactions a
  // newer serve already covered; the joiner drops them as stale.
  std::vector<log::Record> since = writer_.tail_since(pending_through_);
  ValidationTs through = pending_through_;
  for (const log::Record& r : since) {
    if (r.is_commit()) through = std::max(through, r.seq);
  }
  const std::size_t txns = ship_catch_up(std::move(since));
  pm().join_catchup_txns.inc(txns);
  if (hooks_.on_mirror_joined) hooks_.on_mirror_joined();
  writer_.unpin_tail();
  switched_serve_ = snapshot_id;
  switched_through_ = through;
  (void)send_counted(Message::join_complete(snapshot_id, through));
  RODAIN_INFO("primary: join %llu complete through seq %llu (%zu txns shipped "
              "at the switch)",
              static_cast<unsigned long long>(snapshot_id),
              static_cast<unsigned long long>(through), txns);
}

void PrimaryReplicator::on_chunk_retry(
    std::uint64_t snapshot_id, const std::vector<std::uint32_t>& missing) {
  if (!last_snapshot_ || last_snapshot_->id != snapshot_id) {
    // The cached serve is gone (or the request is from an older serve);
    // the joiner's stalled-join poll will fall back to a fresh join.
    RODAIN_WARN("primary: chunk retry for unknown snapshot %llu ignored",
                static_cast<unsigned long long>(snapshot_id));
    return;
  }
  for (std::uint32_t index : missing) {
    if (index >= last_snapshot_->chunk_total) continue;
    if (send_chunk(index)) {
      ++snapshot_chunks_resent_;
      pm().chunks_resent.inc();
    }
  }
  // Re-finish the serve: the done marker may itself have been lost.
  (void)send_counted(
      Message::snapshot_done(last_snapshot_->boundary, last_snapshot_->id));
}

}  // namespace rodain::repl
