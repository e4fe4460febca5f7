#include "rodain/repl/mirror.hpp"

#include <algorithm>

#include "rodain/common/diag.hpp"
#include "rodain/obs/obs.hpp"
#include "rodain/storage/fuzzy_checkpoint.hpp"

namespace rodain::repl {

namespace {
struct MirrorMetrics {
  obs::Counter& records_received =
      obs::metrics().counter("mirror.records_received");
  obs::Counter& acks_sent = obs::metrics().counter("mirror.acks_sent");
  obs::Counter& ack_commits_covered =
      obs::metrics().counter("mirror.ack_commits_covered");
  obs::Counter& txns_applied = obs::metrics().counter("mirror.txns_applied");
  obs::Counter& writes_applied =
      obs::metrics().counter("mirror.writes_applied");
  obs::Counter& stale_duplicates =
      obs::metrics().counter("mirror.stale_duplicates");
  obs::Counter& duplicate_chunks =
      obs::metrics().counter("mirror.duplicate_chunks");
  obs::Counter& chunk_retries =
      obs::metrics().counter("mirror.chunk_retries_sent");
  obs::Counter& join_retries = obs::metrics().counter("mirror.join_retries");
  obs::Counter& rejoins_after_abandon =
      obs::metrics().counter("mirror.rejoins_after_abandon");
  /// Reorder-queue depths: commit-complete transactions waiting for an
  /// earlier seq, and transactions with buffered writes but no commit yet.
  obs::Gauge& reorder_staged = obs::metrics().gauge("mirror.reorder.staged");
  obs::Gauge& reorder_open = obs::metrics().gauge("mirror.reorder.open");
  obs::Gauge& applied_seq = obs::metrics().gauge("mirror.applied_seq");
  /// Quarantined transactions (write-count mismatch / invalid release set).
  obs::Counter& corrupt_txns = obs::metrics().counter("repl.corrupt_txns");
  /// Stored-log flush failures (first one marks the disk log non-dense).
  obs::Counter& disk_write_failures =
      obs::metrics().counter("repl.disk_write_failures");
  /// Epochs applied (DESIGN.md §14), and the release backlog at the last
  /// one: staged commits still waiting behind a gap when it applied.
  obs::Counter& apply_epochs = obs::metrics().counter("repl.apply.epochs");
  obs::Gauge& apply_lag = obs::metrics().gauge("repl.apply.lag");
};
MirrorMetrics& mm() {
  static MirrorMetrics m;
  return m;
}
}  // namespace

MirrorService::MirrorService(storage::ObjectStore& copy, log::LogStorage* disk,
                             net::Channel& channel, const Clock& clock,
                             Options options, storage::BPlusTree* index)
    : store_(copy),
      disk_(disk),
      index_(index),
      options_(options),
      clock_(clock),
      endpoint_(channel, clock,
                Endpoint::Handlers{
                    .on_log_batch =
                        [this](std::vector<log::Record> r) {
                          on_log_batch(std::move(r));
                        },
                    .on_commit_ack = {},
                    .on_heartbeat =
                        [this](NodeRole role, ValidationTs applied) {
                          on_heartbeat(role, applied);
                        },
                    .on_join_request = {},
                    .on_snapshot_chunk =
                        [this](std::uint64_t id, std::uint32_t i,
                               std::uint32_t n, std::vector<std::byte> b) {
                          on_snapshot_chunk(id, i, n, std::move(b));
                        },
                    .on_snapshot_done =
                        [this](ValidationTs boundary, std::uint64_t id) {
                          on_snapshot_done(boundary, id);
                        },
                    .on_chunk_retry = {},
                    .on_snapshot_installed = {},
                    .on_join_complete =
                        [this](std::uint64_t id, ValidationTs through) {
                          on_join_complete(id, through);
                        },
                    .on_disconnect = {},
                    .on_reconnected = {},
                    .on_protocol_error = {},
                }),
      reorderer_([this](std::vector<log::ReleasedTxn> epoch) {
        release_epoch(std::move(epoch));
      }) {
  serving_last_heard_ = clock_.now();
  if (options_.write_checkpoint && options_.checkpoint_interval.is_positive()) {
    log::Checkpointer::Options ckpt;
    ckpt.interval = options_.checkpoint_interval;
    // applied_seq_ is the mirror's consistent boundary: every transaction
    // at or below it is fully installed in the copy, in validation order.
    ckpt.boundary = [this] { return applied_seq_; };
    ckpt.write = options_.write_checkpoint;
    ckpt.log = options_.store_to_disk ? disk_ : nullptr;
    ckpt_.configure(std::move(ckpt));
  }
}

void MirrorService::attach_synced(ValidationTs expected_next) {
  reorderer_.set_expected_next(expected_next);
  applied_seq_ = expected_next == 0 ? 0 : expected_next - 1;
  awaiting_snapshot_ = false;
  installed_id_ = 0;
  join_through_.reset();
  synced_at_ = clock_.now();
}

void MirrorService::reset_assembly() {
  snapshot_id_ = 0;
  chunk_total_ = 0;
  chunks_.clear();
  chunks_received_ = 0;
}

void MirrorService::request_join(ValidationTs have) {
  if (obs::tracing_enabled()) {
    obs::tracer().record_instant(obs::Phase::kRejoin, have);
  }
  awaiting_snapshot_ = true;
  installed_id_ = 0;
  join_through_.reset();
  join_have_ = have;
  // Floor for acceptable serves: ids embed the shared clock (us << 16), so
  // every serve created before this join request compares smaller, and the
  // serve answering it compares greater. Without the floor a stale serve's
  // late chunks could restart assembly after reset_assembly() zeroes
  // snapshot_id_ and install an old boundary — silently missing commits
  // that exist only in the serve answering this join (e.g. ones the
  // primary disk-committed while alone and never shipped live).
  min_snapshot_id_ =
      std::max({min_snapshot_id_, snapshot_id_,
                static_cast<std::uint64_t>(clock_.now().us) << 16});
  reset_assembly();
  // Hold the reorderer: live deliveries keep staging in seq order but
  // nothing applies to the store the snapshot is about to replace. Staged
  // transactions survive join retries — dropping them would lose delivered
  // commits if a retry races with the previous serve (that serve's late
  // chunks can resurrect its assembly and install the OLDER boundary, and
  // only the staged run covers the commits in between). Stale entries are
  // cheap — set_expected_next purges what the snapshot covers.
  reorderer_.hold_releases();
  stalled_retries_ = 0;
  last_join_activity_ = clock_.now();
  if (!endpoint_.send(Message::join_request(have))) ++stats_.send_failures;
}

void MirrorService::send_heartbeat() {
  if (!endpoint_.send(Message::heartbeat(NodeRole::kMirror, applied_seq_))) {
    ++stats_.send_failures;
  }
}

void MirrorService::poll(TimePoint now) {
  endpoint_.poll(now);
  // Flush completions are asynchronous (the sim disk fires them on its own
  // timeline): fold any failures reported since the last apply into stats.
  check_disk_health();
  if (!join_in_progress() && ckpt_.enabled() && ckpt_.tick(now)) {
    stats_.checkpoints = ckpt_.stats().checkpoints;
    stats_.log_truncated = ckpt_.stats().truncated;
  }
  if (!join_in_progress()) return;
  if (now - last_join_activity_ <= options_.join_retry_timeout) return;
  // Retry only once the primary has spoken since the join last moved. A
  // silent primary is serving (a serve holds its frame handler, and on the
  // threaded runtime its commit mutex, so even its heartbeats wait) or is
  // gone; a retry would only queue another serve behind the one running.
  if (endpoint_.last_heard() <= last_join_activity_) return;
  // The join stalled: the request, some chunks, the done marker, the
  // install report or its answer were lost. With a partial assembly, ask
  // for exactly the missing chunks; once installed, report again;
  // otherwise start over.
  ++stats_.join_retries;
  mm().join_retries.inc();
  last_join_activity_ = now;
  if (++stalled_retries_ > kMaxChunkRetries) {
    // Repeated retries went nowhere (e.g. the primary rebuilt and no longer
    // caches this serve or knows this join): start the join over.
    RODAIN_WARN("mirror: %u stalled retries, restarting the join",
                stalled_retries_);
    request_join(join_have_);
    return;
  }
  if (installed_id_ != 0) {
    RODAIN_INFO("mirror: no switch for installed serve %llu, reporting again",
                static_cast<unsigned long long>(installed_id_));
    send_install_report();
    return;
  }
  if (snapshot_id_ != 0 && chunks_received_ > 0) {
    ++stats_.chunk_retries_sent;
    mm().chunk_retries.inc();
    RODAIN_INFO("mirror: join stalled, re-requesting %zu missing chunks",
                static_cast<std::size_t>(chunk_total_) - chunks_received_);
    if (!endpoint_.send(Message::chunk_retry(snapshot_id_, missing_chunks()))) {
      ++stats_.send_failures;
    }
  } else {
    RODAIN_INFO("mirror: join stalled with no snapshot progress, re-joining");
    if (!endpoint_.send(Message::join_request(join_have_))) {
      ++stats_.send_failures;
    }
  }
}

void MirrorService::on_heartbeat(NodeRole role, ValidationTs applied) {
  (void)applied;
  if (role == NodeRole::kPrimaryAlone || role == NodeRole::kPrimaryWithMirror) {
    serving_last_heard_ = clock_.now();
  }
  // A joiner ignores kPrimaryAlone: the primary serves alone until the
  // switch of our own join.
  if (role != NodeRole::kPrimaryAlone || join_in_progress()) return;
  // The primary serves alone while we believe we are its synced mirror: it
  // falsely declared us lost (ack timeout / watchdog during a link flap)
  // and our copy is diverging. Rejoin from what we have. Freshly synced
  // mirrors ignore stale kPrimaryAlone heartbeats still in flight.
  if (clock_.now() - synced_at_ <= options_.abandon_grace) return;
  ++stats_.rejoins_after_abandon;
  mm().rejoins_after_abandon.inc();
  RODAIN_WARN("mirror: primary abandoned us (serving alone), rejoining from "
              "seq %llu",
              static_cast<unsigned long long>(applied_seq_));
  if (options_.on_abandoned) options_.on_abandoned();
  request_join(applied_seq_);
}

void MirrorService::on_log_batch(std::vector<log::Record> records) {
  serving_last_heard_ = clock_.now();  // only a serving primary ships redo
  stats_.records_received += records.size();
  mm().records_received.inc(records.size());
  std::size_t commits = 0;
  for (const log::Record& r : records) {
    if (r.is_commit()) {
      ++commits;
      RODAIN_DEBUG("mirror: recv commit seq %llu awaiting=%d",
                   static_cast<unsigned long long>(r.seq),
                   awaiting_snapshot_ ? 1 : 0);
    }
  }
  if (awaiting_snapshot_) {
    // No acks while joining: the floor is unknowable until the snapshot
    // installs; the post-install cumulative ack covers everything staged.
    // Records feed the *held* reorderer directly (request_join called
    // hold_releases), so duplicate detection runs on arrival and nothing
    // applies until set_expected_next moves the floor to the boundary.
    ++stats_.held_batches;
    held_commits_ += commits;
    reorderer_.begin_batch();
    for (log::Record& r : records) feed(std::move(r));
    return;
  }
  // "When the Mirror Node receives a commit record, it immediately sends
  // an acknowledgment back" (paper §3) — before reordering to disk, but
  // coalesced: one cumulative ack answers every commit in the batch. Sent
  // even when every commit was a stale duplicate (a re-ship after
  // reconnect means the primary may have lost the original ack).
  reorderer_.begin_batch();
  for (log::Record& r : records) feed(std::move(r));
  // The whole contiguous run this batch unlocked applies as ONE epoch
  // before the ack goes out, so the floor in the ack only ever names a
  // fully-installed prefix.
  reorderer_.flush_epoch();
  if (commits > 0) send_cumulative_ack(commits);
  maybe_finish_join();  // the switch's catch-up may complete the join
}

void MirrorService::send_cumulative_ack(std::size_t commits_covered) {
  const ValidationTs floor = reorderer_.received_commit_floor();
  // A floor of 0 means no contiguous prefix yet (e.g. the stream's first
  // batch was lost): nothing to ack — the primary's ack timeout or the
  // reconnect resend recovers.
  if (floor == 0) return;
  if (!endpoint_.send(Message::commit_ack(floor))) {
    ++stats_.send_failures;
    return;
  }
  ++stats_.acks_sent;
  stats_.ack_commits_covered += commits_covered;
  mm().acks_sent.inc();
  mm().ack_commits_covered.inc(commits_covered);
}

void MirrorService::feed(log::Record r) {
  const bool was_commit = r.is_commit();
  const std::size_t staged_before = reorderer_.staged_commits();
  // Releases are deferred into the reorderer's epoch buffer (applied when
  // the batch flushes), so "released" is detected by the expected-next
  // floor moving — not by applied_seq_, which only advances once the epoch
  // has applied.
  const ValidationTs expected_before = reorderer_.expected_next();
  {
    obs::ScopedSpan span(obs::tracer(), obs::Phase::kReorder, r.seq);
    if (Status s = reorderer_.add(std::move(r)); !s) {
      if (s.code() == ErrorCode::kCorruption) {
        // Quarantine, don't poison the batch: the victim's buffered writes
        // were consumed, its seq stays un-staged, and the stalled commit
        // floor makes the primary's resend re-deliver it intact. The rest
        // of the wire frame still stages normally.
        ++stats_.corrupt_txns;
        mm().corrupt_txns.inc();
      }
      RODAIN_ERROR("mirror reorderer: %s", s.to_string().c_str());
      return;
    }
  }
  mm().reorder_staged.set(static_cast<double>(reorderer_.staged_commits()));
  mm().reorder_open.set(static_cast<double>(reorderer_.open_txns()));
  if (was_commit && reorderer_.staged_commits() == staged_before &&
      reorderer_.expected_next() == expected_before) {
    // Commit neither staged nor released: stale duplicate.
    ++stats_.stale_duplicates;
    mm().stale_duplicates.inc();
  }
}

void MirrorService::apply_txn(const log::ReleasedTxn& txn) {
  obs::ScopedSpan span(obs::tracer(), obs::Phase::kApply, txn.seq);
  // The commit record is last (the reorderer validated that); its
  // serialization timestamp stamps the writes (keeps the copy's OCC
  // metadata usable after takeover).
  const ValidationTs serial_ts = txn.records.back().serial_ts;
  for (const log::Record& r : txn.records) {
    switch (r.type) {
      case log::RecordType::kWriteImage:
        store_.upsert(r.oid, r.after, serial_ts);
        if (r.has_key && index_) {
          if (!index_->insert(r.key, r.oid)) index_->update(r.key, r.oid);
        }
        break;
      case log::RecordType::kDelete:
        store_.tombstone(r.oid, serial_ts);
        if (r.has_key && index_) index_->erase(r.key);
        break;
      case log::RecordType::kCommit:
        break;
    }
  }
}

void MirrorService::release_epoch(std::vector<log::ReleasedTxn> epoch) {
  if (epoch.empty()) return;
  // The reorderer already rejected empty / commit-less sets; a defensive
  // re-check here keeps a fabricated serial_ts of 0 out of the store even
  // if a future caller hands epochs in by another path.
  std::erase_if(epoch, [this](const log::ReleasedTxn& t) {
    if (log::Reorderer::valid_release_set(t.records)) return false;
    ++stats_.corrupt_txns;
    mm().corrupt_txns.inc();
    return true;
  });
  if (epoch.empty()) return;
  if (obs::tracing_enabled()) {
    obs::tracer().record_instant(obs::Phase::kApplyEpoch, epoch.back().seq);
  }
  std::uint64_t writes = 0;
  for (const log::ReleasedTxn& t : epoch) {
    apply_txn(t);
    writes += t.records.size() - 1;  // all but the commit record
  }
  applied_seq_ = epoch.back().seq;
  stats_.txns_applied += epoch.size();
  stats_.writes_applied += writes;
  mm().txns_applied.inc(epoch.size());
  mm().writes_applied.inc(writes);
  mm().applied_seq.set(static_cast<double>(applied_seq_));
  mm().apply_epochs.inc();
  mm().apply_lag.set(static_cast<double>(reorderer_.staged_commits()));
  if (options_.store_to_disk && disk_) {
    // Appended in seq order: recovery and disk-served rejoins read one
    // totally ordered stream.
    for (const log::ReleasedTxn& t : epoch) {
      for (const log::Record& r : t.records) disk_->append(r);
    }
    // Asynchronous, off the commit path; SimDiskLogStorage coalesces
    // concurrent requests into group flushes. The completion can fire after
    // this service is torn down (takeover), so it only touches the shared
    // health block — poll()/take_over() fold failures into stats.
    disk_->flush([health = disk_health_](Status s) {
      if (!s) health->failures.fetch_add(1, std::memory_order_relaxed);
    });
    check_disk_health();
  }
}

void MirrorService::check_disk_health() {
  const std::uint64_t failures =
      disk_health_->failures.load(std::memory_order_relaxed);
  if (failures == disk_failures_seen_) return;
  const std::uint64_t fresh = failures - disk_failures_seen_;
  disk_failures_seen_ = failures;
  stats_.disk_write_failures += fresh;
  mm().disk_write_failures.inc(fresh);
  if (disk_dense_) {
    disk_dense_ = false;
    RODAIN_ERROR("mirror: stored-log flush failed (%llu total) — disk log "
                 "marked non-dense; rejoins must be served by live encode",
                 static_cast<unsigned long long>(failures));
  }
}

std::vector<std::uint32_t> MirrorService::missing_chunks() const {
  std::vector<std::uint32_t> missing;
  for (std::uint32_t i = 0; i < chunk_total_; ++i) {
    if (!chunks_[i]) missing.push_back(i);
  }
  return missing;
}

void MirrorService::on_snapshot_chunk(std::uint64_t snapshot_id,
                                      std::uint32_t index,
                                      std::uint32_t total,
                                      std::vector<std::byte> blob) {
  serving_last_heard_ = clock_.now();  // only a serving node answers joins
  if (!awaiting_snapshot_) return;
  if (snapshot_id <= min_snapshot_id_ || snapshot_id < snapshot_id_) {
    // Chunk of a serve older than our latest join request (or than the
    // assembly in progress): never let a stale serve clobber or — worse —
    // install; its boundary predates what the current serve covers.
    ++stats_.duplicate_chunks;
    mm().duplicate_chunks.inc();
    return;
  }
  if (snapshot_id > snapshot_id_) {
    // First chunk of a newer serve: restart assembly under its id.
    reset_assembly();
    snapshot_id_ = snapshot_id;
    chunk_total_ = total;
    chunks_.assign(total, std::nullopt);
  }
  if (total != chunk_total_ || index >= chunk_total_) {
    RODAIN_WARN("mirror: inconsistent snapshot chunk (%u/%u), re-joining",
                index, total);
    request_join(join_have_);
    return;
  }
  last_join_activity_ = clock_.now();
  if (chunks_[index]) {
    ++stats_.duplicate_chunks;
    mm().duplicate_chunks.inc();
    return;
  }
  chunks_[index] = std::move(blob);
  ++chunks_received_;
  ++stats_.snapshot_chunks;
  stalled_retries_ = 0;
}

void MirrorService::on_snapshot_done(ValidationTs boundary,
                                     std::uint64_t snapshot_id) {
  serving_last_heard_ = clock_.now();
  if (!awaiting_snapshot_) return;
  if (snapshot_id <= min_snapshot_id_) {
    return;  // done marker of a serve older than our latest join request
  }
  last_join_activity_ = clock_.now();
  if (snapshot_id < snapshot_id_ && snapshot_id_ != 0) {
    return;  // done marker of an abandoned serve; a newer one is assembling
  }
  if (snapshot_id != snapshot_id_) {
    // Done for a serve whose chunks we never saw (all lost): nothing to
    // assemble — fall back to a fresh join.
    ++stats_.join_retries;
    mm().join_retries.inc();
    request_join(join_have_);
    return;
  }
  if (chunks_received_ < chunk_total_) {
    // The done marker overtook (or outlived) some chunks: request exactly
    // the missing ones and stay in the joining state.
    ++stats_.chunk_retries_sent;
    mm().chunk_retries.inc();
    RODAIN_INFO("mirror: snapshot done but %zu chunks missing, re-requesting",
                static_cast<std::size_t>(chunk_total_) - chunks_received_);
    if (!endpoint_.send(Message::chunk_retry(snapshot_id_, missing_chunks()))) {
      ++stats_.send_failures;
    }
    return;
  }
  obs::ScopedSpan span(obs::tracer(), obs::Phase::kSnapshotInstall, boundary);
  std::vector<std::byte> bytes;
  for (auto& c : chunks_) {
    bytes.insert(bytes.end(), c->begin(), c->end());
  }
  reset_assembly();
  // A chain container either way: a one-base live encode, or the base and
  // deltas served straight off the primary's disk artifacts.
  auto meta = storage::decode_chain(bytes, store_, index_);
  if (!meta.is_ok()) {
    RODAIN_ERROR("snapshot decode failed: %s",
                 meta.status().to_string().c_str());
    // Retry the join from scratch.
    request_join(join_have_);
    return;
  }
  RODAIN_INFO("mirror: snapshot installed (%llu objects, boundary seq %llu)",
              static_cast<unsigned long long>(meta.value().object_count),
              static_cast<unsigned long long>(boundary));
  awaiting_snapshot_ = false;
  installed_id_ = snapshot_id;
  join_through_.reset();
  stalled_retries_ = 0;
  // The install itself can outlast the retry timeout; the report below
  // gets a full one.
  last_join_activity_ = clock_.now();
  // applied_seq_ first: set_expected_next stages the run above the boundary
  // into the epoch buffer (it also clears the hold, purges what the
  // snapshot covers, and discards pre-floor releases), and the flush below
  // applies it — advancing applied_seq_; assigning afterwards would roll
  // it back.
  applied_seq_ = boundary;
  const std::size_t held = held_commits_;
  held_commits_ = 0;
  reorderer_.set_expected_next(boundary + 1);
  reorderer_.flush_epoch();
  mm().reorder_staged.set(static_cast<double>(reorderer_.staged_commits()));
  mm().reorder_open.set(static_cast<double>(reorderer_.open_txns()));
  // The join sent no acks (the floor was unknown): one cumulative ack now
  // covers the snapshot boundary and the run staged while it assembled.
  send_cumulative_ack(held);
  // Our half of phase 1 is done. The primary answers the report by
  // shipping what it committed since the serve and switching to mirror
  // mode; kJoinComplete then says how far that stream goes.
  send_install_report();
}

void MirrorService::send_install_report() {
  if (!endpoint_.send(Message::snapshot_installed(installed_id_))) {
    ++stats_.send_failures;
  }
}

void MirrorService::on_join_complete(std::uint64_t snapshot_id,
                                     ValidationTs through) {
  serving_last_heard_ = clock_.now();  // only a serving node completes joins
  if (installed_id_ == 0 || snapshot_id != installed_id_) return;  // stale
  // No reset of stalled_retries_: a repeated answer whose catch-up never
  // arrives must still run the retries out and restart the join.
  join_through_ = through;
  last_join_activity_ = clock_.now();
  maybe_finish_join();
}

void MirrorService::maybe_finish_join() {
  if (!join_through_ || applied_seq_ < *join_through_) return;
  RODAIN_INFO("mirror: join %llu complete at applied seq %llu",
              static_cast<unsigned long long>(installed_id_),
              static_cast<unsigned long long>(applied_seq_));
  installed_id_ = 0;
  join_through_.reset();
  synced_at_ = clock_.now();
  if (options_.on_synced) options_.on_synced();
}

MirrorService::TakeoverResult MirrorService::take_over() {
  TakeoverResult result;
  result.dropped_open = reorderer_.drop_open_txns();
  result.applied_staged = reorderer_.force_release_staged();
  result.next_seq = reorderer_.expected_next();
  // The forced releases went into the epoch buffer: apply them before the
  // node starts serving from this copy.
  reorderer_.flush_epoch();
  mm().reorder_staged.set(0.0);
  mm().reorder_open.set(0.0);
  if (obs::tracing_enabled()) {
    obs::tracer().record_instant(obs::Phase::kMirrorTakeover, result.next_seq);
  }
  if (disk_) {
    disk_->flush([health = disk_health_](Status s) {
      if (!s) health->failures.fetch_add(1, std::memory_order_relaxed);
    });
    check_disk_health();
  }
  RODAIN_INFO("mirror takeover: %zu staged applied, %zu open txns dropped, "
              "continuing at seq %llu",
              result.applied_staged, result.dropped_open,
              static_cast<unsigned long long>(result.next_seq));
  return result;
}

}  // namespace rodain::repl
