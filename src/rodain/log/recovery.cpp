#include "rodain/log/recovery.hpp"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <thread>
#include <unordered_map>

#include "rodain/log/log_storage.hpp"
#include "rodain/log/segment.hpp"
#include "rodain/obs/obs.hpp"
#include "rodain/storage/fuzzy_checkpoint.hpp"

namespace rodain::log {
namespace {

using SteadyClock = std::chrono::steady_clock;

double ms_since(SteadyClock::time_point start) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - start)
      .count();
}

/// Recovery-progress gauges: an operator watching /metrics during a restart
/// sees replay advance (replayed climbs toward total) instead of a blank
/// gap until the node serves again.
struct RecoveryProgress {
  obs::Gauge& segments_total = obs::metrics().gauge("recovery.segments_total");
  obs::Gauge& segments_replayed =
      obs::metrics().gauge("recovery.segments_replayed");
  obs::Gauge& txns_total = obs::metrics().gauge("recovery.txns_total");
  obs::Gauge& txns_replayed = obs::metrics().gauge("recovery.txns_replayed");
};
RecoveryProgress& progress() {
  static RecoveryProgress p;
  return p;
}

/// Load the checkpoint chain; returns its boundary (0 when there is none).
/// A chain that exists but does not load fails recovery, and leaves the
/// store as it was: the log alone cannot rebuild what the chain covers.
/// Truncation deleted that part of the log, and data loaded outside the
/// log (wts 0) was never in it. Such a node rejoins from its peer instead.
Result<ValidationTs> load_checkpoint(const std::string& checkpoint_path,
                                     storage::ObjectStore& store,
                                     storage::BPlusTree* index) {
  if (checkpoint_path.empty()) return ValidationTs{0};
  auto meta = storage::load_checkpoint_artifacts(checkpoint_path, store, index);
  if (meta.is_ok()) return meta.value().last_applied;
  if (meta.status().code() == ErrorCode::kNotFound) return ValidationTs{0};
  if (meta.status().code() == ErrorCode::kCorruption) {
    return Status::error(ErrorCode::kCorruption,
                         "checkpoint " + checkpoint_path + ": " +
                             meta.status().message());
  }
  return meta.status();  // a refused leftover file is never skipped
}

}  // namespace
}  // namespace rodain::log

namespace rodain::log {

Result<RecoveryStats> replay_records(std::span<const Record> records,
                                     storage::ObjectStore& store,
                                     ValidationTs already_applied,
                                     storage::BPlusTree* index) {
  RecoveryStats stats;
  stats.records_read = records.size();
  stats.last_seq = already_applied;

  // Single forward pass: writes buffer per transaction; a commit record
  // stages the transaction under its validation sequence.
  std::unordered_map<TxnId, std::vector<const Record*>> open;
  struct Committed {
    ValidationTs serial_ts;
    std::vector<const Record*> writes;
  };
  std::map<ValidationTs, Committed> committed;  // ordered by seq

  for (const Record& r : records) {
    if (r.type != RecordType::kCommit) {
      open[r.txn].push_back(&r);
      continue;
    }
    std::vector<const Record*> writes;
    if (auto it = open.find(r.txn); it != open.end()) {
      writes = std::move(it->second);
      open.erase(it);
    }
    if (writes.size() != r.write_count) {
      return Status::error(ErrorCode::kCorruption,
                           "recovery: commit write-count mismatch");
    }
    if (r.seq <= already_applied) continue;  // covered by the checkpoint
    committed.emplace(r.seq, Committed{r.serial_ts, std::move(writes)});
  }

  progress().txns_total.set(static_cast<double>(committed.size()));
  progress().txns_replayed.set(0.0);
  for (auto& [seq, c] : committed) {
    for (const Record* w : c.writes) {
      if (w->type == RecordType::kDelete) {
        store.tombstone(w->oid, c.serial_ts);
        if (w->has_key && index) index->erase(w->key);
      } else {
        store.upsert(w->oid, w->after, c.serial_ts);
        if (w->has_key && index) {
          if (!index->insert(w->key, w->oid)) index->update(w->key, w->oid);
        }
      }
      ++stats.writes_applied;
    }
    ++stats.committed_applied;
    stats.last_seq = seq;
    if ((stats.committed_applied & 0x3ff) == 0) {
      progress().txns_replayed.set(
          static_cast<double>(stats.committed_applied));
    }
  }
  progress().txns_replayed.set(static_cast<double>(stats.committed_applied));
  stats.incomplete_dropped = open.size();
  return stats;
}

Result<RecoveryStats> recover_from_buffer(std::span<const std::byte> data,
                                          storage::ObjectStore& store,
                                          ValidationTs already_applied,
                                          storage::BPlusTree* index) {
  bool torn = false;
  auto records = decode_records(data, &torn);
  if (!records.is_ok()) return records.status();
  auto stats = replay_records(records.value(), store, already_applied, index);
  if (stats.is_ok()) stats.value().torn_tail = torn;
  return stats;
}

Result<RecoveryStats> recover_from_file(const std::string& path,
                                        storage::ObjectStore& store,
                                        ValidationTs already_applied,
                                        storage::BPlusTree* index) {
  bool torn = false;
  auto records = FileLogStorage::read_all(path, &torn);
  if (!records.is_ok()) return records.status();
  auto stats = replay_records(records.value(), store, already_applied, index);
  if (stats.is_ok()) stats.value().torn_tail = torn;
  return stats;
}

Result<RecoveryStats> recover_checkpoint_and_log(
    const std::string& checkpoint_path, const std::string& log_path,
    storage::ObjectStore& store, storage::BPlusTree* index) {
  const auto t_total = SteadyClock::now();
  auto loaded = load_checkpoint(checkpoint_path, store, index);
  if (!loaded.is_ok()) return loaded.status();
  const ValidationTs boundary = loaded.value();

  auto stats = recover_from_file(log_path, store, boundary, index);
  if (!stats.is_ok()) {
    if (stats.status().code() == ErrorCode::kNotFound) {
      // Checkpoint-only recovery.
      RecoveryStats only;
      only.last_seq = boundary;
      return only;
    }
    return stats.status();
  }
  if (stats.value().last_seq < boundary) stats.value().last_seq = boundary;
  obs::metrics().gauge("log.recovery_replay_ms").set(ms_since(t_total));
  return stats;
}

namespace {

/// Shared front half of the segmented restart paths: load the checkpoint,
/// decode the surviving segments in
/// parallel, and concatenate the records. Fills the checkpoint/decode
/// fields of `stats` — including which segment supplied the oldest commit
/// the replay will have to reach back to — and returns the record stream
/// past the boundary (empty when no log survives).
Result<std::vector<Record>> load_and_decode_segments(
    const std::string& checkpoint_path, const std::string& log_dir,
    storage::ObjectStore& store, storage::BPlusTree* index,
    unsigned decode_threads, RecoveryStats& stats, ValidationTs& boundary) {
  auto segments = SegmentedLogStorage::list_segments(log_dir);
  if (!segments.is_ok() &&
      segments.status().code() != ErrorCode::kNotFound) {
    return segments.status();
  }
  const bool log_exists = segments.is_ok() && !segments.value().empty();

  const auto t_ckpt = SteadyClock::now();
  auto loaded = load_checkpoint(checkpoint_path, store, index);
  if (!loaded.is_ok()) return loaded.status();
  boundary = loaded.value();
  stats.checkpoint_load_ms = ms_since(t_ckpt);
  stats.last_seq = boundary;
  if (!log_exists) return std::vector<Record>{};

  // Truncation normally deleted segments below the boundary already; skip
  // any stragglers (a crash between checkpoint write and truncate).
  std::vector<SegmentedLogStorage::SegmentInfo> survivors;
  for (const auto& seg : segments.value()) {
    if (seg.last_seq != 0 && seg.last_seq <= boundary) {
      ++stats.segments_skipped;
    } else {
      survivors.push_back(seg);
    }
  }

  const auto t_decode = SteadyClock::now();
  progress().segments_total.set(static_cast<double>(survivors.size()));
  progress().segments_replayed.set(0.0);
  struct Decoded {
    Result<std::vector<Record>> records{std::vector<Record>{}};
    bool torn{false};
  };
  std::vector<Decoded> decoded(survivors.size());
  const auto decode_one = [&](std::size_t i) {
    decoded[i].records = SegmentedLogStorage::read_segment(
        survivors[i].path, nullptr, &decoded[i].torn);
    progress().segments_replayed.add(1.0);  // Gauge::add is a CAS loop
  };
  const unsigned workers = std::min<unsigned>(
      std::max(1u, decode_threads), static_cast<unsigned>(survivors.size()));
  if (workers <= 1) {
    for (std::size_t i = 0; i < survivors.size(); ++i) decode_one(i);
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1); i < survivors.size();
             i = next.fetch_add(1)) {
          decode_one(i);
        }
      });
    }
    for (auto& t : pool) t.join();
  }

  std::vector<Record> all;
  for (std::size_t i = 0; i < survivors.size(); ++i) {
    if (!decoded[i].records.is_ok()) return decoded[i].records.status();
    if (decoded[i].torn) {
      if (survivors[i].last_seq != 0) {
        return Status::error(
            ErrorCode::kCorruption,
            "torn tail in sealed segment " + survivors[i].path);
      }
      stats.torn_tail = true;
    }
    stats.log_disk_bytes += survivors[i].bytes;
    // Attribute the oldest seq the replay reaches back to: the smallest
    // commit past the boundary, and the segment it came from.
    for (auto& r : decoded[i].records.value()) {
      if (r.is_commit() && r.seq > boundary &&
          (stats.oldest_replayed_seq == 0 ||
           r.seq < stats.oldest_replayed_seq)) {
        stats.oldest_replayed_seq = r.seq;
        stats.oldest_seq_segment = survivors[i].path;
      }
      all.push_back(std::move(r));
    }
  }
  stats.segments_decoded = survivors.size();
  stats.decode_ms = ms_since(t_decode);
  obs::metrics()
      .gauge("recovery.oldest_replayed_seq")
      .set(static_cast<double>(stats.oldest_replayed_seq));
  return all;
}

}  // namespace

Result<RecoveryStats> recover_checkpoint_and_segments(
    const std::string& checkpoint_path, const std::string& log_dir,
    storage::ObjectStore& store, storage::BPlusTree* index,
    unsigned decode_threads) {
  const auto t_total = SteadyClock::now();
  RecoveryStats stats;
  ValidationTs boundary = 0;
  auto all = load_and_decode_segments(checkpoint_path, log_dir, store, index,
                                      decode_threads, stats, boundary);
  if (!all.is_ok()) return all.status();
  if (all.value().empty() && stats.segments_decoded == 0) {
    obs::metrics().gauge("log.recovery_replay_ms").set(ms_since(t_total));
    return stats;
  }

  const auto t_apply = SteadyClock::now();
  auto applied = replay_records(all.value(), store, boundary, index);
  if (!applied.is_ok()) return applied.status();
  stats.committed_applied = applied.value().committed_applied;
  stats.writes_applied = applied.value().writes_applied;
  stats.incomplete_dropped = applied.value().incomplete_dropped;
  stats.records_read = applied.value().records_read;
  stats.last_seq = std::max(boundary, applied.value().last_seq);
  stats.apply_ms = ms_since(t_apply);
  obs::metrics().gauge("log.recovery_replay_ms").set(ms_since(t_total));
  return stats;
}

Result<RecoveryStats> recover_instant_segments(
    const std::string& checkpoint_path, const std::string& log_dir,
    storage::ObjectStore& store, RedoIndex& redo, storage::BPlusTree* index,
    unsigned decode_threads) {
  const auto t_total = SteadyClock::now();
  RecoveryStats stats;
  stats.instant = true;
  ValidationTs boundary = 0;
  auto all = load_and_decode_segments(checkpoint_path, log_dir, store, index,
                                      decode_threads, stats, boundary);
  if (!all.is_ok()) return all.status();
  stats.records_read = all.value().size();

  const auto t_apply = SteadyClock::now();
  if (auto s = redo.build(all.value(), boundary); !s) return s;
  stats.incomplete_dropped = redo.incomplete_dropped();
  stats.deferred_txns = redo.deferred_txns();
  stats.deferred_writes = redo.deferred_writes();
  stats.last_seq = std::max(boundary, redo.last_seq());
  stats.apply_ms = ms_since(t_apply);  // index build, not installs
  obs::metrics().gauge("log.recovery_replay_ms").set(ms_since(t_total));
  return stats;
}

}  // namespace rodain::log
