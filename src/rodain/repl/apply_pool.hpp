// Mirror-side parallel apply (DESIGN.md §14).
//
// The reorderer releases one *epoch* at a time: a seq-ordered run of
// complete transactions whose ordering proof the primary's epoch sealer
// already established. Within one epoch, transactions whose oid/key
// footprints are disjoint commute — applying them in any order produces a
// byte-identical store, because every write is stamped with its own
// transaction's serial_ts and the per-object install order only matters
// between transactions that touch the same object.
//
// The pool exploits exactly that: it walks the epoch in seq order and
// greedily packs transactions into *waves* — a wave ends at the first
// transaction whose footprint intersects one already in the wave (the same
// stripe discipline as cc::IntentTable, so two conflicting transactions can
// never share a wave even under stripe aliasing). Waves apply one after
// another with a full barrier between them; within a wave the worker
// threads claim transactions from a shared cursor. The epoch boundary is
// itself a barrier, so the caller observes exactly the serial-apply state:
// store contents, index, and OCC wts stamps are identical, and the applied
// floor only advances past fully-applied prefixes.
//
// workers <= 1 degrades to inline serial apply with identical accounting
// (the simulator's virtual-time parity mode, and the fallback when the
// mirror host has no spare cores).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "rodain/log/reorder.hpp"

namespace rodain::repl {

class ApplyPool {
 public:
  /// Applies one released transaction to the copy. Must be safe to call
  /// concurrently for transactions with disjoint footprints (the object
  /// store's per-record discipline + the B+-tree's internal writer lock).
  using ApplyFn = std::function<void(const log::ReleasedTxn&)>;

  struct Stats {
    std::uint64_t epochs{0};
    std::uint64_t waves{0};
    std::uint64_t txns{0};
    /// Transactions that ran in a wave of width >= 2 (actually overlapped
    /// with another apply).
    std::uint64_t parallel_txns{0};
    /// Waves cut short because the next transaction's footprint collided
    /// with one already packed (the serialization the epoch really needed).
    std::uint64_t conflict_cuts{0};
    std::uint64_t max_wave{0};
  };

  /// `workers` is the total apply width: the caller's thread participates,
  /// so `workers - 1` pool threads are spawned. 0 and 1 both mean serial.
  explicit ApplyPool(std::size_t workers);
  ~ApplyPool();
  ApplyPool(const ApplyPool&) = delete;
  ApplyPool& operator=(const ApplyPool&) = delete;

  /// Apply a whole epoch (seq-ascending). Blocks until every transaction
  /// is applied — the epoch-boundary barrier.
  void apply(const std::vector<log::ReleasedTxn>& epoch, const ApplyFn& fn);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t width() const { return threads_.size() + 1; }
  /// Mean transactions per wave so far (1.0 = fully serialized epochs).
  [[nodiscard]] double mean_wave_width() const {
    return stats_.waves == 0
               ? 0.0
               : static_cast<double>(stats_.txns) /
                     static_cast<double>(stats_.waves);
  }

  /// Conflict-partition footprint of one transaction: sorted, deduped
  /// stripe indices over its written oids and carried index keys (exposed
  /// for tests — the partition proof lives here).
  [[nodiscard]] static std::vector<std::uint32_t> footprint(
      const log::ReleasedTxn& txn);

 private:
  void worker_loop();
  /// Run one conflict-free wave of epoch indices [begin, end); participates
  /// from the calling thread and barriers before returning.
  void run_wave(const std::vector<log::ReleasedTxn>& epoch, std::size_t begin,
                std::size_t end, const ApplyFn& fn);
  /// Claim the next index of wave `generation` below `end` into `index`.
  /// False once that wave is drained or a later one has replaced it.
  bool claim(std::uint64_t generation, std::size_t end, std::size_t& index);

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  /// Wave handoff (guarded by mu_ for the generation, atomics for claims).
  const std::vector<log::ReleasedTxn>* epoch_{nullptr};
  const ApplyFn* fn_{nullptr};
  std::size_t wave_end_{0};
  std::uint64_t generation_{0};
  /// Claim cursor: the wave's generation in the high 32 bits, its next
  /// index in the low 32. Claiming checks both in one CAS, so a worker that
  /// read a wave under mu_ and ran late can never take an index of a later
  /// wave (which would strand that wave's barrier, or apply a freed epoch).
  std::atomic<std::uint64_t> cursor_{0};
  std::atomic<std::size_t> applied_{0};
  bool stop_{false};

  Stats stats_;
  std::vector<std::thread> threads_;
};

}  // namespace rodain::repl
