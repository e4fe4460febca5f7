#include "rodain/repl/apply_pool.hpp"

#include <algorithm>
#include <bitset>

#include "rodain/cc/intents.hpp"

namespace rodain::repl {

namespace {
/// FNV-1a over the index key bytes; folded through the same stripe mix as
/// oids. Keys and oids share the stripe space — aliasing between them only
/// serializes, never reorders.
std::uint32_t key_stripe(const storage::IndexKey& key) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : key.bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return cc::IntentTable::stripe_of(h);
}
}  // namespace

std::vector<std::uint32_t> ApplyPool::footprint(const log::ReleasedTxn& txn) {
  std::vector<std::uint32_t> stripes;
  stripes.reserve(txn.records.size());
  for (const log::Record& r : txn.records) {
    switch (r.type) {
      case log::RecordType::kWriteImage:
      case log::RecordType::kDelete:
        stripes.push_back(cc::IntentTable::stripe_of(r.oid));
        if (r.has_key) stripes.push_back(key_stripe(r.key));
        break;
      case log::RecordType::kCommit:
        break;
    }
  }
  std::sort(stripes.begin(), stripes.end());
  stripes.erase(std::unique(stripes.begin(), stripes.end()), stripes.end());
  return stripes;
}

ApplyPool::ApplyPool(std::size_t workers) {
  const std::size_t extra = workers > 1 ? workers - 1 : 0;
  threads_.reserve(extra);
  for (std::size_t i = 0; i < extra; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ApplyPool::~ApplyPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void ApplyPool::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    const std::vector<log::ReleasedTxn>* epoch = epoch_;
    const ApplyFn* fn = fn_;
    const std::size_t end = wave_end_;
    lock.unlock();
    std::size_t done = 0;
    for (std::size_t i = 0; claim(seen, end, i); ++done) (*fn)((*epoch)[i]);
    if (done > 0) {
      applied_.fetch_add(done, std::memory_order_acq_rel);
      // Empty critical section: a coordinator between its predicate check
      // and the wait sleep holds mu_, so acquiring it here orders this
      // notify after that sleep begins — no lost wakeup.
      { std::lock_guard relock(mu_); }
      done_cv_.notify_one();
    }
    lock.lock();
  }
}

void ApplyPool::run_wave(const std::vector<log::ReleasedTxn>& epoch,
                         std::size_t begin, std::size_t end,
                         const ApplyFn& fn) {
  const std::size_t n = end - begin;
  if (n == 0) return;
  if (threads_.empty() || n == 1) {
    for (std::size_t i = begin; i < end; ++i) fn(epoch[i]);
    return;
  }
  std::uint64_t generation = 0;
  {
    std::lock_guard lock(mu_);
    epoch_ = &epoch;
    fn_ = &fn;
    wave_end_ = end;
    applied_.store(0, std::memory_order_relaxed);
    generation = ++generation_;
    cursor_.store((generation << 32) | begin, std::memory_order_relaxed);
  }
  work_cv_.notify_all();
  // The caller is a pool member: claim from the same cursor.
  std::size_t done = 0;
  for (std::size_t i = 0; claim(generation, end, i); ++done) fn(epoch[i]);
  if (done > 0) applied_.fetch_add(done, std::memory_order_acq_rel);
  std::unique_lock lock(mu_);
  done_cv_.wait(lock, [&] {
    return applied_.load(std::memory_order_acquire) == n;
  });
}

bool ApplyPool::claim(std::uint64_t generation, std::size_t end,
                      std::size_t& index) {
  const std::uint64_t tag = generation << 32;
  std::uint64_t c = cursor_.load(std::memory_order_relaxed);
  while ((c & ~0xffffffffULL) == tag && (c & 0xffffffffULL) < end) {
    if (cursor_.compare_exchange_weak(c, c + 1, std::memory_order_relaxed)) {
      index = static_cast<std::size_t>(c & 0xffffffffULL);
      return true;
    }
  }
  return false;
}

void ApplyPool::apply(const std::vector<log::ReleasedTxn>& epoch,
                      const ApplyFn& fn) {
  if (epoch.empty()) return;
  ++stats_.epochs;
  stats_.txns += epoch.size();
  // The partition is computed even at width 1 (where execution is inline
  // serial): wave accounting is then identical across serial and parallel
  // configurations — the simulator's virtual-time parity and the
  // serial-vs-parallel permutation tests compare these numbers directly.
  std::vector<std::vector<std::uint32_t>> foot(epoch.size());
  for (std::size_t i = 0; i < epoch.size(); ++i) {
    foot[i] = footprint(epoch[i]);
  }
  std::bitset<cc::IntentTable::kStripes> claimed;
  std::size_t begin = 0;
  while (begin < epoch.size()) {
    claimed.reset();
    std::size_t end = begin;
    bool cut = false;
    for (; end < epoch.size(); ++end) {
      bool conflict = false;
      for (std::uint32_t s : foot[end]) {
        if (claimed.test(s)) {
          conflict = true;
          break;
        }
      }
      if (conflict) {
        cut = true;
        break;
      }
      for (std::uint32_t s : foot[end]) claimed.set(s);
    }
    const std::size_t width = end - begin;
    ++stats_.waves;
    if (cut) ++stats_.conflict_cuts;
    if (width >= 2) stats_.parallel_txns += width;
    stats_.max_wave = std::max(stats_.max_wave, width);
    run_wave(epoch, begin, end, fn);
    begin = end;
  }
}

}  // namespace rodain::repl
