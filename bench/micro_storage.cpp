// Microbenchmarks: the main-memory storage substrate.
#include <benchmark/benchmark.h>

#include "rodain/common/rng.hpp"
#include "rodain/storage/btree.hpp"
#include "rodain/storage/fuzzy_checkpoint.hpp"
#include "rodain/storage/object_store.hpp"

using namespace rodain;
using storage::IndexKey;
using storage::Value;

namespace {

Value payload(std::size_t n = 48) {
  return Value{std::string_view{std::string(n, 'x')}};
}

void BM_ObjectStoreInsert(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    storage::ObjectStore store(n);
    for (ObjectId i = 0; i < n; ++i) store.upsert(i, payload(), 0);
    benchmark::DoNotOptimize(store.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ObjectStoreInsert)->Arg(1000)->Arg(30000);

void BM_ObjectStoreFind(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  storage::ObjectStore store(n);
  for (ObjectId i = 0; i < n; ++i) store.upsert(i, payload(), 0);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.find(rng.next_below(n)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObjectStoreFind)->Arg(30000)->Arg(1000000);

void BM_ObjectStoreUpdateInPlace(benchmark::State& state) {
  storage::ObjectStore store(30000);
  for (ObjectId i = 0; i < 30000; ++i) store.upsert(i, payload(), 0);
  Rng rng(2);
  Value v = payload();
  for (auto _ : state) {
    store.upsert(rng.next_below(30000), v, 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObjectStoreUpdateInPlace);

void BM_BTreeInsert(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    storage::BPlusTree tree;
    for (std::size_t i = 0; i < n; ++i) {
      tree.insert(IndexKey::from_u64(i * 2654435761u), i);
    }
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BTreeInsert)->Arg(1000)->Arg(30000);

void BM_BTreeLookup(benchmark::State& state) {
  storage::BPlusTree tree;
  const std::size_t n = 30000;
  for (std::size_t i = 0; i < n; ++i) tree.insert(IndexKey::from_u64(i), i);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.find(IndexKey::from_u64(rng.next_below(n))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeLookup);

void BM_BTreeRangeScan100(benchmark::State& state) {
  storage::BPlusTree tree;
  const std::size_t n = 30000;
  for (std::size_t i = 0; i < n; ++i) tree.insert(IndexKey::from_u64(i), i);
  Rng rng(4);
  for (auto _ : state) {
    const std::uint64_t start = rng.next_below(n - 100);
    std::size_t count = 0;
    tree.range_scan(IndexKey::from_u64(start), IndexKey::from_u64(start + 99),
                    [&](const IndexKey&, ObjectId) {
                      ++count;
                      return true;
                    });
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_BTreeRangeScan100);

void BM_CheckpointEncode(benchmark::State& state) {
  // A checkpoint base through the snapshot walk the cadence uses.
  const auto n = static_cast<std::size_t>(state.range(0));
  storage::ObjectStore store(n);
  storage::BPlusTree index;
  for (ObjectId i = 0; i < n; ++i) store.upsert(i, payload(), 0);
  for (auto _ : state) {
    ByteWriter w(n * 80);
    store.snapshot_begin();
    storage::encode_fuzzy_base(store, index, 1, w);
    store.snapshot_end();
    benchmark::DoNotOptimize(w.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CheckpointEncode)->Arg(30000);

}  // namespace
