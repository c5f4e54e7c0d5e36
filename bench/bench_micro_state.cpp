// State-stack microbenchmarks (docs/STATE.md, EXPERIMENTS.md "State stack"):
//
//   BM_HotRead_{Resident,Backend}
//       flat-snapshot hot-read latency: fully resident vs backend mode with
//       a bounded resident cache (hits stay O(1), misses fault through the
//       backend).
//   BM_CommitPath
//       per-block commit + state_root() publication, as the execution oracle
//       does at every superblock. The flat root rehashes every live
//       account, so this records its O(state) cost at 10^4 and 10^5
//       accounts.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>

#include "common/rng.hpp"
#include "state/statedb.hpp"

namespace {

using namespace srbb;
using namespace srbb::state;

Address addr_of(std::uint64_t i) {
  Address a{};
  put_be64(a.data.data() + 12, i);
  return a;
}

Hash32 slot_of(std::uint64_t i) {
  Hash32 h{};
  put_be64(h.data.data() + 24, i);
  return h;
}

/// `n` externally-owned accounts plus n/16 small contracts.
void populate(StateDB& db, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    db.add_balance(addr_of(i), U256{1'000'000 + i});
    if (i % 16 == 0) {
      db.set_storage(addr_of(i), slot_of(i % 4), U256{i + 1});
    }
  }
  db.commit();
}

void BM_HotRead_Resident(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  StateDB db;
  populate(db, n);
  Rng rng{7};
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.balance(addr_of(rng.next_below(n))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HotRead_Resident)->Arg(100'000);

void BM_HotRead_Backend(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const auto capacity = static_cast<std::size_t>(state.range(1));
  StateConfig cfg;
  cfg.snapshot_capacity = capacity;
  StateDB db{cfg, std::make_shared<MemoryBackend>()};
  populate(db, n);
  // Touch a hot subset so it is resident; sized to fit the cache.
  const std::uint64_t hot = capacity / 2;
  for (std::uint64_t i = 0; i < hot; ++i) db.prefetch(addr_of(i));

  Rng rng{7};
  for (auto _ : state) {
    // 90% hits in the resident window, 10% faulting cold reads.
    const bool cold = rng.next_below(10) == 0;
    const std::uint64_t idx =
        cold ? hot + rng.next_below(n - hot) : rng.next_below(hot);
    benchmark::DoNotOptimize(db.balance(addr_of(idx)));
  }
  const auto stats = db.backing_stats();
  state.counters["faults"] =
      benchmark::Counter(static_cast<double>(stats.faults));
  state.counters["hits"] = benchmark::Counter(static_cast<double>(stats.hits));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HotRead_Backend)->Args({100'000, 8'192});

void BM_CommitPath(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  StateDB db;
  populate(db, n);
  benchmark::DoNotOptimize(db.state_root());

  Rng rng{n};
  for (auto _ : state) {
    // One DIABLO-shaped block: 128 transfers over a uniform account set.
    for (int i = 0; i < 128; ++i) {
      const Address from = addr_of(rng.next_below(n));
      const Address to = addr_of(rng.next_below(n));
      db.sub_balance(from, U256{1});
      db.add_balance(to, U256{1});
      db.increment_nonce(from);
    }
    db.commit();
    benchmark::DoNotOptimize(db.state_root());
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_CommitPath)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
