// Microbenchmarks for the transaction pool: admission, dedup and batch
// extraction under the loads the congestion experiments generate.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/flat_table.hpp"
#include "common/rng.hpp"
#include "crypto/keccak.hpp"
#include "oracle_eager_validate.hpp"
#include "pool/txpool.hpp"
#include "state/statedb.hpp"
#include "txn/pipeline.hpp"

namespace {

using namespace srbb;

const crypto::SignatureScheme& scheme() {
  return crypto::SignatureScheme::fast_sim();
}

std::vector<txn::TxPtr> make_txs(std::size_t count) {
  std::vector<txn::TxPtr> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    txn::TxParams params;
    params.nonce = i;
    out.push_back(txn::make_tx_ptr(
        txn::make_signed(params, scheme().make_identity(i % 64), scheme())));
  }
  return out;
}

void BM_PoolAdd(benchmark::State& state) {
  const auto txs = make_txs(4096);
  for (auto _ : state) {
    state.PauseTiming();
    pool::TxPool pool{pool::TxPoolConfig{.capacity = 8192}};
    state.ResumeTiming();
    for (const auto& tx : txs) pool.add(tx, 0);
    benchmark::DoNotOptimize(pool.size());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_PoolAdd);

void BM_PoolDuplicateRejection(benchmark::State& state) {
  const auto txs = make_txs(1024);
  pool::TxPool pool{pool::TxPoolConfig{.capacity = 8192}};
  for (const auto& tx : txs) pool.add(tx, 0);
  for (auto _ : state) {
    for (const auto& tx : txs) {
      benchmark::DoNotOptimize(pool.add(tx, 0));
    }
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_PoolDuplicateRejection);

void BM_PoolTakeBatch(benchmark::State& state) {
  const auto txs = make_txs(4096);
  for (auto _ : state) {
    state.PauseTiming();
    pool::TxPool pool{pool::TxPoolConfig{.capacity = 8192}};
    for (const auto& tx : txs) pool.add(tx, 0);
    state.ResumeTiming();
    benchmark::DoNotOptimize(pool.take_batch(4096, 0, 0));
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_PoolTakeBatch);

void BM_PoolRemoveCommitted(benchmark::State& state) {
  const auto txs = make_txs(4096);
  std::vector<Hash32> half;
  for (std::size_t i = 0; i < txs.size(); i += 2) half.push_back(txs[i]->hash);
  for (auto _ : state) {
    state.PauseTiming();
    pool::TxPool pool{pool::TxPoolConfig{.capacity = 8192}};
    for (const auto& tx : txs) pool.add(tx, 0);
    state.ResumeTiming();
    pool.remove_committed(half);
    benchmark::DoNotOptimize(pool.size());
  }
  state.SetItemsProcessed(state.iterations() * half.size());
}
BENCHMARK(BM_PoolRemoveCommitted);

// --- per-transaction index probes (docs/PERF.md §13) ---------------------
// The gossip seen ledger's row index shape: Keccak keys to a row number,
// probed in a shuffled order. range(0) keys are inserted; range(1) = 1
// probes them (hits), 0 probes as many keys never inserted (misses).

std::vector<Hash32> keccak_keys(std::size_t count, std::uint64_t salt) {
  std::vector<Hash32> keys(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t word[2] = {salt, i};
    keys[i] = crypto::Keccak256::hash(BytesView{
        reinterpret_cast<const std::uint8_t*>(word), sizeof(word)});
  }
  return keys;
}

std::vector<Hash32> probe_keys(const benchmark::State& state,
                               const std::vector<Hash32>& inserted) {
  std::vector<Hash32> probes =
      state.range(1) != 0 ? inserted : keccak_keys(inserted.size(), 1);
  Rng rng{7};
  for (std::size_t i = probes.size(); i > 1; --i) {
    std::swap(probes[i - 1], probes[rng.next_below(i)]);
  }
  return probes;
}

template <class Table>
void run_probes(benchmark::State& state, const Table& table,
                const std::vector<Hash32>& probes) {
  for (auto _ : state) {
    for (const Hash32& key : probes) {
      benchmark::DoNotOptimize(table.contains(key));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(probes.size()));
}

void BM_FlatProbe(benchmark::State& state) {
  const auto keys = keccak_keys(static_cast<std::size_t>(state.range(0)), 0);
  FlatMap<32, std::uint32_t> table;
  for (std::uint32_t i = 0; i < keys.size(); ++i) table.try_emplace(keys[i], i);
  run_probes(state, table, probe_keys(state, keys));
}
BENCHMARK(BM_FlatProbe)
    ->ArgsProduct({{1 << 10, 1 << 16}, {1, 0}})
    ->ArgNames({"keys", "hit"});

void BM_UnorderedProbe(benchmark::State& state) {
  const auto keys = keccak_keys(static_cast<std::size_t>(state.range(0)), 0);
  std::unordered_map<Hash32, std::uint32_t, Hash32Hasher> table;
  for (std::uint32_t i = 0; i < keys.size(); ++i) table.try_emplace(keys[i], i);
  run_probes(state, table, probe_keys(state, keys));
}
BENCHMARK(BM_UnorderedProbe)
    ->ArgsProduct({{1 << 10, 1 << 16}, {1, 0}})
    ->ArgNames({"keys", "hit"});

// --- eager validation: monolith vs pipeline (docs/PERF.md) --------------
// Real ed25519 signatures and a populated StateDB; the monolith is the
// pre-pipeline per-transaction eager_validate kept as the test oracle
// (tests/oracle_eager_validate.hpp: re-encode + re-hash + one verify per
// tx), the pipeline reads cached fields and batch-verifies.

const crypto::SignatureScheme& ed25519() {
  return crypto::SignatureScheme::ed25519();
}

struct ValidationFixture {
  state::StateDB db;
  txn::ValidationConfig vcfg;
  std::vector<txn::TxPtr> txs;

  explicit ValidationFixture(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      const crypto::Identity identity = ed25519().make_identity(i % 64 + 1);
      if (i < 64) db.add_balance(identity.address(), U256{1'000'000'000});
      txn::TxParams params;
      params.nonce = i / 64;
      params.gas_limit = 30'000;
      txs.push_back(
          txn::make_tx_ptr(txn::make_signed(params, identity, ed25519())));
    }
  }
};

void BM_EagerValidateMonolith(benchmark::State& state) {
  const ValidationFixture fixture(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    for (const auto& tx : fixture.txs) {
      benchmark::DoNotOptimize(
          txn::oracle::eager_validate(tx->tx, fixture.db, ed25519(),
                                      fixture.vcfg));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EagerValidateMonolith)->Arg(1)->Arg(8)->Arg(64)->Arg(512);

void BM_PipelineValidate(benchmark::State& state) {
  const ValidationFixture fixture(static_cast<std::size_t>(state.range(0)));
  const txn::ValidationPipeline pipeline(ed25519(), fixture.vcfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.validate(fixture.txs, fixture.db));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PipelineValidate)->Arg(1)->Arg(8)->Arg(64)->Arg(512);

void BM_TxHashAndCache(benchmark::State& state) {
  txn::TxParams params;
  params.gas_limit = 30'000;
  const txn::Transaction tx =
      txn::make_signed(params, scheme().make_identity(1), scheme());
  for (auto _ : state) {
    benchmark::DoNotOptimize(txn::make_tx_ptr(tx));
  }
}
BENCHMARK(BM_TxHashAndCache);

}  // namespace
