// Microbenchmarks for the transaction pool: admission, dedup and batch
// extraction under the loads the congestion experiments generate.
#include <benchmark/benchmark.h>

#include <vector>

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
