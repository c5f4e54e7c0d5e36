// Microbenchmarks for the SRBB VM: interpreter dispatch, the DApp calls the
// DIABLO workloads execute, and full transaction application. The CostModel
// execution_per_tx figure is sanity-checked against BM_ApplyTransaction.
#include <benchmark/benchmark.h>

#include "evm/asm.hpp"
#include "evm/contracts.hpp"
#include "evm/interpreter.hpp"
#include "txn/executor.hpp"
#include "txn/pipeline.hpp"
#include "txn/validation.hpp"

namespace {

using namespace srbb;

const crypto::SignatureScheme& scheme() {
  return crypto::SignatureScheme::fast_sim();
}

Address addr(std::uint8_t tag) {
  Address a;
  a[19] = tag;
  return a;
}

void BM_EvmArithmeticLoop(benchmark::State& state) {
  state::StateDB db;
  const auto code = evm::assemble(R"(
    PUSH1 0
    PUSH2 1000
  loop:
    DUP1 ISZERO PUSH @done JUMPI
    DUP1 SWAP2 ADD SWAP1
    PUSH1 1 SWAP1 SUB
    PUSH @loop JUMP
  done:
    POP PUSH1 0 MSTORE PUSH1 32 PUSH1 0 RETURN
  )");
  db.set_code(addr(1), code.value());
  evm::Evm evm{db, {}, {}};
  evm::Message msg;
  msg.caller = addr(2);
  msg.to = addr(1);
  msg.gas = 10'000'000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(evm.execute(msg));
  }
  state.SetItemsProcessed(state.iterations() * 1000);  // loop iterations
}
BENCHMARK(BM_EvmArithmeticLoop);

void BM_EvmSha3(benchmark::State& state) {
  state::StateDB db;
  const auto code = evm::assemble(
      "PUSH1 32 PUSH1 0 SHA3 PUSH1 0 MSTORE PUSH1 32 PUSH1 0 RETURN");
  db.set_code(addr(1), code.value());
  evm::Evm evm{db, {}, {}};
  evm::Message msg;
  msg.caller = addr(2);
  msg.to = addr(1);
  msg.gas = 1'000'000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(evm.execute(msg));
  }
}
BENCHMARK(BM_EvmSha3);

void BM_DappCall(benchmark::State& state) {
  // The exchange trade() call the NASDAQ workload executes.
  state::StateDB db;
  db.set_code(addr(1), evm::exchange_contract().runtime_code);
  db.add_balance(addr(2), U256{1'000'000'000});
  evm::Evm evm{db, {}, {}};
  evm::Message msg;
  msg.caller = addr(2);
  msg.to = addr(1);
  msg.gas = 200'000;
  std::uint64_t i = 0;
  for (auto _ : state) {
    msg.data = evm::encode_call("trade(uint256,uint256,uint256)",
                                {U256{i % 5}, U256{100}, U256{1}});
    benchmark::DoNotOptimize(evm.execute(msg));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DappCall);

void BM_ApplyTransaction(benchmark::State& state) {
  // Full transaction application including signature verification — the
  // commit-path per-transaction cost the network model charges.
  state::StateDB db;
  db.set_code(addr(1), evm::mobility_contract().runtime_code);
  const crypto::Identity sender = scheme().make_identity(1);
  db.add_balance(sender.address(), U256::max() >> 8);
  evm::BlockContext block;
  txn::ExecutionConfig exec;
  exec.scheme = &scheme();
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    txn::TxParams params;
    params.kind = txn::TxKind::kInvoke;
    params.nonce = nonce++;
    params.gas_limit = 200'000;
    params.to = addr(1);
    params.data =
        evm::encode_call("ride(uint256,uint256)", {U256{nonce}, U256{25}});
    const txn::Transaction tx = txn::make_signed(params, sender, scheme());
    benchmark::DoNotOptimize(txn::apply_transaction(tx, db, block, exec));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ApplyTransaction);

void BM_EagerValidate(benchmark::State& state) {
  state::StateDB db;
  const crypto::Identity sender = scheme().make_identity(1);
  db.add_balance(sender.address(), U256{1'000'000'000});
  txn::TxParams params;
  params.gas_limit = 30'000;
  params.to = addr(3);
  params.value = U256{1};
  const txn::TxPtr tx =
      txn::make_tx_ptr(txn::make_signed(params, sender, scheme()));
  const txn::ValidationPipeline pipeline(scheme(), txn::ValidationConfig{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.validate_one(*tx, db));
  }
}
BENCHMARK(BM_EagerValidate);

void BM_LazyValidate(benchmark::State& state) {
  state::StateDB db;
  const crypto::Identity sender = scheme().make_identity(1);
  db.add_balance(sender.address(), U256{1'000'000'000});
  txn::TxParams params;
  params.gas_limit = 30'000;
  params.to = addr(3);
  const txn::Transaction tx = txn::make_signed(params, sender, scheme());
  for (auto _ : state) {
    benchmark::DoNotOptimize(txn::lazy_validate(tx, db));
  }
}
BENCHMARK(BM_LazyValidate);

void BM_StateRoot(benchmark::State& state) {
  state::StateDB db;
  for (int i = 0; i < state.range(0); ++i) {
    Address a;
    put_be32(a.data.data(), static_cast<std::uint32_t>(i));
    db.add_balance(a, U256{static_cast<std::uint64_t>(i)});
  }
  for (auto _ : state) {
    // Dirty one account so each iteration measures a full recompute rather
    // than the memoized fast path (BM_StateRootMemoized covers that).
    db.add_balance(addr(1), U256{1});
    benchmark::DoNotOptimize(db.state_root());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StateRoot)->Arg(100)->Arg(1000);

void BM_StateRootMemoized(benchmark::State& state) {
  // Repeated calls with no intervening writes hit the dirty-flag cache —
  // the common oracle pattern (root per index, few accounts changing).
  state::StateDB db;
  for (int i = 0; i < state.range(0); ++i) {
    Address a;
    put_be32(a.data.data(), static_cast<std::uint32_t>(i));
    db.add_balance(a, U256{static_cast<std::uint64_t>(i)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.state_root());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StateRootMemoized)->Arg(1000);

}  // namespace
