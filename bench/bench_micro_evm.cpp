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
    // Dirty one account so each iteration measures a recompute rather than
    // the memoized fast path (BM_StateRootMemoized covers that): one head
    // re-encoded, then every account's bytes hashed.
    db.add_balance(addr(1), U256{1});
    benchmark::DoNotOptimize(db.state_root());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StateRoot)->Arg(100)->Arg(1000);

// The root after k writes on a FIFA-shaped state: 10,000 accounts plus one
// contract with 50,000 slots. Each iteration makes k writes (alternately an
// account balance and a fresh value in a contract slot), commits, and takes
// the root; only the root is timed. ns_per_write is root time per write: a
// root costs the changed records plus one hash pass over the image, so it
// falls as k grows.
void BM_StateRootAfterWrites(benchmark::State& state) {
  constexpr std::uint32_t kAccounts = 10'000;
  constexpr std::uint32_t kSlots = 50'000;
  const auto account = [](std::uint32_t i) {
    Address a;
    put_be32(a.data.data(), i * 2'654'435'761u);  // spread over the order
    return a;
  };
  const auto slot = [](std::uint32_t i) {
    Hash32 key;
    put_be32(key.data.data(), i * 2'246'822'519u);
    return key;
  };
  state::StateDB db;
  for (std::uint32_t i = 0; i < kAccounts; ++i) {
    db.add_balance(account(i), U256{i + 1});
  }
  const Address contract = addr(7);
  db.set_code(contract, Bytes{0x00});
  for (std::uint32_t i = 0; i < kSlots; ++i) {
    db.set_storage(contract, slot(i), U256{i + 1});
  }
  db.commit();
  benchmark::DoNotOptimize(db.state_root());
  const auto writes = static_cast<std::uint32_t>(state.range(0));
  std::uint32_t next = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (std::uint32_t w = 0; w < writes; ++w, ++next) {
      if (w % 2 == 0) {
        db.add_balance(account(next % kAccounts), U256{1});
      } else {
        db.set_storage(contract, slot(next % kSlots), U256{next + 1});
      }
    }
    db.commit();
    state.ResumeTiming();
    benchmark::DoNotOptimize(db.state_root());
  }
  state.counters["ns_per_write"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * writes * 1e-9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_StateRootAfterWrites)->Arg(10)->Arg(1000);

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
