// Differential tests for the optimistic parallel executor: every workload is
// executed both sequentially (apply_transaction in order) and through
// ParallelExecutor, and the two runs must agree on every receipt (validity,
// success, gas, logs, created address), every error message and the final
// state_root() — the bit-identical guarantee replicated-mode convergence
// relies on.
#include "txn/parallel_executor.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string_view>

#include "common/time.hpp"
#include "evm/contracts.hpp"
#include "obs/trace.hpp"
#include "srbb/oracle.hpp"
#include "state/overlay.hpp"
#include "txn/block.hpp"

namespace srbb::txn {
namespace {

const crypto::SignatureScheme& scheme() {
  return crypto::SignatureScheme::fast_sim();
}

Address contract_addr(std::uint8_t tag) {
  Address a;
  a[0] = 0xC0;
  a[19] = tag;
  return a;
}

const Address kCounter = contract_addr(1);
const Address kExchange = contract_addr(2);
const Address kTicketing = contract_addr(3);
const Address kMobility = contract_addr(4);
const Address kKvStore = contract_addr(5);

// Genesis used by every test: funded senders plus the DApp contracts.
state::StateDB make_state(std::size_t senders) {
  state::StateDB db;
  for (std::size_t i = 0; i < senders; ++i) {
    db.add_balance(scheme().make_identity(i).address(), U256{1'000'000'000});
  }
  auto deploy = [&db](const Address& at, const evm::Contract& contract) {
    db.create_account(at);
    db.set_nonce(at, 1);
    db.set_code(at, contract.runtime_code);
  };
  deploy(kCounter, evm::counter_contract());
  deploy(kExchange, evm::exchange_contract());
  deploy(kTicketing, evm::ticketing_contract());
  deploy(kMobility, evm::mobility_contract());
  deploy(kKvStore, evm::kvstore_contract());
  db.commit();
  return db;
}

Transaction signed_tx(std::uint64_t sender, TxParams params) {
  return make_signed(params, scheme().make_identity(sender), scheme());
}

Transaction transfer(std::uint64_t sender, std::uint64_t nonce,
                     std::uint64_t to_tag, std::uint64_t value = 7) {
  TxParams params;
  params.nonce = nonce;
  params.gas_limit = 30'000;
  params.to = scheme().make_identity(10'000 + to_tag).address();
  params.value = U256{value};
  return signed_tx(sender, params);
}

Transaction invoke(std::uint64_t sender, std::uint64_t nonce,
                   const Address& contract, Bytes calldata) {
  TxParams params;
  params.kind = TxKind::kInvoke;
  params.nonce = nonce;
  params.gas_limit = 300'000;
  params.to = contract;
  params.data = std::move(calldata);
  return signed_tx(sender, params);
}

std::vector<Result<Receipt>> run_sequential(const std::vector<Transaction>& txs,
                                            state::StateDB& db,
                                            const ExecutionConfig& config) {
  std::vector<Result<Receipt>> out;
  out.reserve(txs.size());
  for (const Transaction& tx : txs) {
    out.push_back(apply_transaction(tx, db, {}, config));
  }
  db.commit();
  return out;
}

void expect_identical(const std::vector<Result<Receipt>>& seq,
                      const std::vector<Result<Receipt>>& par) {
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    ASSERT_EQ(seq[i].is_ok(), par[i].is_ok())
        << "tx " << i << ": seq=" << seq[i].message()
        << " par=" << par[i].message();
    if (!seq[i].is_ok()) {
      EXPECT_EQ(seq[i].message(), par[i].message()) << "tx " << i;
      continue;
    }
    const Receipt& a = seq[i].value();
    const Receipt& b = par[i].value();
    EXPECT_EQ(a.tx_hash, b.tx_hash) << "tx " << i;
    EXPECT_EQ(a.success, b.success) << "tx " << i;
    EXPECT_EQ(a.gas_used, b.gas_used) << "tx " << i;
    EXPECT_EQ(a.contract_address, b.contract_address) << "tx " << i;
    ASSERT_EQ(a.logs.size(), b.logs.size()) << "tx " << i;
    for (std::size_t j = 0; j < a.logs.size(); ++j) {
      EXPECT_EQ(a.logs[j].address, b.logs[j].address);
      EXPECT_EQ(a.logs[j].topics, b.logs[j].topics);
      EXPECT_EQ(a.logs[j].data, b.logs[j].data);
    }
  }
}

// Run `txs` both ways from identical genesis and compare everything. With
// `analysis_hints`, the parallel run uses the conflict-aware pre-scheduler
// (its own AnalysisCache, so tests never depend on global cache state).
ParallelExecStats run_differential(const std::vector<Transaction>& txs,
                                   std::size_t senders,
                                   std::size_t workers = 4,
                                   std::size_t max_retries = 3,
                                   bool analysis_hints = false) {
  ExecutionConfig config;
  config.scheme = &scheme();
  evm::analysis::AnalysisCache hint_cache;
  config.analysis_hints = analysis_hints;
  config.hint_cache = &hint_cache;

  state::StateDB seq_db = make_state(senders);
  const std::vector<Result<Receipt>> seq = run_sequential(txs, seq_db, config);

  state::StateDB par_db = make_state(senders);
  std::vector<const Transaction*> ptrs;
  for (const Transaction& tx : txs) ptrs.push_back(&tx);
  ParallelExecutor executor{workers, max_retries};
  ParallelExecStats stats;
  const std::vector<Result<Receipt>> par =
      executor.execute_block(ptrs, par_db, {}, config, &stats);
  par_db.commit();

  expect_identical(seq, par);
  EXPECT_EQ(seq_db.state_root(), par_db.state_root());
  EXPECT_EQ(seq_db.account_count(), par_db.account_count());
  EXPECT_EQ(stats.txs, txs.size());
  return stats;
}

TEST(ParallelExecutor, DisjointTransfersCommitWithoutConflicts) {
  std::vector<Transaction> txs;
  for (std::uint64_t s = 0; s < 64; ++s) txs.push_back(transfer(s, 0, s));
  const ParallelExecStats stats = run_differential(txs, 64);
  EXPECT_EQ(stats.aborts, 0u);
  EXPECT_EQ(stats.fallback_txs, 0u);
  EXPECT_EQ(stats.rounds, 1u);
  EXPECT_EQ(stats.speculative_runs, txs.size());
}

TEST(ParallelExecutor, SharedCounterHotSpotStaysDeterministic) {
  // Every transaction increments slot 0 of the same contract: the worst
  // case, where each round can commit only its first pending transaction.
  std::vector<Transaction> txs;
  for (std::uint64_t s = 0; s < 24; ++s) {
    txs.push_back(invoke(s, 0, kCounter, evm::encode_call("increment()", {})));
  }
  const ParallelExecStats stats = run_differential(txs, 24);
  EXPECT_GT(stats.aborts, 0u);
  EXPECT_GT(stats.fallback_txs, 0u);  // 4 rounds cannot drain 24 conflicts
}

TEST(ParallelExecutor, ForcedSequentialFallback) {
  // max_retries = 0: one optimistic round, then the sequential path must
  // finish the block and still match sequential execution exactly.
  std::vector<Transaction> txs;
  for (std::uint64_t s = 0; s < 16; ++s) {
    txs.push_back(invoke(s, 0, kCounter, evm::encode_call("increment()", {})));
  }
  const ParallelExecStats stats =
      run_differential(txs, 16, /*workers=*/4, /*max_retries=*/0);
  EXPECT_EQ(stats.rounds, 1u);
  EXPECT_EQ(stats.fallback_txs, txs.size() - 1);  // round 0 commits only tx 0
}

TEST(ParallelExecutor, DeployAndCallMix) {
  std::vector<Transaction> txs;
  for (std::uint64_t s = 0; s < 8; ++s) {
    TxParams params;
    params.kind = TxKind::kDeploy;
    params.nonce = 0;
    params.gas_limit = 3'000'000;
    params.data = evm::counter_contract().deploy_code;
    txs.push_back(signed_tx(s, params));
    txs.push_back(transfer(s, 1, 100 + s));
  }
  run_differential(txs, 8);
}

TEST(ParallelExecutor, RevertsAndInvalidTransactions) {
  std::vector<Transaction> txs;
  // Everyone fights for the same seat: the canonical first buyer wins, the
  // others revert (valid transactions with failed receipts).
  for (std::uint64_t s = 0; s < 8; ++s) {
    txs.push_back(invoke(s, 0, kTicketing,
                         evm::encode_call("buy(uint256,uint256)",
                                          {U256{1}, U256{42}})));
  }
  // Unfunded sender: invalid, discarded without a state transition.
  txs.push_back(transfer(900, 0, 1));
  // Stale nonce duplicate of sender 0's transaction.
  txs.push_back(invoke(0, 0, kTicketing,
                       evm::encode_call("buy(uint256,uint256)",
                                        {U256{2}, U256{7}})));
  const ParallelExecStats stats = run_differential(txs, 8);
  EXPECT_GT(stats.aborts, 0u);
}

TEST(ParallelExecutor, SelfDestructFreeCreateRecreate) {
  // CREATE from two different senders plus interleaved transfers to the
  // freshly created addresses — exercises exists-read validation.
  std::vector<Transaction> txs;
  for (std::uint64_t s = 0; s < 4; ++s) {
    TxParams params;
    params.kind = TxKind::kDeploy;
    params.nonce = 0;
    params.gas_limit = 3'000'000;
    params.data = evm::counter_contract().deploy_code;
    txs.push_back(signed_tx(s, params));
  }
  for (std::uint64_t s = 4; s < 8; ++s) txs.push_back(transfer(s, 0, s));
  run_differential(txs, 8);
}

TEST(ParallelExecutor, RandomizedWorkloadsMatchSequential) {
  for (const std::uint32_t seed : {1u, 7u, 1234u}) {
    std::mt19937 rng{seed};
    std::uniform_int_distribution<int> shape(0, 5);
    constexpr std::uint64_t kSenders = 32;
    std::vector<std::uint64_t> nonces(kSenders, 0);
    std::vector<Transaction> txs;
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t s = rng() % kSenders;
      switch (shape(rng)) {
        case 0:  // disjoint-ish transfer
          txs.push_back(transfer(s, nonces[s]++, rng() % 64));
          break;
        case 1:  // exchange trade on a small stock universe (medium conflict)
          txs.push_back(invoke(
              s, nonces[s]++, kExchange,
              evm::encode_call("trade(uint256,uint256,uint256)",
                               {U256{rng() % 5}, U256{90 + rng() % 20},
                                U256{1 + rng() % 9}})));
          break;
        case 2:  // shared counter (hot spot)
          txs.push_back(invoke(s, nonces[s]++, kCounter,
                               evm::encode_call("increment()", {})));
          break;
        case 3:  // ticket purchases, occasionally colliding on a seat
          txs.push_back(invoke(
              s, nonces[s]++, kTicketing,
              evm::encode_call("buy(uint256,uint256)",
                               {U256{rng() % 3}, U256{rng() % 12}})));
          break;
        case 4: {  // contract deployment
          TxParams params;
          params.kind = TxKind::kDeploy;
          params.nonce = nonces[s]++;
          params.gas_limit = 3'000'000;
          params.data = evm::counter_contract().deploy_code;
          txs.push_back(signed_tx(s, params));
          break;
        }
        default:  // invalid: future nonce, discarded by lazy validation
          txs.push_back(transfer(s, nonces[s] + 50, 3));
          break;
      }
    }
    run_differential(txs, kSenders);
  }
}

TEST(ParallelExecutor, WorkerCountsDoNotChangeResults) {
  std::vector<Transaction> txs;
  for (std::uint64_t s = 0; s < 32; ++s) {
    txs.push_back(s % 3 == 0 ? invoke(s, 0, kCounter,
                                      evm::encode_call("increment()", {}))
                             : transfer(s, 0, s));
  }
  for (const std::size_t workers : {1u, 2u, 8u}) {
    run_differential(txs, 32, workers);
  }
}

// --- Analysis-hinted scheduling (txn/rwset.hpp) -------------------------
// Every hinted test is the same differential as above: receipts and roots
// must be bit-identical to sequential execution; hints may only change the
// schedule (aborts, rounds, deferrals).

TEST(HintedExecutor, DisjointKvStorePutsCommitInOneRound) {
  // Distinct senders writing distinct keccak-mapped keys: the static
  // summaries prove non-conflict, so one wave commits everything.
  std::vector<Transaction> txs;
  for (std::uint64_t s = 0; s < 32; ++s) {
    txs.push_back(invoke(s, 0, kKvStore,
                         evm::encode_call("put(uint256,uint256)",
                                          {U256{1000 + s}, U256{s}})));
  }
  const ParallelExecStats stats =
      run_differential(txs, 32, 4, 3, /*analysis_hints=*/true);
  EXPECT_EQ(stats.hinted_txs, txs.size());
  EXPECT_EQ(stats.aborts, 0u);
  EXPECT_EQ(stats.hint_deferrals, 0u);
  EXPECT_EQ(stats.hint_violations, 0u);
  EXPECT_EQ(stats.rounds, 1u);
  EXPECT_EQ(stats.fallback_txs, 0u);
}

TEST(HintedExecutor, HotSlotSerializesInsteadOfAborting) {
  // Worst-case contention: every transaction bumps counter slot 0. Blind
  // Block-STM burns an abort per non-head speculation and falls back; the
  // hinted scheduler serializes the predicted conflict class — zero aborts,
  // zero fallback, identical receipts (the paper's congestion argument).
  std::vector<Transaction> txs;
  for (std::uint64_t s = 0; s < 24; ++s) {
    txs.push_back(invoke(s, 0, kCounter, evm::encode_call("increment()", {})));
  }
  const ParallelExecStats blind = run_differential(txs, 24);
  const ParallelExecStats hinted =
      run_differential(txs, 24, 4, 3, /*analysis_hints=*/true);
  EXPECT_GT(blind.aborts, 0u);
  EXPECT_EQ(hinted.aborts, 0u);
  EXPECT_LT(hinted.aborts, blind.aborts);  // the acceptance criterion
  EXPECT_EQ(hinted.fallback_txs, 0u);
  EXPECT_EQ(hinted.hint_violations, 0u);
  EXPECT_GT(hinted.hint_deferrals, 0u);
  EXPECT_EQ(hinted.rounds, txs.size());  // one commit per serialized round
  EXPECT_EQ(hinted.speculative_runs, txs.size());  // each tx runs exactly once
}

TEST(HintedExecutor, TopHeavyBlocksKeepBlindBehaviour) {
  // Deploys get ⊤ predictions: the hinted executor must not serialize them
  // (they speculate blindly every round) and still match sequential.
  std::vector<Transaction> txs;
  for (std::uint64_t s = 0; s < 8; ++s) {
    TxParams params;
    params.kind = TxKind::kDeploy;
    params.nonce = 0;
    params.gas_limit = 3'000'000;
    params.data = evm::counter_contract().deploy_code;
    txs.push_back(signed_tx(s, params));
    txs.push_back(transfer(s, 1, 100 + s));
  }
  const ParallelExecStats stats =
      run_differential(txs, 8, 4, 3, /*analysis_hints=*/true);
  EXPECT_EQ(stats.top_txs, 8u);
  EXPECT_EQ(stats.hinted_txs, 8u);
}

TEST(HintedExecutor, DiabloShapedTracesMatchSequential) {
  // The three DIABLO traces by their DApp shape and contention profile:
  // NASDAQ — exchange trades over a handful of hot stocks (+ shared trade
  // counter), Uber — mobility rides with unique rideIds but shared totals,
  // FIFA — ticket buys with seat collisions (reverts). Hinted and blind runs
  // must both be bit-identical to sequential.
  for (const std::uint32_t seed : {3u, 99u}) {
    std::mt19937 rng{seed};
    constexpr std::uint64_t kSenders = 32;

    std::vector<std::uint64_t> nonces(kSenders, 0);
    std::vector<Transaction> nasdaq;
    for (int i = 0; i < 96; ++i) {
      const std::uint64_t s = rng() % kSenders;
      nasdaq.push_back(invoke(
          s, nonces[s]++, kExchange,
          evm::encode_call("trade(uint256,uint256,uint256)",
                           {U256{rng() % 5}, U256{90 + rng() % 20},
                            U256{1 + rng() % 9}})));
    }

    std::fill(nonces.begin(), nonces.end(), 0);
    std::vector<Transaction> uber;
    for (int i = 0; i < 96; ++i) {
      const std::uint64_t s = rng() % kSenders;
      uber.push_back(invoke(s, nonces[s]++, kMobility,
                            evm::encode_call("ride(uint256,uint256)",
                                             {U256{1000u * seed + i},
                                              U256{10 + rng() % 40}})));
    }

    std::fill(nonces.begin(), nonces.end(), 0);
    std::vector<Transaction> fifa;
    for (int i = 0; i < 96; ++i) {
      const std::uint64_t s = rng() % kSenders;
      fifa.push_back(invoke(s, nonces[s]++, kTicketing,
                            evm::encode_call("buy(uint256,uint256)",
                                             {U256{rng() % 3}, U256{rng() % 40}})));
    }

    for (const auto* trace : {&nasdaq, &uber, &fifa}) {
      const ParallelExecStats hinted =
          run_differential(*trace, kSenders, 4, 3, /*analysis_hints=*/true);
      EXPECT_EQ(hinted.hinted_txs, trace->size());
      EXPECT_EQ(hinted.hint_violations, 0u);
      EXPECT_EQ(hinted.fallback_txs, 0u);
      run_differential(*trace, kSenders);  // blind control
    }
  }
}

TEST(HintedExecutor, MixedRandomizedWorkloadsMatchSequential) {
  // The randomized mix (transfers, trades, counter hits, ticket buys,
  // deploys, invalid nonces, kvstore puts) under hints: the full
  // differential plus guard invariants.
  for (const std::uint32_t seed : {11u, 4242u}) {
    std::mt19937 rng{seed};
    std::uniform_int_distribution<int> shape(0, 6);
    constexpr std::uint64_t kSenders = 32;
    std::vector<std::uint64_t> nonces(kSenders, 0);
    std::vector<Transaction> txs;
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t s = rng() % kSenders;
      switch (shape(rng)) {
        case 0:
          txs.push_back(transfer(s, nonces[s]++, rng() % 64));
          break;
        case 1:
          txs.push_back(invoke(
              s, nonces[s]++, kExchange,
              evm::encode_call("trade(uint256,uint256,uint256)",
                               {U256{rng() % 5}, U256{90 + rng() % 20},
                                U256{1 + rng() % 9}})));
          break;
        case 2:
          txs.push_back(invoke(s, nonces[s]++, kCounter,
                               evm::encode_call("increment()", {})));
          break;
        case 3:
          txs.push_back(invoke(
              s, nonces[s]++, kTicketing,
              evm::encode_call("buy(uint256,uint256)",
                               {U256{rng() % 3}, U256{rng() % 12}})));
          break;
        case 4: {
          TxParams params;
          params.kind = TxKind::kDeploy;
          params.nonce = nonces[s]++;
          params.gas_limit = 3'000'000;
          params.data = evm::counter_contract().deploy_code;
          txs.push_back(signed_tx(s, params));
          break;
        }
        case 5:
          txs.push_back(invoke(
              s, nonces[s]++, kKvStore,
              evm::encode_call("put(uint256,uint256)",
                               {U256{rng() % 128}, U256{rng() % 100}})));
          break;
        default:
          txs.push_back(transfer(s, nonces[s] + 50, 3));
          break;
      }
    }
    const ParallelExecStats stats =
        run_differential(txs, kSenders, 4, 3, /*analysis_hints=*/true);
    EXPECT_EQ(stats.hinted_txs + stats.top_txs, txs.size());
    EXPECT_EQ(stats.hint_violations, 0u);
  }
}

TEST(HintedExecutor, HintedWorkerCountsDoNotChangeResults) {
  std::vector<Transaction> txs;
  for (std::uint64_t s = 0; s < 32; ++s) {
    switch (s % 3) {
      case 0:
        txs.push_back(
            invoke(s, 0, kCounter, evm::encode_call("increment()", {})));
        break;
      case 1:
        txs.push_back(invoke(s, 0, kKvStore,
                             evm::encode_call("put(uint256,uint256)",
                                              {U256{s}, U256{1}})));
        break;
      default:
        txs.push_back(transfer(s, 0, s));
        break;
    }
  }
  for (const std::size_t workers : {1u, 2u, 8u}) {
    run_differential(txs, 32, workers, 3, /*analysis_hints=*/true);
  }
}

TEST(ParallelOracle, MatchesSequentialOracleAndReportsStats) {
  node::GenesisSpec genesis;
  for (std::uint64_t i = 0; i < 16; ++i) {
    genesis.accounts.push_back(
        {scheme().make_identity(i).address(), U256{1'000'000'000}});
  }
  genesis.contracts.push_back({kCounter, evm::counter_contract().runtime_code});

  auto block_of = [](std::uint64_t index, std::uint64_t proposer,
                     std::vector<TxPtr> txs) {
    return std::make_shared<const Block>(
        make_block(index, proposer, 0, Hash32{}, std::move(txs),
                   scheme().make_identity(proposer), scheme()));
  };
  auto tx_ptr = [](Transaction tx) { return make_tx_ptr(std::move(tx)); };

  // Two blocks per index, mixing transfers and counter hits, including a
  // cross-block duplicate (invalid on second appearance, as sequentially).
  const TxPtr dup = tx_ptr(transfer(5, 0, 5));
  std::vector<BlockPtr> blocks = {
      block_of(0, 0, {tx_ptr(transfer(1, 0, 1)), dup,
                      tx_ptr(invoke(2, 0, kCounter,
                                    evm::encode_call("increment()", {})))}),
      block_of(0, 1, {dup, tx_ptr(transfer(3, 0, 3)),
                      tx_ptr(invoke(4, 0, kCounter,
                                    evm::encode_call("increment()", {})))})};

  node::ExecutionOracle sequential{genesis, {}, scheme()};
  node::ExecutionOracle parallel{genesis, {}, scheme()};
  parallel.exec_config().parallel = true;
  parallel.exec_config().workers = 4;

  const node::IndexExecResult& a = sequential.execute(0, blocks);
  const node::IndexExecResult& b = parallel.execute(0, blocks);
  EXPECT_EQ(a.state_root, b.state_root);
  EXPECT_EQ(a.total_valid, b.total_valid);
  EXPECT_EQ(a.total_invalid, b.total_invalid);
  ASSERT_EQ(a.blocks.size(), b.blocks.size());
  for (std::size_t i = 0; i < a.blocks.size(); ++i) {
    ASSERT_EQ(a.blocks[i].outcomes.size(), b.blocks[i].outcomes.size());
    for (std::size_t j = 0; j < a.blocks[i].outcomes.size(); ++j) {
      EXPECT_EQ(a.blocks[i].outcomes[j].valid, b.blocks[i].outcomes[j].valid);
      EXPECT_EQ(a.blocks[i].outcomes[j].executed_ok,
                b.blocks[i].outcomes[j].executed_ok);
      EXPECT_EQ(a.blocks[i].outcomes[j].gas_used,
                b.blocks[i].outcomes[j].gas_used);
      EXPECT_EQ(a.blocks[i].outcomes[j].fee, b.blocks[i].outcomes[j].fee);
    }
  }
  EXPECT_EQ(a.parallel.txs, 0u);  // sequential path reports no stats
  EXPECT_EQ(b.parallel.txs, 6u);
  EXPECT_GT(b.parallel.speculative_runs, 0u);
  EXPECT_EQ(sequential.db().state_root(), parallel.db().state_root());
}

// The sequential and parallel executors must be observationally equivalent:
// their commit-path traces differ ONLY by executor-internal "exec" category
// events (speculation rounds, fallback). Everything protocol-visible —
// superblock.exec timing, index, valid counts — is byte-identical.
TEST(ParallelOracle, TraceMatchesSequentialModuloExecutorInternals) {
  node::GenesisSpec genesis;
  for (std::uint64_t i = 0; i < 16; ++i) {
    genesis.accounts.push_back(
        {scheme().make_identity(i).address(), U256{1'000'000'000}});
  }
  genesis.contracts.push_back({kCounter, evm::counter_contract().runtime_code});

  auto block_of = [](std::uint64_t index, std::uint64_t proposer,
                     std::vector<TxPtr> txs) {
    return std::make_shared<const Block>(
        make_block(index, proposer, 0, Hash32{}, std::move(txs),
                   scheme().make_identity(proposer), scheme()));
  };
  auto tx_ptr = [](Transaction tx) { return make_tx_ptr(std::move(tx)); };

  // Two indices with contended counter increments so the parallel run emits
  // at least one retry round beyond the first.
  auto index_blocks = [&](std::uint64_t index, std::uint64_t nonce) {
    std::vector<TxPtr> txs;
    for (std::uint64_t sender = 0; sender < 6; ++sender) {
      txs.push_back(tx_ptr(invoke(sender, nonce, kCounter,
                                  evm::encode_call("increment()", {}))));
    }
    return std::vector<BlockPtr>{block_of(index, 0, std::move(txs))};
  };

  node::ExecutionOracle sequential{genesis, {}, scheme()};
  node::ExecutionOracle parallel{genesis, {}, scheme()};
  parallel.exec_config().parallel = true;
  parallel.exec_config().workers = 4;

  obs::TraceSink seq_trace;
  obs::TraceSink par_trace;
  for (std::uint64_t index = 0; index < 2; ++index) {
    const SimTime at = millis(100 * (index + 1));
    const auto blocks = index_blocks(index, index);
    const node::IndexExecResult& a = sequential.execute(
        index, blocks, node::ExecutionOracle::ExecContext{&seq_trace, at, 3});
    const node::IndexExecResult& b = parallel.execute(
        index, blocks, node::ExecutionOracle::ExecContext{&par_trace, at, 3});
    EXPECT_EQ(a.state_root, b.state_root);
  }

  // The parallel trace carries executor-internal events; filtered of the
  // "exec" category it must equal the sequential trace event-for-event.
  EXPECT_GT(par_trace.count_of_category("exec"), 0u);
  EXPECT_GT(par_trace.count_of("exec.round"), 0u);
  EXPECT_EQ(seq_trace.count_of_category("exec"), 0u);

  std::vector<obs::TraceEvent> par_protocol;
  for (const obs::TraceEvent& event : par_trace.events()) {
    if (std::string_view{event.category} != "exec") {
      par_protocol.push_back(event);
    }
  }
  const std::vector<obs::TraceEvent>& seq_events = seq_trace.events();
  ASSERT_EQ(par_protocol.size(), seq_events.size());
  for (std::size_t i = 0; i < seq_events.size(); ++i) {
    const obs::TraceEvent& s = seq_events[i];
    const obs::TraceEvent& p = par_protocol[i];
    EXPECT_EQ(s.ts, p.ts) << "event " << i;
    EXPECT_EQ(s.dur, p.dur) << "event " << i;
    EXPECT_EQ(s.node, p.node) << "event " << i;
    EXPECT_EQ(std::string_view{s.category}, std::string_view{p.category});
    EXPECT_EQ(std::string_view{s.name}, std::string_view{p.name});
    EXPECT_EQ(s.arg0, p.arg0) << "event " << i << " (" << s.name << ")";
    EXPECT_EQ(s.arg1, p.arg1) << "event " << i << " (" << s.name << ")";
  }
}

TEST(OverlayState, RecordsReadsAndBuffersWrites) {
  state::StateDB base;
  base.add_balance(contract_addr(9), U256{50});
  base.commit();

  state::OverlayState overlay{base};
  EXPECT_EQ(overlay.balance(contract_addr(9)), U256{50});
  overlay.set_balance(contract_addr(9), U256{80});
  EXPECT_EQ(overlay.balance(contract_addr(9)), U256{80});
  EXPECT_EQ(base.balance(contract_addr(9)), U256{50});  // base untouched
  EXPECT_TRUE(overlay.validate(base));

  // A conflicting base write invalidates the recorded read.
  base.set_balance(contract_addr(9), U256{51});
  EXPECT_FALSE(overlay.validate(base));
}

TEST(OverlayState, FrameRevertKeepsReadSet) {
  state::StateDB base;
  base.add_balance(contract_addr(9), U256{50});
  base.commit();

  state::OverlayState overlay{base};
  const auto snap = overlay.snapshot();
  overlay.add_balance(contract_addr(9), U256{30});  // reads, then writes
  overlay.revert_to(snap);
  EXPECT_TRUE(overlay.write_set_empty());
  EXPECT_GT(overlay.read_set_size(), 0u);  // reverted reads still conflict
  base.set_balance(contract_addr(9), U256{51});
  EXPECT_FALSE(overlay.validate(base));
}

}  // namespace
}  // namespace srbb::txn
