#include "srbb/oracle.hpp"

#include <gtest/gtest.h>

#include <set>

#include "evm/contracts.hpp"
#include "oracle_state_root.hpp"

namespace srbb::node {
namespace {

const crypto::SignatureScheme& scheme() {
  return crypto::SignatureScheme::fast_sim();
}

txn::TxPtr transfer(std::uint64_t sender, std::uint64_t nonce,
                    std::uint64_t value = 10) {
  txn::TxParams params;
  params.nonce = nonce;
  params.gas_limit = 30'000;
  params.to = scheme().make_identity(4242).address();
  params.value = U256{value};
  return txn::make_tx_ptr(
      txn::make_signed(params, scheme().make_identity(sender), scheme()));
}

txn::BlockPtr block_of(std::uint64_t index, std::uint64_t proposer,
                       std::vector<txn::TxPtr> txs) {
  return std::make_shared<const txn::Block>(
      txn::make_block(index, proposer, 0, Hash32{}, std::move(txs),
                      scheme().make_identity(proposer), scheme()));
}

GenesisSpec rich_genesis() {
  GenesisSpec genesis;
  for (std::uint64_t i = 0; i < 8; ++i) {
    genesis.accounts.push_back(
        {scheme().make_identity(i).address(), U256{1'000'000'000}});
  }
  return genesis;
}

TEST(Oracle, GenesisApplied) {
  ExecutionOracle oracle{rich_genesis(), {}, scheme()};
  EXPECT_EQ(oracle.db().balance(scheme().make_identity(0).address()),
            U256{1'000'000'000});
  EXPECT_EQ(oracle.db().balance(scheme().make_identity(99).address()),
            U256::zero());
}

TEST(Oracle, ExecutesAndMemoizes) {
  ExecutionOracle oracle{rich_genesis(), {}, scheme()};
  const std::vector<txn::BlockPtr> blocks = {block_of(0, 0, {transfer(0, 0)})};
  const IndexExecResult& first = oracle.execute(0, blocks);
  EXPECT_EQ(first.total_valid, 1u);
  EXPECT_EQ(first.total_invalid, 0u);
  EXPECT_TRUE(oracle.executed(0));

  // Second call returns the identical memoized object; even a different
  // block set cannot re-execute the index.
  const IndexExecResult& second = oracle.execute(0, {});
  EXPECT_EQ(&first, &second);
}

TEST(Oracle, DuplicateTxAcrossBlocksDiscarded) {
  ExecutionOracle oracle{rich_genesis(), {}, scheme()};
  const txn::TxPtr tx = transfer(1, 0);
  // Two proposers included the same transaction (the EVM+DBFT situation).
  const std::vector<txn::BlockPtr> blocks = {block_of(0, 0, {tx}),
                                             block_of(0, 1, {tx})};
  const IndexExecResult& result = oracle.execute(0, blocks);
  EXPECT_EQ(result.total_valid, 1u);
  EXPECT_EQ(result.total_invalid, 1u);  // nonce reuse fails lazy validation
  ASSERT_EQ(result.blocks.size(), 2u);
  EXPECT_TRUE(result.blocks[0].outcomes[0].valid);
  EXPECT_FALSE(result.blocks[1].outcomes[0].valid);
  // Value moved exactly once.
  EXPECT_EQ(oracle.db().balance(scheme().make_identity(4242).address()),
            U256{10});
}

TEST(Oracle, InvalidZeroBalanceSenderDiscarded) {
  ExecutionOracle oracle{rich_genesis(), {}, scheme()};
  const txn::TxPtr broke = transfer(777, 0);  // unfunded sender
  const IndexExecResult& result = oracle.execute(0, {block_of(0, 0, {broke})});
  EXPECT_EQ(result.total_valid, 0u);
  EXPECT_EQ(result.total_invalid, 1u);
}

TEST(Oracle, SequentialIndicesChainState) {
  ExecutionOracle oracle{rich_genesis(), {}, scheme()};
  oracle.execute(0, {block_of(0, 0, {transfer(2, 0)})});
  const Hash32 root0 = oracle.execute(0, {}).state_root;
  oracle.execute(1, {block_of(1, 0, {transfer(2, 1)})});
  const Hash32 root1 = oracle.execute(1, {}).state_root;
  EXPECT_NE(root0, root1);
  EXPECT_EQ(oracle.db().nonce(scheme().make_identity(2).address()), 2u);
}

TEST(Oracle, TwoReplicasConverge) {
  // Replicated-execution equivalence: independent oracles fed the same
  // blocks produce identical roots and outcomes.
  ExecutionOracle a{rich_genesis(), {}, scheme()};
  ExecutionOracle b{rich_genesis(), {}, scheme()};
  const std::vector<txn::BlockPtr> blocks = {
      block_of(0, 0, {transfer(0, 0), transfer(1, 0)}),
      block_of(0, 1, {transfer(2, 0), transfer(0, 0)})};  // one duplicate
  const IndexExecResult& ra = a.execute(0, blocks);
  const IndexExecResult& rb = b.execute(0, blocks);
  EXPECT_EQ(ra.state_root, rb.state_root);
  EXPECT_EQ(ra.total_valid, rb.total_valid);
  EXPECT_EQ(ra.total_invalid, rb.total_invalid);
  EXPECT_EQ(a.db().state_root(), b.db().state_root());
}

// End-to-end parity of the optimistic parallel executor behind the oracle:
// the same superblocks executed with ExecutionConfig{parallel=true} must be
// bit-identical to the sequential path. The suite name matches the
// tools/tsan_check.sh / tools/sanitize_matrix.sh filter so this runs under
// TSan as the concurrency gate for the full oracle pipeline.
TEST(ParallelOracle, MatchesSequentialExecution) {
  ExecutionOracle sequential{rich_genesis(), {}, scheme()};
  ExecutionOracle parallel{rich_genesis(), {}, scheme()};
  parallel.exec_config().parallel = true;
  parallel.exec_config().workers = 4;

  for (std::uint64_t index = 0; index < 3; ++index) {
    std::vector<txn::TxPtr> left;
    std::vector<txn::TxPtr> right;
    for (std::uint64_t s = 0; s < 6; ++s) {
      // Overlapping senders across proposers: conflicts + duplicates force
      // the speculative re-execution path, not just the happy path.
      left.push_back(transfer(s, index));
      if (s % 2 == 0) right.push_back(transfer(s, index));
    }
    const std::vector<txn::BlockPtr> blocks = {
        block_of(index, 0, std::move(left)),
        block_of(index, 1, std::move(right))};
    const IndexExecResult& rs = sequential.execute(index, blocks);
    const IndexExecResult& rp = parallel.execute(index, blocks);
    EXPECT_EQ(rs.state_root, rp.state_root) << "index " << index;
    EXPECT_EQ(rs.total_valid, rp.total_valid);
    EXPECT_EQ(rs.total_invalid, rp.total_invalid);
  }
  EXPECT_EQ(sequential.db().state_root(), parallel.db().state_root());
}

TEST(Oracle, FeesComputedPerOutcome) {
  ExecutionOracle oracle{rich_genesis(), {}, scheme()};
  txn::TxParams params;
  params.nonce = 0;
  params.gas_limit = 30'000;
  params.gas_price = U256{3};
  params.to = scheme().make_identity(4242).address();
  params.value = U256{1};
  const txn::TxPtr tx = txn::make_tx_ptr(
      txn::make_signed(params, scheme().make_identity(3), scheme()));
  const IndexExecResult& result = oracle.execute(0, {block_of(0, 0, {tx})});
  ASSERT_EQ(result.blocks[0].outcomes.size(), 1u);
  const TxOutcome& outcome = result.blocks[0].outcomes[0];
  EXPECT_TRUE(outcome.valid);
  EXPECT_EQ(outcome.gas_used, 21'000u);
  EXPECT_EQ(outcome.fee, U256{3 * 21'000});
}

// Every published root equals the flat digest recomputed from public reads
// (oracle_state_root.hpp), across transfers, contract storage writes, a
// reverting call and a reset() in the middle of the run.
TEST(Oracle, PublishedRootsMatchReferenceDigest) {
  const Address counter = scheme().make_identity(5000).address();
  GenesisSpec genesis = rich_genesis();
  genesis.contracts.push_back(
      {counter, evm::counter_contract().runtime_code, {}});
  const auto increment = [&](std::uint64_t sender, std::uint64_t nonce,
                             std::uint64_t gas_limit) {
    txn::TxParams params;
    params.kind = txn::TxKind::kInvoke;
    params.nonce = nonce;
    params.gas_limit = gas_limit;
    params.to = counter;
    params.data = evm::encode_call("increment()", {});
    return txn::make_tx_ptr(
        txn::make_signed(params, scheme().make_identity(sender), scheme()));
  };

  std::vector<Address> addresses = {counter,
                                    scheme().make_identity(4242).address()};
  for (std::uint64_t i = 0; i < 8; ++i) {
    addresses.push_back(scheme().make_identity(i).address());
  }
  const std::vector<Hash32> slots = {Hash32{}};  // the counter's slot 0
  const auto reference = [&](const ExecutionOracle& oracle) {
    return state::oracle::reference_state_root(oracle.db(), addresses, slots);
  };

  ExecutionOracle oracle{genesis, {}, scheme()};
  EXPECT_EQ(oracle.db().state_root(), reference(oracle));
  std::vector<Hash32> first_run;
  for (int run = 0; run < 2; ++run) {
    if (run == 1) {
      oracle.reset();
      EXPECT_EQ(oracle.db().state_root(), reference(oracle));
    }
    for (std::uint64_t index = 0; index < 4; ++index) {
      // Sender 5's call runs out of gas: its fee is charged, but its
      // storage write is reverted.
      const std::vector<txn::BlockPtr> blocks = {
          block_of(index, 0,
                   {transfer(index % 3, index / 3),
                    increment(4, index, 200'000)}),
          block_of(index, 1,
                   {increment(5, index, 21'800), transfer(6, index, 0)})};
      const IndexExecResult& result = oracle.execute(index, blocks);
      EXPECT_EQ(result.total_valid, 4u);
      EXPECT_FALSE(result.blocks[1].outcomes[0].executed_ok);
      const Hash32 root = result.state_root;
      EXPECT_EQ(root, reference(oracle)) << "run " << run << " index " << index;
      if (run == 0) {
        first_run.push_back(root);
      } else {
        EXPECT_EQ(root, first_run[index]) << "index " << index;
      }
    }
  }
  EXPECT_EQ(oracle.db().storage(counter, Hash32{}), U256{4});
}

// Differential check of the commit-membership index against the per-replica
// set it replaced: a replica at commit height F held exactly the valid
// outcome hashes of indices 0..F-1. The inputs carry a duplicate inside one
// superblock, a transaction resent at a later index, and an unfunded sender.
TEST(Oracle, CommittedBelowMatchesPerFrontierReference) {
  constexpr std::uint64_t kIndices = 4;
  const txn::TxPtr resent = transfer(3, 0);
  std::vector<std::vector<txn::BlockPtr>> superblocks;
  for (std::uint64_t index = 0; index < kIndices; ++index) {
    const txn::TxPtr shared = transfer(0, index);
    std::vector<txn::TxPtr> left = {shared, transfer(1, index),
                                    transfer(700 + index, 0)};  // unfunded
    std::vector<txn::TxPtr> right = {shared, transfer(2, index)};
    if (index == 0 || index == 2) right.push_back(resent);
    superblocks.push_back({block_of(index, 0, std::move(left)),
                           block_of(index, 1, std::move(right))});
  }
  std::vector<Hash32> hashes;
  for (const auto& blocks : superblocks) {
    for (const txn::BlockPtr& block : blocks) {
      for (const txn::TxPtr& tx : block->txs) hashes.push_back(tx->hash);
    }
  }

  ExecutionOracle oracle{rich_genesis(), {}, scheme()};
  for (int run = 0; run < 2; ++run) {
    if (run == 1) {
      oracle.reset();
      for (const Hash32& hash : hashes) {
        EXPECT_FALSE(oracle.committed_below(hash, kIndices + 1));
      }
    }
    // references[F] is the set a replica at commit height F held.
    std::vector<std::set<Hash32>> references(1);
    for (std::uint64_t index = 0; index < kIndices; ++index) {
      const IndexExecResult& result =
          oracle.execute(index, superblocks[index]);
      std::set<Hash32> next = references.back();
      for (const BlockExecResult& block : result.blocks) {
        for (const TxOutcome& outcome : block.outcomes) {
          if (outcome.valid) next.insert(outcome.hash);
        }
      }
      references.push_back(std::move(next));
    }
    references.push_back(references.back());  // frontier K+1: nothing new
    // Three transfers per index plus the first send of `resent`; the
    // unfunded sender, the in-superblock duplicate and the resend are all
    // discarded.
    EXPECT_EQ(references[kIndices].size(), 3 * kIndices + 1);
    for (std::uint64_t frontier = 0; frontier <= kIndices + 1; ++frontier) {
      for (const Hash32& hash : hashes) {
        EXPECT_EQ(oracle.committed_below(hash, frontier),
                  references[frontier].contains(hash))
            << "run " << run << " frontier " << frontier;
      }
    }
  }
}

}  // namespace
}  // namespace srbb::node
