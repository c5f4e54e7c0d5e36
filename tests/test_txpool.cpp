#include "pool/txpool.hpp"

#include <gtest/gtest.h>

#include "common/time.hpp"

namespace srbb::pool {
namespace {

const crypto::SignatureScheme& scheme() {
  return crypto::SignatureScheme::fast_sim();
}

txn::TxPtr tx_ptr(std::uint64_t sender, std::uint64_t nonce) {
  txn::TxParams params;
  params.nonce = nonce;
  return txn::make_tx_ptr(
      txn::make_signed(params, scheme().make_identity(sender), scheme()));
}

TEST(TxPool, AddAndTakeFifo) {
  TxPool pool;
  pool.add(tx_ptr(1, 0), 0);
  pool.add(tx_ptr(1, 1), 0);
  pool.add(tx_ptr(2, 0), 0);
  EXPECT_EQ(pool.size(), 3u);
  const auto batch = pool.take_batch(10, 0, 0);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0]->tx.nonce, 0u);
  EXPECT_EQ(batch[1]->tx.nonce, 1u);
  EXPECT_TRUE(pool.empty());
}

TEST(TxPool, RejectsDuplicates) {
  TxPool pool;
  const auto t = tx_ptr(1, 0);
  EXPECT_EQ(pool.add(t, 0), TxPool::AddResult::kAdded);
  EXPECT_EQ(pool.add(t, 0), TxPool::AddResult::kDuplicate);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(TxPool, DropsWhenFull) {
  TxPool pool{TxPoolConfig{.capacity = 2}};
  EXPECT_EQ(pool.add(tx_ptr(1, 0), 0), TxPool::AddResult::kAdded);
  EXPECT_EQ(pool.add(tx_ptr(1, 1), 0), TxPool::AddResult::kAdded);
  EXPECT_EQ(pool.add(tx_ptr(1, 2), 0), TxPool::AddResult::kFull);
  EXPECT_EQ(pool.dropped_full(), 1u);
  EXPECT_EQ(pool.admitted(), 2u);
}

TEST(TxPool, BatchRespectsCountLimit) {
  TxPool pool;
  for (std::uint64_t i = 0; i < 10; ++i) pool.add(tx_ptr(1, i), 0);
  const auto batch = pool.take_batch(4, 0, 0);
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_EQ(pool.size(), 6u);
}

TEST(TxPool, BatchRespectsByteLimit) {
  TxPool pool;
  const auto t = tx_ptr(1, 0);
  const std::size_t one_size = t->size;
  pool.add(t, 0);
  pool.add(tx_ptr(1, 1), 0);
  pool.add(tx_ptr(1, 2), 0);
  const auto batch = pool.take_batch(10, 2 * one_size + 1, 0);
  EXPECT_EQ(batch.size(), 2u);
}

TEST(TxPool, TtlExpiresEntries) {
  TxPool pool{TxPoolConfig{.capacity = 100, .ttl = seconds(10)}};
  pool.add(tx_ptr(1, 0), 0);
  pool.add(tx_ptr(1, 1), seconds(5));
  // At t=10s, the first entry is expired, the second not.
  const auto batch = pool.take_batch(10, 0, seconds(10));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0]->tx.nonce, 1u);
  EXPECT_EQ(pool.dropped_expired(), 1u);
}

TEST(TxPool, ZeroTtlNeverExpires) {
  TxPool pool;
  pool.add(tx_ptr(1, 0), 0);
  const auto batch = pool.take_batch(10, 0, seconds(100000));
  EXPECT_EQ(batch.size(), 1u);
}

TEST(TxPool, RemoveCommitted) {
  TxPool pool;
  const auto a = tx_ptr(1, 0);
  const auto b = tx_ptr(1, 1);
  const auto c = tx_ptr(2, 0);
  pool.add(a, 0);
  pool.add(b, 0);
  pool.add(c, 0);
  pool.remove_committed({a->hash, c->hash});
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_TRUE(pool.contains(b->hash));
  EXPECT_FALSE(pool.contains(a->hash));
}

TEST(TxPool, RemoveCommittedUnknownHashesIsNoop) {
  TxPool pool;
  pool.add(tx_ptr(1, 0), 0);
  Hash32 ghost;
  ghost[0] = 0xff;
  pool.remove_committed({ghost});
  EXPECT_EQ(pool.size(), 1u);
}

TEST(TxPool, RemoveCommittedRepeatedAbsentInterleavedKeepsOrder) {
  TxPool pool;
  std::vector<txn::TxPtr> txs;
  for (std::uint64_t i = 0; i < 8; ++i) {
    txs.push_back(tx_ptr(i % 3, i));
    pool.add(txs.back(), 0);
  }
  Hash32 ghost;
  ghost[0] = 0xff;
  Hash32 ghost2;
  ghost2[31] = 0x01;
  // Committed hashes repeat, include two the pool never held, and alternate
  // with entries that stay pending.
  pool.remove_committed({txs[1]->hash, ghost, txs[4]->hash, txs[1]->hash,
                         txs[6]->hash, txs[4]->hash, ghost2});
  ASSERT_EQ(pool.size(), 5u);
  for (const std::size_t gone : {1u, 4u, 6u}) {
    EXPECT_FALSE(pool.contains(txs[gone]->hash));
  }
  const auto batch = pool.take_batch(10, 0, 0);
  const std::vector<txn::TxPtr> kept{txs[0], txs[2], txs[3], txs[5], txs[7]};
  EXPECT_EQ(batch, kept);
  EXPECT_TRUE(pool.empty());
  // The index forgot the committed ones, so they can be admitted again.
  EXPECT_EQ(pool.add(txs[4], 0), TxPool::AddResult::kAdded);
}

TEST(TxPool, TakenTxCanBeReadded) {
  // Alg. 1 line 31: undecided-block transactions go back into the pool.
  TxPool pool;
  const auto t = tx_ptr(1, 0);
  pool.add(t, 0);
  auto batch = pool.take_batch(1, 0, 0);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(pool.add(batch[0], 0), TxPool::AddResult::kAdded);
  EXPECT_TRUE(pool.contains(t->hash));
}

}  // namespace
}  // namespace srbb::pool
