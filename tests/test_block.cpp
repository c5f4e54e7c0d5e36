#include "txn/block.hpp"

#include <gtest/gtest.h>

namespace srbb::txn {
namespace {

const crypto::SignatureScheme& scheme() {
  return crypto::SignatureScheme::ed25519();
}

TxPtr tx_ptr(std::uint64_t sender, std::uint64_t nonce) {
  TxParams params;
  params.nonce = nonce;
  return make_tx_ptr(make_signed(params, scheme().make_identity(sender), scheme()));
}

Block sample_block(std::uint64_t proposer_id = 3) {
  const crypto::Identity proposer = scheme().make_identity(proposer_id);
  return make_block(5, proposer_id, 1234, Hash32{},
                    {tx_ptr(1, 0), tx_ptr(2, 0)}, proposer, scheme());
}

TEST(Block, CertificateVerifies) {
  const Block b = sample_block();
  EXPECT_TRUE(verify_block_certificate(b, scheme()));
}

TEST(Block, TamperedTxSetBreaksCertificate) {
  Block b = sample_block();
  b.txs.push_back(tx_ptr(9, 0));  // Byzantine proposer swaps in extra txs
  EXPECT_FALSE(verify_block_certificate(b, scheme()));
}

TEST(Block, TamperedRootBreaksCertificate) {
  Block b = sample_block();
  b.header.tx_root[0] ^= 1;
  EXPECT_FALSE(verify_block_certificate(b, scheme()));
}

TEST(Block, ForeignCertificateBreaks) {
  Block b = sample_block(3);
  // Swap in another validator's pubkey without re-signing.
  b.header.cert.proposer_pubkey = scheme().make_identity(4).public_key;
  EXPECT_FALSE(verify_block_certificate(b, scheme()));
}

TEST(Block, EmptyBlockCertificateStillVerifies) {
  const crypto::Identity proposer = scheme().make_identity(1);
  const Block b = make_block(0, 1, 0, Hash32{}, {}, proposer, scheme());
  EXPECT_TRUE(verify_block_certificate(b, scheme()));
}

TEST(Block, HashDependsOnContents) {
  const Block a = sample_block();
  Block b = sample_block();
  EXPECT_EQ(a.hash(), b.hash());
  b.header.index = 6;
  EXPECT_NE(a.hash(), b.hash());
  Block c = sample_block();
  c.header.tx_root[1] ^= 1;
  EXPECT_NE(a.hash(), c.hash());
}

TEST(Block, SealMemoizesTheComputedDigests) {
  const Block plain = sample_block();
  const BlockPtr sealed = seal(sample_block());
  EXPECT_EQ(sealed->hash(), plain.hash());
  EXPECT_EQ(sealed->body_root(), plain.compute_tx_root());
  EXPECT_EQ(sealed->compute_tx_root(), plain.compute_tx_root());
  EXPECT_TRUE(verify_block_certificate(*sealed, scheme()));
}

TEST(Block, SealedForgedBodyFailsCertificate) {
  // The body is swapped before sealing: the memo holds the forged body's
  // root, which must still be checked against the signed header root.
  Block forged = sample_block();
  forged.txs.push_back(tx_ptr(9, 0));
  EXPECT_FALSE(verify_block_certificate(*seal(std::move(forged)), scheme()));
  Block dropped = sample_block();
  dropped.txs.pop_back();
  EXPECT_FALSE(verify_block_certificate(*seal(std::move(dropped)), scheme()));
}

TEST(Block, CopyOfSealedBlockRecomputesAfterMutation) {
  const BlockPtr sealed = seal(sample_block());

  Block more_txs = *sealed;
  more_txs.txs.push_back(tx_ptr(9, 0));
  EXPECT_FALSE(verify_block_certificate(more_txs, scheme()));

  Block next_index = *sealed;
  ++next_index.header.index;
  EXPECT_NE(next_index.hash(), sealed->hash());

  // Copy assignment drops the memo as well.
  Block assigned = sample_block(4);
  assigned = *sealed;
  EXPECT_EQ(assigned.hash(), sealed->hash());
  assigned.header.tx_root[0] ^= 1;
  EXPECT_NE(assigned.hash(), sealed->hash());
  EXPECT_FALSE(verify_block_certificate(assigned, scheme()));
}

TEST(Block, WireSizeCountsTransactions) {
  const Block b = sample_block();
  std::size_t expected = 184;
  for (const auto& tx : b.txs) expected += tx->size;
  EXPECT_EQ(b.wire_size(), expected);
}

TEST(BlockCodec, RoundTripPreservesEverything) {
  const Block original = sample_block();
  const Bytes wire = encode_block(original);
  auto decoded = decode_block(wire);
  ASSERT_TRUE(decoded.is_ok()) << decoded.message();
  const Block& back = decoded.value();
  EXPECT_EQ(back.header.index, original.header.index);
  EXPECT_EQ(back.header.proposer, original.header.proposer);
  EXPECT_EQ(back.header.timestamp, original.header.timestamp);
  EXPECT_EQ(back.header.parent_hash, original.header.parent_hash);
  EXPECT_EQ(back.header.tx_root, original.header.tx_root);
  EXPECT_EQ(back.hash(), original.hash());
  ASSERT_EQ(back.txs.size(), original.txs.size());
  for (std::size_t i = 0; i < back.txs.size(); ++i) {
    EXPECT_EQ(back.txs[i]->hash, original.txs[i]->hash);
  }
  // The certificate still verifies after the round trip.
  EXPECT_TRUE(verify_block_certificate(back, scheme()));
}

TEST(BlockCodec, EmptyBlockRoundTrip) {
  const Block original =
      make_block(9, 2, 77, Hash32{}, {}, scheme().make_identity(2), scheme());
  auto decoded = decode_block(encode_block(original));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_TRUE(decoded.value().txs.empty());
  EXPECT_TRUE(verify_block_certificate(decoded.value(), scheme()));
}

TEST(BlockCodec, DecodedSuperblockBlocksKeepTheirDigests) {
  const std::vector<BlockPtr> blocks = {seal(sample_block(3)),
                                        seal(sample_block(4))};
  auto decoded = decode_superblock(encode_superblock(5, blocks));
  ASSERT_TRUE(decoded.is_ok()) << decoded.message();
  ASSERT_EQ(decoded.value().blocks.size(), blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const Block& back = *decoded.value().blocks[i];
    EXPECT_EQ(back.hash(), blocks[i]->hash());
    EXPECT_EQ(back.body_root(), blocks[i]->compute_tx_root());
    EXPECT_TRUE(verify_block_certificate(back, scheme()));
  }
}

TEST(BlockCodec, RejectsGarbage) {
  EXPECT_FALSE(decode_block(Bytes{0x01, 0x02}).is_ok());
  EXPECT_FALSE(decode_block(BytesView{}).is_ok());
}

TEST(BlockCodec, RejectsTruncated) {
  const Bytes wire = encode_block(sample_block());
  for (std::size_t cut : {1u, 10u, 50u}) {
    if (cut >= wire.size()) continue;
    const Bytes prefix(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(decode_block(prefix).is_ok()) << cut;
  }
}

TEST(BlockCodec, TamperedTxBodyFailsCertificate) {
  const Block original = sample_block();
  Bytes wire = encode_block(original);
  // Flip one byte in the tail (inside the tx list payload).
  wire[wire.size() - 3] ^= 0x01;
  auto decoded = decode_block(wire);
  if (decoded.is_ok()) {
    // If it still parses, the certificate must catch the change.
    EXPECT_FALSE(verify_block_certificate(decoded.value(), scheme()));
  }
}

TEST(BlockCodec, WireSizeEstimateIsClose) {
  const Block block = sample_block();
  const std::size_t actual = encode_block(block).size();
  const std::size_t estimate = block.wire_size();
  EXPECT_GT(estimate * 10, actual * 8);   // within ~25%
  EXPECT_LT(estimate * 10, actual * 12);
}

TEST(Block, TxRootMatchesMerkleOfHashes) {
  const Block b = sample_block();
  std::vector<Hash32> leaves;
  for (const auto& tx : b.txs) leaves.push_back(tx->hash);
  EXPECT_EQ(b.header.tx_root, crypto::merkle_root(leaves));
}

}  // namespace
}  // namespace srbb::txn
