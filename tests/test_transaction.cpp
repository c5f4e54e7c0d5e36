#include "txn/transaction.hpp"

#include <gtest/gtest.h>

#include "txn/txref.hpp"

namespace srbb::txn {
namespace {

const crypto::SignatureScheme& scheme() {
  return crypto::SignatureScheme::ed25519();
}

Transaction sample_tx(std::uint64_t sender_id = 1, std::uint64_t nonce = 0) {
  TxParams params;
  params.kind = TxKind::kTransfer;
  params.nonce = nonce;
  params.gas_price = U256{3};
  params.gas_limit = 30'000;
  params.to = Address::from_hex_str(std::string(40, '2')).value();
  params.value = U256{12345};
  params.data = Bytes{0xde, 0xad};
  return make_signed(params, scheme().make_identity(sender_id), scheme());
}

TEST(Transaction, SignatureVerifies) {
  const Transaction tx = sample_tx();
  EXPECT_TRUE(verify_signature(tx, scheme()));
}

TEST(Transaction, TamperedFieldBreaksSignature) {
  Transaction tx = sample_tx();
  tx.value = tx.value + U256::one();
  EXPECT_FALSE(verify_signature(tx, scheme()));
}

TEST(Transaction, TamperedDataBreaksSignature) {
  Transaction tx = sample_tx();
  tx.data.push_back(0x00);
  EXPECT_FALSE(verify_signature(tx, scheme()));
}

TEST(Transaction, ForeignPubkeyBreaksSignature) {
  Transaction tx = sample_tx(1);
  tx.sender_pubkey = scheme().make_identity(2).public_key;
  EXPECT_FALSE(verify_signature(tx, scheme()));
}

TEST(Transaction, MakeSignedTxMatchesMakeTxPtrOfMakeSigned) {
  for (const crypto::SignatureScheme* s :
       {&crypto::SignatureScheme::ed25519(),
        &crypto::SignatureScheme::fast_sim()}) {
    SCOPED_TRACE(s->name());
    for (const TxKind kind :
         {TxKind::kTransfer, TxKind::kDeploy, TxKind::kInvoke}) {
      TxParams params;
      params.kind = kind;
      params.nonce = 4;
      params.gas_price = U256{3};
      params.to = s->make_identity(8).address();
      params.value = U256{12345};
      params.data = Bytes{0xde, 0xad, 0x00};
      const crypto::Identity id = s->make_identity(1);
      const TxPtr direct = make_signed_tx(params, id, *s);
      const TxPtr reference = make_tx_ptr(make_signed(params, id, *s));
      EXPECT_EQ(direct->tx, reference->tx);
      EXPECT_EQ(direct->hash, reference->hash);
      EXPECT_EQ(direct->signing_hash, reference->signing_hash);
      EXPECT_EQ(direct->size, reference->size);
      EXPECT_EQ(direct->sender, reference->sender);
      EXPECT_TRUE(verify_signature(direct->tx, *s));
    }
  }
}

TEST(Transaction, EncodeDecodeRoundTrip) {
  const Transaction tx = sample_tx();
  auto decoded = Transaction::decode(tx.encode());
  ASSERT_TRUE(decoded.is_ok()) << decoded.message();
  EXPECT_EQ(decoded.value(), tx);
  EXPECT_TRUE(verify_signature(decoded.value(), scheme()));
}

TEST(Transaction, RoundTripAllKinds) {
  for (TxKind kind : {TxKind::kTransfer, TxKind::kDeploy, TxKind::kInvoke}) {
    TxParams params;
    params.kind = kind;
    params.nonce = 9;
    params.data = Bytes(100, 0x61);
    const Transaction tx =
        make_signed(params, scheme().make_identity(4), scheme());
    auto decoded = Transaction::decode(tx.encode());
    ASSERT_TRUE(decoded.is_ok());
    EXPECT_EQ(decoded.value().kind, kind);
    EXPECT_EQ(decoded.value(), tx);
  }
}

TEST(Transaction, DecodeRejectsGarbage) {
  EXPECT_FALSE(Transaction::decode(Bytes{0x01, 0x02, 0x03}).is_ok());
  EXPECT_FALSE(Transaction::decode(BytesView{}).is_ok());
}

TEST(Transaction, DecodeRejectsTruncated) {
  const Bytes wire = sample_tx().encode();
  const Bytes cut{wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(wire.size() / 2)};
  EXPECT_FALSE(Transaction::decode(cut).is_ok());
}

TEST(Transaction, HashIsStableAndUnique) {
  const Transaction a = sample_tx(1, 0);
  const Transaction b = sample_tx(1, 1);
  const Transaction c = sample_tx(2, 0);
  EXPECT_EQ(a.hash(), sample_tx(1, 0).hash());
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_NE(a.hash(), c.hash());
}

TEST(Transaction, SenderDerivesFromPubkey) {
  const Transaction tx = sample_tx(7);
  EXPECT_EQ(tx.sender(), scheme().make_identity(7).address());
}

TEST(CachedTx, CachesHashSizeSender) {
  const Transaction tx = sample_tx();
  const TxPtr ptr = make_tx_ptr(tx);
  EXPECT_EQ(ptr->hash, tx.hash());
  EXPECT_EQ(ptr->size, tx.encode().size());
  EXPECT_EQ(ptr->sender, tx.sender());
}

}  // namespace
}  // namespace srbb::txn
