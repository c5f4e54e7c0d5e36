#include "txn/transaction.hpp"

#include <cstring>

#include "codec/rlp.hpp"
#include "crypto/keccak.hpp"
#include "txn/txref.hpp"

namespace srbb::txn {

namespace {

rlp::ListBuilder unsigned_fields(const Transaction& tx) {
  rlp::ListBuilder rlp;
  rlp.add_u64(static_cast<std::uint64_t>(tx.kind));
  rlp.add_u64(tx.nonce);
  rlp.add_u256(tx.gas_price);
  rlp.add_u64(tx.gas_limit);
  rlp.add_bytes(tx.to.view());
  rlp.add_u256(tx.value);
  rlp.add_bytes(tx.data);
  return rlp;
}

/// Fill every field but the signature; returns the digest to sign.
Hash32 fill_unsigned(Transaction& tx, const TxParams& params,
                     const crypto::Identity& identity) {
  tx.kind = params.kind;
  tx.nonce = params.nonce;
  tx.gas_price = params.gas_price;
  tx.gas_limit = params.gas_limit;
  tx.to = params.to;
  tx.value = params.value;
  tx.data = params.data;
  tx.sender_pubkey = identity.public_key;
  return tx.signing_hash();
}

}  // namespace

Address Transaction::sender() const {
  return crypto::address_from_pubkey(
      BytesView{sender_pubkey.data(), sender_pubkey.size()});
}

Hash32 Transaction::signing_hash() const {
  return crypto::Keccak256::hash(unsigned_fields(*this).build());
}

Hash32 Transaction::hash() const {
  return crypto::Keccak256::hash(encode());
}

Bytes Transaction::encode() const {
  rlp::ListBuilder rlp = unsigned_fields(*this);
  rlp.add_bytes(BytesView{sender_pubkey.data(), sender_pubkey.size()});
  rlp.add_bytes(BytesView{signature.data(), signature.size()});
  return rlp.build();
}

std::size_t Transaction::wire_size() const { return encode().size(); }

Result<Transaction> Transaction::decode(BytesView wire) {
  rlp::ViewDoc doc;
  auto root = rlp::decode_view(wire, doc);
  if (!root) return root.status();
  return decode_tx_view(root.value());
}

Result<Transaction> decode_tx_view(const rlp::ItemView& root) {
  if (!root.is_list() || root.size() != 9) {
    return Status::error("tx: expected 9-item list");
  }
  // One O(n) sibling walk instead of nine O(i) child() lookups.
  rlp::ItemView f[9];
  f[0] = root.child(0);
  for (std::size_t i = 1; i < 9; ++i) f[i] = f[i - 1].next_sibling();

  Transaction tx;
  auto kind = f[0].as_u64();
  if (!kind || kind.value() > 2) return Status::error("tx: bad kind");
  tx.kind = static_cast<TxKind>(kind.value());
  auto nonce = f[1].as_u64();
  if (!nonce) return nonce.status();
  tx.nonce = nonce.value();
  auto gas_price = f[2].as_u256();
  if (!gas_price) return gas_price.status();
  tx.gas_price = gas_price.value();
  auto gas_limit = f[3].as_u64();
  if (!gas_limit) return gas_limit.status();
  tx.gas_limit = gas_limit.value();
  if (f[4].is_list() || f[4].payload().size() != 20) {
    return Status::error("tx: bad to-address");
  }
  tx.to = Address{f[4].payload()};
  auto value = f[5].as_u256();
  if (!value) return value.status();
  tx.value = value.value();
  if (f[6].is_list()) return Status::error("tx: bad data field");
  tx.data.assign(f[6].payload().begin(), f[6].payload().end());
  if (f[7].is_list() || f[7].payload().size() != 32) {
    return Status::error("tx: bad public key");
  }
  std::memcpy(tx.sender_pubkey.data(), f[7].payload().data(), 32);
  if (f[8].is_list() || f[8].payload().size() != 64) {
    return Status::error("tx: bad signature");
  }
  std::memcpy(tx.signature.data(), f[8].payload().data(), 64);
  return tx;
}

Transaction make_signed(const TxParams& params, const crypto::Identity& identity,
                        const crypto::SignatureScheme& scheme) {
  Transaction tx;
  const Hash32 digest = fill_unsigned(tx, params, identity);
  tx.signature = scheme.sign(identity, digest.view());
  return tx;
}

TxPtr make_signed_tx(const TxParams& params, const crypto::Identity& identity,
                     const crypto::SignatureScheme& scheme) {
  Transaction tx;
  const Hash32 digest = fill_unsigned(tx, params, identity);
  tx.signature = scheme.sign(identity, digest.view());
  return std::make_shared<const CachedTx>(std::move(tx),
                                          CachedTx::SignedDigest{digest});
}

std::uint64_t intrinsic_gas(const Transaction& tx) {
  std::uint64_t gas = 21'000;
  for (const std::uint8_t b : tx.data) gas += (b == 0) ? 4 : 16;
  if (tx.kind == TxKind::kDeploy) gas += 32'000;
  return gas;
}

bool verify_signature(const Transaction& tx,
                      const crypto::SignatureScheme& scheme) {
  const Hash32 digest = tx.signing_hash();
  return scheme.verify(digest.view(), tx.signature, tx.sender_pubkey);
}

}  // namespace srbb::txn
