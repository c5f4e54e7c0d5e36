// Differential oracle: the copying transaction decoder, as it stood beside
// the zero-copy Transaction::decode. It parses through rlp::decode, which
// copies every payload into an Item tree, and shares no code with the view
// path; both must agree on every input, byte for byte and error for error.
// Only tests, fuzz harnesses and the codec microbenchmark include this file.
#pragma once

#include <cstring>

#include "codec/rlp.hpp"
#include "common/bytes.hpp"
#include "common/status.hpp"
#include "txn/transaction.hpp"

namespace srbb::txn::oracle {

inline Result<Transaction> decode_copying(BytesView wire) {
  auto doc = rlp::decode(wire);
  if (!doc) return doc.status();
  const rlp::Item& root = doc.value();
  if (!root.is_list || root.items.size() != 9) {
    return Status::error("tx: expected 9-item list");
  }
  Transaction tx;
  auto kind = root.items[0].as_u64();
  if (!kind || kind.value() > 2) return Status::error("tx: bad kind");
  tx.kind = static_cast<TxKind>(kind.value());
  auto nonce = root.items[1].as_u64();
  if (!nonce) return nonce.status();
  tx.nonce = nonce.value();
  auto gas_price = root.items[2].as_u256();
  if (!gas_price) return gas_price.status();
  tx.gas_price = gas_price.value();
  auto gas_limit = root.items[3].as_u64();
  if (!gas_limit) return gas_limit.status();
  tx.gas_limit = gas_limit.value();
  if (root.items[4].is_list || root.items[4].payload.size() != 20) {
    return Status::error("tx: bad to-address");
  }
  tx.to = Address{BytesView{root.items[4].payload}};
  auto value = root.items[5].as_u256();
  if (!value) return value.status();
  tx.value = value.value();
  if (root.items[6].is_list) return Status::error("tx: bad data field");
  tx.data = root.items[6].payload;
  if (root.items[7].is_list || root.items[7].payload.size() != 32) {
    return Status::error("tx: bad public key");
  }
  std::memcpy(tx.sender_pubkey.data(), root.items[7].payload.data(), 32);
  if (root.items[8].is_list || root.items[8].payload.size() != 64) {
    return Status::error("tx: bad signature");
  }
  std::memcpy(tx.signature.data(), root.items[8].payload.data(), 64);
  return tx;
}

}  // namespace srbb::txn::oracle
