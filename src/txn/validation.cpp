#include "txn/validation.hpp"

namespace srbb::txn {

std::uint64_t intrinsic_gas(const Transaction& tx) {
  std::uint64_t gas = 21'000;
  for (const std::uint8_t b : tx.data) gas += (b == 0) ? 4 : 16;
  if (tx.kind == TxKind::kDeploy) gas += 32'000;
  return gas;
}

U256 max_cost(const Transaction& tx) {
  return tx.gas_price * U256{tx.gas_limit} + tx.value;
}

Status lazy_validate(const Transaction& tx, const Address& sender,
                     const state::StateView& db) {
  const std::uint64_t account_nonce = db.nonce(sender);
  if (tx.nonce != account_nonce) {
    return Status::error("lazy: nonce is not the next sequence number");
  }
  if (tx.gas_limit < intrinsic_gas(tx)) {
    return Status::error("lazy: gas limit below intrinsic cost");
  }
  if (db.balance(sender) < max_cost(tx)) {
    return Status::error("lazy: insufficient balance for gas + value");
  }
  return Status::ok();
}

Status lazy_validate(const CachedTx& tx, const state::StateView& db) {
  return lazy_validate(tx.tx, tx.sender, db);
}

Status lazy_validate(const Transaction& tx, const state::StateView& db) {
  return lazy_validate(tx, tx.sender(), db);
}

}  // namespace srbb::txn
