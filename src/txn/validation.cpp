#include "txn/validation.hpp"

namespace srbb::txn {

U256 max_cost(const Transaction& tx) {
  return tx.gas_price * U256{tx.gas_limit} + tx.value;
}

Status lazy_validate(const Transaction& tx, const Address& sender,
                     std::uint64_t intrinsic, const state::StateView& db) {
  const std::uint64_t account_nonce = db.nonce(sender);
  if (tx.nonce != account_nonce) {
    return Status::error("lazy: nonce is not the next sequence number");
  }
  if (tx.gas_limit < intrinsic) {
    return Status::error("lazy: gas limit below intrinsic cost");
  }
  if (db.balance(sender) < max_cost(tx)) {
    return Status::error("lazy: insufficient balance for gas + value");
  }
  return Status::ok();
}

Status lazy_validate(const CachedTx& tx, const state::StateView& db) {
  return lazy_validate(tx.tx, tx.sender, tx.intrinsic_gas, db);
}

Status lazy_validate(const Transaction& tx, const state::StateView& db) {
  return lazy_validate(tx, tx.sender(), intrinsic_gas(tx), db);
}

}  // namespace srbb::txn
