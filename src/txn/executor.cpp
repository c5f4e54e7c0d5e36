#include "txn/executor.hpp"

#include "txn/validation.hpp"

namespace srbb::txn {

namespace {

/// The one execution path: `sender`, `signing_hash`, `id` and `intrinsic`
/// (its intrinsic gas) are the transaction's derived values, computed by
/// whoever holds them.
Result<Receipt> execute(const Transaction& tx, const Address& sender,
                        const Hash32& signing_hash, const Hash32& id,
                        std::uint64_t intrinsic, state::StateView& db,
                        const evm::BlockContext& block,
                        const ExecutionConfig& config) {
  // Pull the two accounts every transaction touches into the resident cache
  // before validation starts (no-op on fully resident states), so the reads
  // below are flat-map hits instead of interleaved backend faults.
  db.prefetch(sender);
  if (tx.kind != TxKind::kDeploy) db.prefetch(tx.to);
  // Lazy validation: checks (iii)-(v). Failure -> invalid, no transition.
  if (Status lazy = lazy_validate(tx, sender, intrinsic, db); !lazy) {
    return lazy;
  }
  // Check (i): signature, raised as an execution-time error when an invalid
  // transaction slipped past (only possible when eager validation was skipped
  // or forged by a Byzantine proposer).
  if (!config.scheme->verify(signing_hash.view(), tx.signature,
                             tx.sender_pubkey)) {
    return Status::error("exec: invalid signature (ErrInvalidSig)");
  }

  const U256 gas_prepay = tx.gas_price * U256{tx.gas_limit};

  const state::StateView::Snapshot tx_snapshot = db.snapshot();
  // Buy gas and bump the nonce; from here on the transaction is committed to
  // the block even if the EVM frame fails.
  if (!db.sub_balance(sender, gas_prepay)) {
    return Status::error("exec: cannot buy gas");
  }
  db.increment_nonce(sender);

  evm::TxContext tx_ctx;
  tx_ctx.origin = sender;
  tx_ctx.gas_price = tx.gas_price;
  evm::Evm evm{db, block, tx_ctx};
  evm.set_validate_code(config.validate_code);

  evm::Message msg;
  msg.caller = sender;
  msg.value = tx.value;
  msg.gas = tx.gas_limit - intrinsic;
  msg.data = tx.data;
  if (tx.kind == TxKind::kDeploy) {
    msg.is_create = true;
  } else {
    msg.to = tx.to;
  }

  const evm::ExecResult run = evm.execute(msg);

  Receipt receipt;
  receipt.tx_hash = id;
  receipt.success = run.ok();
  receipt.gas_used = tx.gas_limit - run.gas_left;
  if (run.ok()) {
    receipt.contract_address = run.created_address;
    receipt.logs = evm.logs();
  } else if (run.status == evm::ExecStatus::kInsufficientBalance) {
    // The sender could not fund the transfer after buying gas. Treat as an
    // invalid transaction (matches lazy check (v) being violated mid-flight).
    db.revert_to(tx_snapshot);
    return Status::error("exec: insufficient balance for value transfer");
  }

  // Refund the unused gas, pay the coinbase for the used part.
  db.add_balance(sender, tx.gas_price * U256{run.gas_left});
  if (!block.coinbase.is_zero() && receipt.gas_used > 0) {
    db.add_balance(block.coinbase, tx.gas_price * U256{receipt.gas_used});
  }
  return receipt;
}

}  // namespace

Result<Receipt> apply_transaction(const CachedTx& tx, state::StateView& db,
                                  const evm::BlockContext& block,
                                  const ExecutionConfig& config) {
  return execute(tx.tx, tx.sender, tx.signing_hash, tx.hash, tx.intrinsic_gas,
                 db, block, config);
}

Result<Receipt> apply_transaction(const Transaction& tx, state::StateView& db,
                                  const evm::BlockContext& block,
                                  const ExecutionConfig& config) {
  return execute(tx, tx.sender(), tx.signing_hash(), tx.hash(),
                 intrinsic_gas(tx), db, block, config);
}

}  // namespace srbb::txn
