#include "srbb/oracle.hpp"

namespace srbb::node {

namespace {

// Shared by the sequential and parallel paths so both produce identical
// per-transaction accounting.
TxOutcome outcome_from(const txn::TxPtr& tx,
                       const Result<txn::Receipt>& receipt,
                       IndexExecResult& result) {
  TxOutcome outcome;
  outcome.hash = tx->hash;
  if (receipt.is_ok()) {
    outcome.valid = true;
    outcome.executed_ok = receipt.value().success;
    outcome.gas_used = receipt.value().gas_used;
    outcome.fee = tx->tx.gas_price * U256{receipt.value().gas_used};
    ++result.total_valid;
  } else {
    // Invalid transaction: no state transition; discard from the block
    // (Alg. 1 line 23).
    ++result.total_invalid;
  }
  return outcome;
}

}  // namespace

ExecutionOracle::ExecutionOracle(const GenesisSpec& genesis,
                                 evm::BlockContext block_template,
                                 const crypto::SignatureScheme& scheme)
    : genesis_(genesis), block_template_(block_template) {
  genesis_.apply(db_);
  exec_config_.scheme = &scheme;
}

void ExecutionOracle::reset() {
  db_ = state::StateDB{};
  genesis_.apply(db_);
  results_.clear();
  committed_at_.clear();
}

const IndexExecResult& ExecutionOracle::execute(
    std::uint64_t index, const std::vector<txn::BlockPtr>& blocks) {
  return execute(index, blocks, ExecContext{});
}

const IndexExecResult& ExecutionOracle::execute(
    std::uint64_t index, const std::vector<txn::BlockPtr>& blocks,
    const ExecContext& ctx) {
  if (const auto it = results_.find(index); it != results_.end()) {
    return it->second;
  }
  IndexExecResult result;
  evm::BlockContext block_ctx = block_template_;
  block_ctx.number = index;

  if (exec_config_.parallel) {
    // Flatten the superblock into canonical order (block order, then
    // transaction order) and hand it to the optimistic executor; receipts
    // come back in the same order and scatter into per-block outcomes.
    std::vector<const txn::Transaction*> flat;
    for (const txn::BlockPtr& block : blocks) {
      for (const txn::TxPtr& tx : block->txs) flat.push_back(&tx->tx);
    }
    if (!parallel_) {
      parallel_ = std::make_unique<txn::ParallelExecutor>(
          exec_config_.workers, exec_config_.max_retries);
    }
    const std::vector<Result<txn::Receipt>> receipts =
        parallel_->execute_block(flat, db_, block_ctx, exec_config_,
                                 &result.parallel,
                                 txn::ExecTraceContext{ctx.trace, ctx.at,
                                                       ctx.node});
    std::size_t next = 0;
    for (const txn::BlockPtr& block : blocks) {
      BlockExecResult block_result;
      block_result.proposer = block->header.proposer;
      for (const txn::TxPtr& tx : block->txs) {
        block_result.outcomes.push_back(
            outcome_from(tx, receipts[next++], result));
      }
      result.blocks.push_back(std::move(block_result));
    }
  } else {
    for (const txn::BlockPtr& block : blocks) {
      BlockExecResult block_result;
      block_result.proposer = block->header.proposer;
      for (const txn::TxPtr& tx : block->txs) {
        const auto receipt =
            txn::apply_transaction(*tx, db_, block_ctx, exec_config_);
        block_result.outcomes.push_back(outcome_from(tx, receipt, result));
      }
      result.blocks.push_back(std::move(block_result));
    }
  }
  db_.commit();
  result.state_root = db_.state_root();
  for (const BlockExecResult& block_result : result.blocks) {
    for (const TxOutcome& outcome : block_result.outcomes) {
      if (outcome.valid) committed_at_.try_emplace(outcome.hash, index);
    }
  }
  SRBB_TRACE(ctx.trace, ctx.at, 0, ctx.node, "commit", "superblock.exec",
             "index", index, "valid", result.total_valid);
  return results_.emplace(index, std::move(result)).first->second;
}

}  // namespace srbb::node
