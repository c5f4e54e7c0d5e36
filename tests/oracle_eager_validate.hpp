// Differential oracle: eager validation written as one function over a bare
// Transaction, the way it stood before txn::ValidationPipeline. It
// re-encodes for the size check, re-hashes for the signature check and
// re-derives the sender, so it shares no cached field with the pipeline;
// both must return the same Status, string included, for every input.
// Only tests and the validation microbenchmark include this file.
#pragma once

#include "common/status.hpp"
#include "crypto/signature.hpp"
#include "evm/analysis/interproc.hpp"
#include "state/statedb.hpp"
#include "txn/transaction.hpp"
#include "txn/validation.hpp"

namespace srbb::txn::oracle {

/// Full check: signature (i), size (ii), nonce window (iii), gas
/// affordability (iv), transferred value coverage (v), static min-gas
/// gate (vi).
inline Status eager_validate(const Transaction& tx, const state::StateView& db,
                             const crypto::SignatureScheme& scheme,
                             const ValidationConfig& config) {
  // (ii) size limit first: cheap and bounds later work.
  if (tx.wire_size() > config.max_tx_size) {
    return Status::error("eager: transaction exceeds size limit");
  }
  if (tx.gas_limit < config.min_gas_limit ||
      tx.gas_limit < intrinsic_gas(tx)) {
    return Status::error("eager: gas limit below intrinsic cost");
  }
  // (i) signature — the expensive check that TVPR avoids repeating n times.
  if (!verify_signature(tx, scheme)) {
    return Status::error("eager: invalid signature");
  }
  const Address sender = tx.sender();
  // (iii) nonce must not be in the past, and not absurdly far in the future.
  const std::uint64_t account_nonce = db.nonce(sender);
  if (tx.nonce < account_nonce) {
    return Status::error("eager: stale nonce");
  }
  if (tx.nonce > account_nonce + config.nonce_window) {
    return Status::error("eager: nonce too far in the future");
  }
  // (iv) + (v) the account can afford worst-case gas plus the value moved.
  if (db.balance(sender) < max_cost(tx)) {
    return Status::error("eager: insufficient balance for gas + value");
  }
  // (vi) static min-gas gate over the composed interprocedural bound.
  if (config.analysis_cache != nullptr && tx.kind == TxKind::kInvoke) {
    const Bytes& code = db.code(tx.to);
    if (!code.empty()) {
      const auto composed = evm::analysis::InterprocCache::global().get(
          db, tx.to, *config.analysis_cache);
      const std::uint64_t budget = tx.gas_limit - intrinsic_gas(tx);
      if (composed->min_gas == evm::analysis::AnalysisResult::kNoSuccessfulPath ||
          budget < composed->min_gas) {
        return Status::error("eager: gas limit below callee static minimum");
      }
    }
  }
  return Status::ok();
}

}  // namespace srbb::txn::oracle
