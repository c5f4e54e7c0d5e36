#include "txn/pipeline.hpp"

#include <string>

#include "evm/analysis/interproc.hpp"

namespace srbb::txn {

namespace {

Status structural_check(const CachedTx& cached,
                        const ValidationConfig& config) {
  // (ii) size limit first: cheap and bounds later work. The cached wire size
  // equals tx.wire_size() — the codec round-trip is canonical.
  if (cached.size > config.max_tx_size) {
    return Status::error("eager: transaction exceeds size limit");
  }
  if (cached.tx.gas_limit < config.min_gas_limit ||
      cached.tx.gas_limit < cached.intrinsic_gas) {
    return Status::error("eager: gas limit below intrinsic cost");
  }
  return Status::ok();
}

Status state_check(const CachedTx& cached, const state::StateView& db,
                   const ValidationConfig& config) {
  const Transaction& tx = cached.tx;
  const Address& sender = cached.sender;
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
  // (vi) static min-gas gate: every successful path through the callee costs
  // at least its statically-analyzed minimum, so a budget below that cannot
  // buy a successful execution — reject before it reaches consensus. The
  // *composed* bound (interproc.hpp) also charges guarded resolved call
  // sites their callee's minimum, so an invoke of a router contract is gated
  // on the whole call tree, not just the router's own frame.
  if (config.analysis_cache != nullptr && tx.kind == TxKind::kInvoke) {
    const Bytes& code = db.code(tx.to);
    if (!code.empty()) {
      const auto composed = evm::analysis::InterprocCache::global().get(
          db, tx.to, *config.analysis_cache);
      const std::uint64_t budget = tx.gas_limit - cached.intrinsic_gas;
      if (composed->min_gas ==
              evm::analysis::AnalysisResult::kNoSuccessfulPath ||
          budget < composed->min_gas) {
        return Status::error("eager: gas limit below callee static minimum");
      }
    }
  }
  return Status::ok();
}

constexpr const char* kInvalidSignature = "eager: invalid signature";

}  // namespace

void ValidationPipeline::CheckCounters::add(std::size_t passed,
                                            std::size_t failed) const {
  if (pass == nullptr) return;
  pass->inc(passed);
  fail->inc(failed);
}

ValidationPipeline::ValidationPipeline(const crypto::SignatureScheme& scheme,
                                       ValidationConfig config,
                                       obs::MetricsRegistry* metrics)
    : scheme_(&scheme), config_(config) {
  if (metrics == nullptr) return;
  const auto counters = [metrics](const char* check) {
    const std::string base = std::string("validate.stage.") + check;
    return CheckCounters{&metrics->counter(base + ".pass"),
                         &metrics->counter(base + ".fail")};
  };
  structural_ = counters("structural");
  signature_ = counters("signature");
  state_ = counters("state");
}

std::vector<Status> ValidationPipeline::validate(
    std::span<const TxPtr> txs, const state::StateView& db) const {
  std::vector<Status> results(txs.size());
  std::vector<std::uint32_t> live;  // indices still passing
  std::vector<crypto::BatchVerifyItem> items;
  live.reserve(txs.size());
  items.reserve(txs.size());
  for (std::size_t i = 0; i < txs.size(); ++i) {
    const CachedTx& cached = *txs[i];
    results[i] = structural_check(cached, config_);
    if (!results[i].is_ok()) continue;
    // The message is a view of the cached signing digest, which the TxPtr
    // keeps alive across the verify_batch call.
    items.push_back({cached.signing_hash.view(), cached.tx.signature,
                     cached.tx.sender_pubkey});
    live.push_back(static_cast<std::uint32_t>(i));
  }
  structural_.add(live.size(), txs.size() - live.size());

  // (i) one batch over every structurally valid item.
  std::size_t signed_ok = live.size();
  if (!items.empty()) {
    const std::vector<bool> ok = scheme_->verify_batch(items);
    for (std::size_t j = 0; j < live.size(); ++j) {
      if (ok[j]) continue;
      results[live[j]] = Status::error(kInvalidSignature);
      --signed_ok;
    }
  }
  signature_.add(signed_ok, live.size() - signed_ok);

  std::size_t state_ok = 0;
  for (const std::uint32_t i : live) {
    if (!results[i].is_ok()) continue;
    results[i] = state_check(*txs[i], db, config_);
    state_ok += results[i].is_ok() ? 1 : 0;
  }
  state_.add(state_ok, signed_ok - state_ok);
  return results;
}

Status ValidationPipeline::validate_one(const CachedTx& tx,
                                        const state::StateView& db) const {
  Status status = structural_check(tx, config_);
  if (!status.is_ok()) return status;
  // (i) the single verify, never a one-item verify_batch (see header).
  if (!scheme_->verify(tx.signing_hash.view(), tx.tx.signature,
                       tx.tx.sender_pubkey)) {
    return Status::error(kInvalidSignature);
  }
  return state_check(tx, db, config_);
}

}  // namespace srbb::txn
