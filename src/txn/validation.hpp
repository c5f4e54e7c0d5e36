// The paper's two validation tiers (§II-B):
//
//  - Eager validation runs when a transaction first arrives (from a client in
//    SRBB; from clients *and* peers in modern blockchains). It checks the
//    signature — the expensive part — plus size, balance and a nonce window.
//    txn::ValidationPipeline (txn/pipeline.hpp) is its one implementation.
//  - Lazy validation runs just before execution and checks only nonce, gas
//    affordability and balance. It is deliberately weaker and cheaper; a
//    transaction that slips through fails at execution time without touching
//    state (Alg. 1 lines 32-40).
#pragma once

#include <cstdint>

#include "common/status.hpp"
#include "evm/analysis/cache.hpp"
#include "state/statedb.hpp"
#include "txn/transaction.hpp"
#include "txn/txref.hpp"

namespace srbb::txn {

struct ValidationConfig {
  std::size_t max_tx_size = 128 * 1024;  // bytes on the wire
  std::uint64_t min_gas_limit = 21'000;
  /// How far ahead of the account nonce a pending tx may be queued.
  std::uint64_t nonce_window = 1024;
  /// Static min-gas gate (check (vi), PR 5): an invoke whose gas budget is
  /// below the callee's statically-proven minimum for any successful path is
  /// doomed work — drop it at eager time instead of shipping it through
  /// consensus. nullptr disables the gate.
  evm::analysis::AnalysisCache* analysis_cache =
      &evm::analysis::AnalysisCache::global();
};

/// Cheap pre-execution check of `tx` sent by `sender`, whose intrinsic gas
/// is `intrinsic`: (iii) nonce is next, (iv) gas covered, (v) value
/// covered. No signature verification. The one definition of checks
/// (iii)-(v); the overloads below only supply `sender` and `intrinsic`.
Status lazy_validate(const Transaction& tx, const Address& sender,
                     std::uint64_t intrinsic, const state::StateView& db);
/// Lazy checks with the sender the CachedTx already holds.
Status lazy_validate(const CachedTx& tx, const state::StateView& db);
/// Lazy checks deriving the sender from the public key.
Status lazy_validate(const Transaction& tx, const state::StateView& db);

/// Maximum wei the transaction can cost: gas budget plus transferred value.
U256 max_cost(const Transaction& tx);

}  // namespace srbb::txn
