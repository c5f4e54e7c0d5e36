// Eager validation (the paper's first tier, §II-B; DESIGN.md §11). Checks
// (i)-(vi) run in two groups around the signature check, cheapest first:
//
//   structural  (ii) wire-size cap, gas floor / intrinsic cost
//   signature   (i)  sender signature
//   state       (iii) nonce window, (iv)+(v) balance,
//               (vi) static min-gas gate
//
// A transaction stops at its first failing check, and every failure has one
// fixed Status string. validate() verifies the signatures of a whole batch
// with one SignatureScheme::verify_batch call — for ed25519 one multi-scalar
// multiplication — which is where the per-item cost collapses to well under
// one independent verify. validate_one() calls the single verify and never
// runs batch code: a batch of two or more ed25519 items can accept a
// torsion-only defect that verify rejects (docs/PERF.md "Soundness
// caveat").
//
// Both read only cached per-transaction values (CachedTx size, signing hash,
// sender), so validating never re-encodes or re-hashes a transaction.
#pragma once

#include <span>
#include <vector>

#include "common/status.hpp"
#include "crypto/signature.hpp"
#include "obs/metrics.hpp"
#include "txn/txref.hpp"
#include "txn/validation.hpp"

namespace srbb::txn {

class ValidationPipeline {
 public:
  /// With `metrics`, validate() counts each check's survivors and failures
  /// as "validate.stage.<structural|signature|state>.pass|fail".
  ValidationPipeline(const crypto::SignatureScheme& scheme,
                     ValidationConfig config,
                     obs::MetricsRegistry* metrics = nullptr);

  /// Validate a batch: results[i] is the Status validate_one would return
  /// for txs[i]. One verify_batch call covers the structurally valid items.
  std::vector<Status> validate(std::span<const TxPtr> txs,
                               const state::StateView& db) const;

  /// Single-transaction path, used by per-event callers (validator nodes
  /// inside the sim) so their per-transaction trace cadence is unchanged.
  /// Counts nothing.
  Status validate_one(const CachedTx& tx, const state::StateView& db) const;

 private:
  struct CheckCounters {
    obs::Counter* pass = nullptr;  // both null without a registry
    obs::Counter* fail = nullptr;
    void add(std::size_t passed, std::size_t failed) const;
  };

  const crypto::SignatureScheme* scheme_;
  ValidationConfig config_;
  CheckCounters structural_, signature_, state_;
};

}  // namespace srbb::txn
