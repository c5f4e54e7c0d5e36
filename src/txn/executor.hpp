// Transaction execution against the world state — the paper's execute(t)
// (Alg. 1 lines 32-40): lazy-validate, then ApplyTransaction. Returns an
// error (no state transition) for *invalid* transactions, which the commit
// loop discards from the block; a *valid* transaction that merely reverts
// still consumes gas and is recorded with a failed receipt.
#pragma once

#include <vector>

#include "common/status.hpp"
#include "crypto/signature.hpp"
#include "evm/interpreter.hpp"
#include "state/statedb.hpp"
#include "txn/transaction.hpp"
#include "txn/txref.hpp"

namespace srbb::evm::analysis {
class AnalysisCache;
}

namespace srbb::txn {

struct Receipt {
  Hash32 tx_hash;
  bool success = false;       // false when the EVM frame reverted/failed
  std::uint64_t gas_used = 0;
  Address contract_address;   // set for deployments
  std::vector<evm::LogEntry> logs;
};

struct ExecutionConfig {
  /// Scheme for the execution-time signature check (check (i) of §IV-D: the
  /// VM raises the equivalent of ErrInvalidSig).
  const crypto::SignatureScheme* scheme = &crypto::SignatureScheme::ed25519();

  /// CREATE-time static code validation (evm/analysis): deployments whose
  /// init or runtime code is provably doomed fail with kCodeRejected instead
  /// of entering the interpreter. Compat flag — turn off to accept any
  /// bytecode, as before the analyzer existed.
  bool validate_code = true;

  // --- Parallel optimistic execution (parallel_executor.hpp) ---
  /// Execute superblocks with the Block-STM-style optimistic executor
  /// instead of one transaction at a time. Results are bit-identical to
  /// sequential execution; off by default until callers opt in.
  bool parallel = false;
  /// Speculation threads (0 = hardware concurrency).
  std::size_t workers = 0;
  /// Optimistic rounds before the remaining transactions fall back to
  /// sequential execution. With analysis_hints on, the budget counts only
  /// rounds that aborted a speculation — hint-serialized rounds are paced,
  /// not failing.
  std::size_t max_retries = 3;

  /// Conflict-aware pre-scheduling from static storage summaries
  /// (docs/ANALYSIS.md §rw-sets): each transaction's predicted rw-set gates
  /// when it speculates, so known conflicts serialize instead of aborting;
  /// ⊤-verdict transactions keep blind speculation. Hints steer scheduling
  /// only — every commit still runs the read-set validation, so receipts and
  /// state are bit-identical with hints on, off, or wrong. Off by default.
  bool analysis_hints = false;
  /// Analysis cache consulted for storage summaries when analysis_hints is
  /// on; nullptr selects the process-global cache (the one the interpreter
  /// already fills, so predictions are usually cache hits).
  evm::analysis::AnalysisCache* hint_cache = nullptr;
};

/// Execute one transaction. Status error == invalid transaction (lazy
/// validation or signature failed): state is untouched and the caller should
/// discard the transaction (Alg. 1 line 23). The sender, signing digest and
/// receipt id are the ones the CachedTx already holds.
Result<Receipt> apply_transaction(const CachedTx& tx, state::StateView& db,
                                  const evm::BlockContext& block,
                                  const ExecutionConfig& config);
/// The same execution for a bare transaction: derives the three digests,
/// then runs the same code as the CachedTx overload.
Result<Receipt> apply_transaction(const Transaction& tx, state::StateView& db,
                                  const evm::BlockContext& block,
                                  const ExecutionConfig& config);

}  // namespace srbb::txn
