// Optimistic parallel superblock execution (Block-STM / Reddio style).
//
// Every pending transaction of a superblock executes speculatively, in
// parallel, against an OverlayState view of the committed StateDB: reads are
// recorded, writes buffered. A deterministic commit pass then walks the
// transactions in canonical order, re-validates each recorded read against
// the live state and either commits the buffered write-set or schedules the
// transaction for re-execution in the next round. The first pending
// transaction always validates (its speculation base equals the live state
// at its commit point), so every round commits at least one transaction;
// after `max_retries` rounds the remainder executes sequentially. The final
// receipts and state are bit-identical to sequential execution — see
// DESIGN.md "Parallel execution" for the argument.
#pragma once

#include <cstdint>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/time.hpp"
#include "obs/trace.hpp"
#include "state/statedb.hpp"
#include "txn/executor.hpp"
#include "txn/rwset.hpp"

namespace srbb::obs {
class MetricsRegistry;
class Counter;
}  // namespace srbb::obs

namespace srbb::txn {

/// Per-superblock counters surfaced through IndexExecResult.
struct ParallelExecStats {
  std::uint64_t txs = 0;               // transactions executed
  std::uint64_t speculative_runs = 0;  // overlay executions (>= txs)
  std::uint64_t aborts = 0;            // failed validations (re-runs)
  std::uint64_t fallback_txs = 0;      // committed via sequential fallback
  std::uint64_t rounds = 0;            // optimistic rounds used

  // Analysis-hint scheduling (ExecutionConfig::analysis_hints):
  std::uint64_t hinted_txs = 0;       // usable (non-⊤) predictions
  std::uint64_t top_txs = 0;          // ⊤ predictions (blind speculation)
  std::uint64_t hint_deferrals = 0;   // tx-rounds held back by a conflict
  std::uint64_t hint_violations = 0;  // predicted ⊉ observed (guard aborts)

  /// Fraction of speculative executions that had to be thrown away.
  double conflict_rate() const {
    return speculative_runs == 0
               ? 0.0
               : static_cast<double>(aborts) /
                     static_cast<double>(speculative_runs);
  }

  ParallelExecStats& operator+=(const ParallelExecStats& other) {
    txs += other.txs;
    speculative_runs += other.speculative_runs;
    aborts += other.aborts;
    fallback_txs += other.fallback_txs;
    rounds += other.rounds;
    hinted_txs += other.hinted_txs;
    top_txs += other.top_txs;
    hint_deferrals += other.hint_deferrals;
    hint_violations += other.hint_violations;
    return *this;
  }
};

/// Executor-internal tracing: category-"exec" events (per-round progress,
/// sequential fallback) emitted into `sink`, stamped with the fixed simulated
/// time `at` — the executor runs between sim events, so every event of one
/// block shares one timestamp. Only the coordinator thread emits; worker
/// threads never touch the sink. These events are deliberately the only
/// difference between a sequential and a parallel trace of the same block
/// (tests/test_parallel_executor.cpp asserts equality after filtering them).
struct ExecTraceContext {
  obs::TraceSink* sink = nullptr;
  SimTime at = 0;
  std::uint32_t node = 0;
};

class ParallelExecutor {
 public:
  /// `workers` == 0 selects hardware concurrency.
  explicit ParallelExecutor(std::size_t workers = 0,
                            std::size_t max_retries = 3);

  /// Execute `txs` (canonical superblock order) against `db`, mutating it
  /// exactly as the equivalent sequence of apply_transaction calls would.
  /// Returns one Result<Receipt> per transaction, in order; errors mark
  /// invalid transactions (discarded, no state transition), exactly as in
  /// sequential execution.
  ///
  /// With config.analysis_hints set, predicted rw-sets (txn/rwset.hpp) gate
  /// which pending transactions speculate each round; `hint_override`, when
  /// non-null, supplies precomputed (or deliberately wrong, in tests)
  /// predictions instead of resolving them here — receipts are bit-identical
  /// regardless, because the commit pass still validates every read-set.
  std::vector<Result<Receipt>> execute_block(
      const std::vector<const Transaction*>& txs, state::StateDB& db,
      const evm::BlockContext& block, const ExecutionConfig& config,
      ParallelExecStats* stats = nullptr, const ExecTraceContext& trace = {},
      const std::vector<PredictedRwSet>* hint_override = nullptr);

  /// Publish `analysis.rwset.hit` / `analysis.rwset.miss` /
  /// `analysis.rwset.violation` counters (per-tx prediction outcomes and
  /// runtime-guard trips). Pass nullptr to detach. Increments happen on the
  /// coordinator thread only, so totals reconcile exactly with the stats.
  void set_metrics(obs::MetricsRegistry* registry);

 private:
  ThreadPool pool_;
  std::size_t max_retries_;
  obs::Counter* hint_hit_counter_ = nullptr;
  obs::Counter* hint_miss_counter_ = nullptr;
  obs::Counter* hint_violation_counter_ = nullptr;
};

}  // namespace srbb::txn
