// Deterministic block execution. The oracle owns a StateDB and replays
// decided blocks index by index, exactly once per index, discarding invalid
// transactions (Alg. 1 lines 19-26).
//
// Execution modes (see DESIGN.md):
//  - Replicated: each validator owns a private oracle and really executes
//    every block through the EVM — used by tests to check that replicas
//    converge to identical state roots.
//  - Shared: validators share one oracle; the first to commit an index
//    executes it, the rest reuse the memoized result (identical by
//    determinism) while still being charged the modelled CPU time. This is
//    what makes 200-validator benchmark runs laptop-feasible. A shared
//    oracle also owns the run's one commit-membership index (Alg. 1 l.6,
//    "t not in blockchain"): every replica asks committed_below() with its
//    own commit height instead of keeping a private set of committed hashes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/flat_table.hpp"
#include "evm/types.hpp"
#include "obs/trace.hpp"
#include "srbb/genesis.hpp"
#include "state/statedb.hpp"
#include "txn/block.hpp"
#include "txn/executor.hpp"
#include "txn/parallel_executor.hpp"

namespace srbb::node {

struct TxOutcome {
  Hash32 hash;
  bool valid = false;        // false -> discarded from the block (Alg.1 l.23)
  bool executed_ok = false;  // EVM frame success (reverts are valid but fail)
  std::uint64_t gas_used = 0;
  U256 fee;                  // gas_used * gas_price
};

struct BlockExecResult {
  std::uint64_t proposer = 0;
  std::vector<TxOutcome> outcomes;
};

struct IndexExecResult {
  std::vector<BlockExecResult> blocks;
  Hash32 state_root;
  std::uint64_t total_valid = 0;
  std::uint64_t total_invalid = 0;
  /// Optimistic-execution counters for this index (all zero when the
  /// superblock was executed sequentially).
  txn::ParallelExecStats parallel;
};

class ExecutionOracle {
 public:
  ExecutionOracle(const GenesisSpec& genesis, evm::BlockContext block_template,
                  const crypto::SignatureScheme& scheme);

  /// Trace context for one execute() call. Events are emitted only on the
  /// first (non-memoized) execution of an index: a shared oracle's memoized
  /// replays are a simulation artifact, not protocol work, and tracing them
  /// would make the trace depend on which replica committed first.
  struct ExecContext {
    obs::TraceSink* trace = nullptr;
    SimTime at = 0;
    std::uint32_t node = 0;
  };

  /// Execute the superblock for `index` (idempotent: repeated calls return
  /// the memoized result) and publish db().state_root() as its root.
  /// Indices must be executed in increasing order on first call.
  const IndexExecResult& execute(std::uint64_t index,
                                 const std::vector<txn::BlockPtr>& blocks);
  const IndexExecResult& execute(std::uint64_t index,
                                 const std::vector<txn::BlockPtr>& blocks,
                                 const ExecContext& ctx);

  bool executed(std::uint64_t index) const { return results_.contains(index); }

  /// The index at which `hash` was committed as a valid transaction, if an
  /// executed index committed it.
  std::optional<std::uint64_t> committed_index(const Hash32& hash) const {
    const std::uint64_t* index = committed_at_.find(hash);
    if (index == nullptr) return std::nullopt;
    return *index;
  }
  /// True when `hash` was committed as a valid transaction at an index below
  /// `frontier`. A replica passing its own commit height gets exactly the
  /// membership test of a private set filled at each of its commits.
  bool committed_below(const Hash32& hash, std::uint64_t frontier) const {
    const std::optional<std::uint64_t> index = committed_index(hash);
    return index.has_value() && *index < frontier;
  }
  const state::StateDB& db() const { return db_; }

  /// Wipe all execution state back to genesis (a validator crash losing its
  /// volatile state). Only meaningful for a privately owned oracle — resetting
  /// a shared oracle would destroy the state of every co-owning replica.
  void reset();

  /// Execution knobs (parallelism and its worker pool). Changing
  /// `workers` after the first parallel execution has no effect: the worker
  /// pool is created lazily on first use and then kept.
  txn::ExecutionConfig& exec_config() { return exec_config_; }
  const txn::ExecutionConfig& exec_config() const { return exec_config_; }

 private:
  GenesisSpec genesis_;  // kept so reset() can rebuild the world state
  state::StateDB db_;
  evm::BlockContext block_template_;
  txn::ExecutionConfig exec_config_;
  std::unique_ptr<txn::ParallelExecutor> parallel_;
  std::map<std::uint64_t, IndexExecResult> results_;
  /// Valid transaction hash -> index it committed at. A transaction is
  /// valid at most once (its nonce advances), so each hash keeps the first
  /// index that committed it.
  FlatMap<32, std::uint64_t> committed_at_;
};

}  // namespace srbb::node
