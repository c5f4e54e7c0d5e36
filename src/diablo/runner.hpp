// Experiment runner: assembles a complete deployment — validators of the
// chosen system, region-distributed clients, genesis with the DApp contracts
// — replays a workload, and reduces the run to the metrics the paper's
// figures report (throughput, latency, commit percentage) plus the
// congestion counters behind them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chains/presets.hpp"
#include "diablo/workload.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/fault.hpp"
#include "sim/latency.hpp"
#include "srbb/validator.hpp"

namespace srbb::diablo {

enum class SystemKind : std::uint8_t {
  kSrbb,     // ValidatorNode, TVPR on (RPM per flag)
  kEvmDbft,  // ValidatorNode, TVPR off: the naive baseline of §V-A
  kModern,   // GossipChainNode with a ChainPreset
};

struct RunConfig {
  std::string system_name = "SRBB";
  SystemKind kind = SystemKind::kSrbb;
  chains::ChainPreset preset;  // only for kModern
  bool rpm = false;

  std::uint32_t validators = 20;
  WorkloadSpec workload;
  sim::LatencyModel latency = sim::LatencyModel::aws_global();
  double bandwidth_bps = 2.5e9;
  std::uint32_t clients = 10;
  std::uint64_t seed = 1;
  /// Observation continues this long after the last scheduled send.
  SimDuration drain = seconds(120);

  // SRBB/EVM+DBFT node parameters.
  node::CostModel costs;
  std::size_t max_block_txs = 4096;
  SimDuration min_block_interval = millis(400);
  SimDuration proposal_timeout = millis(800);
  pool::TxPoolConfig pool;
  bool replicated_execution = false;

  // Byzantine setup (Table I): the last `byzantine` validators flood this
  // many invalid transactions per proposed block, up to `flood_total` each
  // (0 = unlimited).
  std::uint32_t byzantine = 0;
  std::uint32_t flood_invalid_per_block = 0;
  std::uint64_t flood_total = 0;
  /// Clients submit only to the first `client_target_count` validators
  /// (0 = all). DIABLO points its clients at non-faulty endpoints, so the
  /// Table I bench sets this to n - byzantine.
  std::uint32_t client_target_count = 0;

  /// §VI client retry: resend unacknowledged transactions to the next
  /// validator after this timeout (0 = fire-once, DIABLO behaviour).
  SimDuration client_resend_timeout = 0;

  // --- robustness (DESIGN.md §7) ---
  /// Scripted fault injection (drops, partitions, crash/restart cycles); an
  /// empty plan leaves the network fault-free. Crash/restart events target
  /// SRBB-style validators (ranks < validators); with crashes in the plan,
  /// set replicated_execution so each validator owns the oracle it wipes.
  sim::FaultPlan faults;
  /// Superblock-layer state rebroadcast while an instance is incomplete;
  /// required for liveness under message loss (0 = off, the fault-free
  /// default).
  SimDuration rebroadcast_interval = 0;
  /// Adaptive membership (DESIGN.md §13): reliability scoring + the bounded
  /// disabled list, so the chain stays live through > f gradual crashes.
  /// Requires replicated_execution when combined with crashes.
  bool adaptive_membership = false;
  /// Sample cumulative client-observed commits every `tps_window` of
  /// simulated time into RunResult::window_commits (0 = off). Makes the
  /// throughput dip around a crash or partition window visible.
  SimDuration tps_window = 0;

  // --- observability (DESIGN.md §8) ---
  /// Commit-path trace sink, threaded through every node, the network's
  /// fault attribution, and the clients (not owned; null = no tracing). The
  /// runner always owns an internal MetricsRegistry — the per-phase
  /// histograms in RunResult come from it at no extra configuration.
  obs::TraceSink* trace = nullptr;
};

struct RunResult {
  std::string system;
  std::string workload;
  std::uint64_t sent = 0;
  std::uint64_t committed = 0;
  double commit_pct = 0;
  /// committed / (last commit - first send), the DIABLO average throughput.
  double throughput_tps = 0;
  double avg_latency_s = 0;
  double p50_latency_s = 0;
  double p95_latency_s = 0;
  double max_latency_s = 0;

  // Congestion diagnostics.
  std::uint64_t eager_validations = 0;
  std::uint64_t gossip_tx_messages = 0;
  std::uint64_t network_messages = 0;
  std::uint64_t network_bytes = 0;
  std::uint64_t pool_drops = 0;
  std::uint64_t invalid_discarded = 0;
  std::uint64_t crashed_nodes = 0;
  std::uint64_t slash_events = 0;
  double valid_committed_per_validator_tps = 0;

  // Event-loop load (docs/OBSERVABILITY.md): events fired, the peaks of
  // the timer heap and of all pending events, and the lane heads pushed
  // onto the heap. Pure functions of the seed.
  std::uint64_t sim_events = 0;
  std::uint64_t sim_peak_heap = 0;
  std::uint64_t sim_peak_pending = 0;
  std::uint64_t sim_head_pushes = 0;
  /// Distinct transaction hashes in the run's gossip SeenLedger (0 when no
  /// node gossips, as under TVPR). A pure function of the seed.
  std::uint64_t gossip_seen_rows = 0;
  /// State-root work summed over the run's execution oracles
  /// (StateDB::RootWork): recomputed roots, records encoded (account heads
  /// plus slot entries merged) and bytes hashed, and the records the last
  /// root commits to (live accounts plus slots). Pure functions of the
  /// seed; they never feed the simulation.
  std::uint64_t state_roots = 0;
  std::uint64_t state_root_records = 0;
  std::uint64_t state_root_bytes = 0;
  std::uint64_t state_records = 0;

  // Robustness diagnostics (fault-injected runs).
  std::vector<std::uint64_t> window_commits;  // commits per tps_window
  std::uint64_t faults_dropped = 0;
  std::uint64_t faults_duplicated = 0;
  std::uint64_t validator_crashes = 0;
  std::uint64_t validator_restarts = 0;
  std::uint64_t superblocks_synced = 0;
  /// Adaptive-membership transitions (identical at every replica — the
  /// disabled list is derived from the committed chain — so reported via
  /// max, not sum).
  std::uint64_t membership_disables = 0;
  std::uint64_t membership_readmissions = 0;
  std::uint64_t membership_removals = 0;

  // Per-phase latency distributions along the commit path (DESIGN.md §8),
  // aggregated across every node of the run. All values are simulated
  // nanoseconds; empty snapshots (count == 0) mean the phase never fired.
  obs::HistogramSnapshot pool_wait;          // pool admit -> batch extraction
  obs::HistogramSnapshot propose_to_decide;  // round begin -> DBFT decide
  obs::HistogramSnapshot decide_to_commit;   // decide -> exec + chain append
  obs::HistogramSnapshot e2e_commit;         // client send -> commit ack
};

RunResult run_experiment(const RunConfig& config);

/// Shrink a full-scale (200-validator) configuration: validator count and
/// offered rates scale together so per-validator load — and therefore the
/// congestion behaviour — is preserved; modern-chain block caps scale with
/// the committee so capacity/load ratios stay put.
RunConfig scale_config(RunConfig config, double factor);

}  // namespace srbb::diablo
