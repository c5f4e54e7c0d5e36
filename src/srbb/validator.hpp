// The SRBB validator node: Alg. 1 wired onto the simulated network.
//
//   Reception  — client transactions are eagerly validated once and pooled;
//                with TVPR disabled (modern/baseline mode) they are also
//                gossiped to peers, each of which re-validates and re-gossips
//                (Alg. 1 line 9, the step SRBB removes).
//   Consensus  — every round each validator proposes a block from its pool;
//                the superblock layer (consensus/) decides the block set.
//   Commit     — decided blocks are executed in order; invalid transactions
//                are discarded (lines 19-26); valid transactions from
//                received-but-undecided blocks are recycled into the pool
//                (lines 27-31); commit ACKs flow back to the sending client.
//   RPM        — on commit, validators invoke propReceived per decided block
//                and report invalid transactions with Merkle proofs; slashed
//                proposers are excluded from future headers (Alg. 2).
//
// Byzantine behaviours (silent, censoring, invalid-transaction flooding) are
// switched per node to drive the paper's §V-B experiments.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/flat_table.hpp"
#include "consensus/superblock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pool/txpool.hpp"
#include "rpm/reliability.hpp"
#include "rpm/rpm.hpp"
#include "sim/gossip.hpp"
#include "sim/network.hpp"
#include "srbb/messages.hpp"
#include "srbb/oracle.hpp"
#include "srbb/sync.hpp"
#include "txn/pipeline.hpp"
#include "txn/validation.hpp"

namespace srbb::node {

/// CPU cost model, calibrated from bench_micro_crypto / bench_micro_evm and
/// Geth-order-of-magnitude figures. The commit path charges, per transaction
/// *attempt* in a decided block, lazy validation plus the execution-path
/// signature recovery (check (i) of §IV-D — Geth ecrecovers every
/// transaction before applying it), and the EVM apply cost only for valid
/// transactions. This is what makes duplicate proposals in the EVM+DBFT
/// baseline so expensive: a superblock with n near-identical blocks costs
/// n * (lazy + sig) per unique transaction.
struct CostModel {
  SimDuration eager_validation = micros(100);  // signature verify dominates
  SimDuration lazy_validation = micros(5);     // nonce/gas/balance checks
  SimDuration sig_check_exec = micros(150);    // ecrecover on the commit path
  SimDuration execution_per_tx = micros(250);  // EVM apply + state update
  SimDuration gossip_dedup = micros(1);        // seen-set lookup
};

struct ValidatorBehavior {
  bool silent = false;  // crash fault
  bool censor = false;  // propose empty blocks (§VI censorship discussion)
  /// Flooding attack (§V-B): include this many invalid transactions (zero-
  /// balance senders, skipping eager validation) in every proposal.
  std::uint32_t flood_invalid_per_block = 0;
  /// Stop flooding after this many invalid transactions (0 = unlimited);
  /// Table I's attacker sends 10K total.
  std::uint64_t flood_total_limit = 0;
};

struct ValidatorConfig {
  std::uint32_t n = 4;
  std::uint32_t f = 1;
  std::uint32_t self = 0;  // rank; validators own network ids 0..n-1
  bool tvpr = true;        // SRBB; false = modern/EVM+DBFT per-tx gossip
  bool rpm = true;
  CostModel costs;
  pool::TxPoolConfig pool;
  std::size_t max_block_txs = 4096;
  std::size_t max_block_bytes = 4 * 1024 * 1024;
  SimDuration min_block_interval = millis(400);
  SimDuration proposal_timeout = millis(800);
  SimDuration pull_retry = millis(200);
  txn::ValidationConfig validation;
  const crypto::SignatureScheme* scheme = &crypto::SignatureScheme::fast_sim();
  ValidatorBehavior behavior;

  // --- robustness knobs (DESIGN.md §7) ---
  /// True when this validator owns its oracle exclusively (replicated
  /// execution mode): crash() then resets it to genesis. Must stay false for
  /// a shared oracle — resetting it would wipe every co-owner's state.
  bool oracle_private = false;
  /// Superblock-layer state re-broadcast while an instance is incomplete
  /// (liveness under message loss / healed partitions). 0 = off; chaos
  /// configurations enable it. See SuperblockConfig::rebroadcast_interval.
  SimDuration rebroadcast_interval = 0;
  /// Catch-up sync request timeout (doubles per retry) and backoff cap.
  SimDuration sync_request_timeout = millis(250);
  std::uint32_t sync_backoff_cap = 4;

  // --- adaptive membership (DESIGN.md §13) ---
  /// Derive per-validator reliability scores from the committed superblock
  /// sequence and run consensus quorums over the effective committee
  /// (disabled validators stop counting; removed validators' blocks are
  /// rejected outright). Off (the default) keeps the static all-active
  /// committee — bit-identical to the pre-membership behaviour.
  bool adaptive_membership = false;
  /// Scoring / hysteresis parameters for the reliability tracker. The (n, f)
  /// fields are overwritten from this config's own n / f at construction.
  rpm::ReliabilityConfig reliability;

  // --- observability (DESIGN.md §8) ---
  /// Commit-path trace sink and shared metrics registry (neither owned;
  /// typically one of each per run, shared across nodes). Both null by
  /// default: the node then behaves exactly as before this layer existed.
  obs::TraceSink* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

class ValidatorNode : public sim::SimNode {
 public:
  struct Metrics {
    std::uint64_t client_txs_received = 0;
    std::uint64_t eager_validations = 0;
    std::uint64_t eager_failures = 0;
    std::uint64_t gossip_txs_received = 0;
    std::uint64_t gossip_txs_sent = 0;
    std::uint64_t blocks_proposed = 0;
    std::uint64_t superblocks_committed = 0;
    std::uint64_t txs_committed_valid = 0;
    std::uint64_t txs_discarded_invalid = 0;
    std::uint64_t txs_recycled = 0;
    std::uint64_t invalid_txs_flooded = 0;
    // Robustness counters.
    std::uint64_t gossip_dups_suppressed = 0;  // dedup hits (dup/reorder safe)
    std::uint64_t crashes = 0;
    std::uint64_t restarts = 0;
    std::uint64_t superblocks_synced = 0;     // fetched via catch-up sync
    std::uint64_t sync_requests_served = 0;
    // Adaptive-membership events observed locally (deterministic across
    // correct nodes at equal heights).
    std::uint64_t membership_disables = 0;
    std::uint64_t membership_readmissions = 0;
    std::uint64_t membership_removals = 0;
  };

  ValidatorNode(sim::Simulation& simulation, sim::NodeId id,
                sim::RegionId region, ValidatorConfig config,
                std::shared_ptr<ExecutionOracle> oracle,
                std::shared_ptr<rpm::RewardPenaltyMechanism> rpm,
                sim::GossipOverlay* overlay);

  /// Kick off consensus (call after all nodes are attached).
  void start();

  /// Crash fault: wipe ALL volatile state (pool, chain, instances, dedup
  /// sets) and ignore traffic until restart(). Closures already queued on
  /// the simulated CPU are disarmed via an epoch counter.
  void crash();

  /// Come back from a crash: run the catch-up sync protocol to refetch and
  /// replay every decided superblock, then rejoin consensus at the frontier.
  void restart();

  void handle_message(sim::NodeId from, const sim::MessagePtr& message) override;

  // --- inspection ---
  const Metrics& metrics() const {
    settle_dedup_credits();
    return metrics_;
  }
  const pool::TxPool& tx_pool() const { return pool_; }
  std::uint64_t chain_height() const { return next_commit_; }
  const std::vector<Hash32>& chain() const { return chain_; }
  Hash32 last_state_root() const { return last_state_root_; }
  const crypto::Identity& identity() const { return identity_; }
  ExecutionOracle& oracle() { return *oracle_; }
  bool crashed() const { return crashed_; }
  bool syncing() const { return syncing_; }
  const CatchUpSync::Stats& sync_stats() const { return sync_->stats(); }
  const CatchUpSync& catch_up() const { return *sync_; }
  std::uint64_t current_round() const { return current_round_; }
  /// Adaptive-membership tracker; nullptr when adaptive_membership is off.
  const rpm::ReliabilityTracker* reliability() const { return tracker_.get(); }
  /// Introspection for the chaos harness; nullptr when no instance exists.
  const consensus::SuperblockInstance* instance(std::uint64_t index) const {
    const auto it = instances_.find(index);
    return it == instances_.end() ? nullptr : it->second.get();
  }

 private:
  void on_client_tx(sim::NodeId from, const txn::TxPtr& tx);
  void on_gossip_tx(sim::NodeId from, const txn::TxPtr& tx);
  /// Count each decided dedup (dedup_credits_) whose lookup has finished.
  void settle_dedup_credits() const;
  void admit_to_pool(const txn::TxPtr& tx);
  void gossip_tx(const txn::TxPtr& tx, std::optional<sim::NodeId> skip);

  consensus::SuperblockInstance& instance_for(std::uint64_t index);
  /// Build the instance for `index`, which must not exist yet.
  consensus::SuperblockInstance& make_instance(std::uint64_t index);
  void begin_round(std::uint64_t index);
  txn::BlockPtr build_proposal(std::uint64_t index);
  txn::TxPtr make_invalid_tx();
  bool validate_header(const txn::Block& block) const;
  void on_superblock(std::uint64_t index, std::vector<txn::BlockPtr> blocks);
  void try_commit();
  void commit_index(std::uint64_t index,
                    const std::vector<txn::BlockPtr>& blocks);
  void recycle_undecided(std::uint64_t index);
  void run_rpm_hooks(std::uint64_t index,
                     const std::vector<txn::BlockPtr>& blocks,
                     const IndexExecResult& result);
  void on_stale_pull(sim::NodeId from, const consensus::PullMsg& msg);
  void on_stale_bin(sim::NodeId from, std::uint64_t index,
                    std::uint32_t proposer);
  void on_sync_request(sim::NodeId from, const SyncRequestMsg& msg);
  void on_synced_superblock(std::uint64_t index,
                            std::vector<txn::BlockPtr> blocks);
  void on_caught_up(std::uint64_t frontier);
  void finish_sync();

  /// Wrap a deferred closure so it no-ops if the node crashed (and possibly
  /// restarted) between scheduling and execution. Every post_work /
  /// schedule_* closure that touches validator state must go through this:
  /// crash() wipes the state those closures capture indices/iterators into.
  template <typename Fn>
  auto guarded(Fn fn) {
    return [this, epoch = epoch_, fn = std::move(fn)] {
      if (epoch == epoch_ && !crashed_) fn();
    };
  }

  /// A committee member's public key and address, derived once per node.
  struct CommitteeKey {
    crypto::PublicKey public_key{};
    Address address{};
  };

  ValidatorConfig config_;
  crypto::Identity identity_;
  std::vector<CommitteeKey> committee_;  // by rank
  std::vector<sim::NodeId> peers_;       // every other rank, ascending
  std::shared_ptr<ExecutionOracle> oracle_;
  std::shared_ptr<rpm::RewardPenaltyMechanism> rpm_;
  sim::GossipOverlay* overlay_;  // also holds this node's seen-gossip bits

  pool::TxPool pool_;
  /// Eager validation (DESIGN.md §11): per-event paths use validate_one;
  /// recycle_undecided validates a whole undecided block with validate().
  txn::ValidationPipeline pipeline_;
  FlatMap<32, sim::NodeId> client_origins_;

  std::map<std::uint64_t, std::unique_ptr<consensus::SuperblockInstance>>
      instances_;
  std::map<std::uint64_t, std::vector<txn::BlockPtr>> pending_superblocks_;
  /// Every decided superblock this node has seen, kept to serve catch-up
  /// sync requests from restarted peers (the simulator's stand-in for the
  /// persisted block store; memory growth is bounded by run length).
  std::map<std::uint64_t, std::vector<txn::BlockPtr>> decided_store_;
  std::uint64_t current_round_ = 0;   // highest index begun
  std::uint64_t next_commit_ = 0;     // next index to commit
  bool commit_in_flight_ = false;
  SimTime last_round_start_ = 0;
  Hash32 parent_hash_;
  std::vector<Hash32> chain_;
  Hash32 last_state_root_;
  std::uint64_t invalid_tx_counter_ = 0;
  bool started_ = false;

  // Crash/recovery state (DESIGN.md §7).
  bool crashed_ = false;
  bool syncing_ = false;
  bool sync_caught_up_ = false;   // fetch frontier reached; replay may lag
  std::uint64_t sync_frontier_ = 0;
  std::uint64_t epoch_ = 0;       // bumped by crash(); disarms old closures
  std::unique_ptr<CatchUpSync> sync_;

  /// Adaptive membership (DESIGN.md §13): non-null iff
  /// config_.adaptive_membership. Fed the committed superblock sequence in
  /// commit_index (including catch-up replay — the tracker is per-node and
  /// must observe every index exactly once); crash() rebuilds it from
  /// genesis, and the replay regrows the identical view sequence.
  std::unique_ptr<rpm::ReliabilityTracker> tracker_;

  // Read through metrics(), which first settles dedup_credits_.
  mutable Metrics metrics_;
  // One entry per gossiped copy that arrived already seen: the key its
  // dedup lookup's event would have fired at, in firing order
  // (on_gossip_tx). Each adds one gossip_dups_suppressed when its key
  // passes; crash() drops the rest.
  mutable sim::BlockFifo<sim::Simulation::Key> dedup_credits_;

  // Observability (DESIGN.md §8): registered once in the constructor, null
  // when disabled. The timestamp maps exist only while observability is on
  // (obs_on()), are pruned per commit, and are wiped by crash() — a restarted
  // node's pre-crash rounds never leak into post-restart latencies.
  bool obs_on() const {
    return config_.trace != nullptr || config_.metrics != nullptr;
  }
  void register_obs();
  obs::Histogram* hist_propose_to_decide_ = nullptr;
  obs::Histogram* hist_decide_to_commit_ = nullptr;
  obs::Counter* ctr_spec_runs_ = nullptr;
  obs::Counter* ctr_spec_aborts_ = nullptr;
  obs::Counter* ctr_fallback_txs_ = nullptr;
  // State-stack levels (DESIGN.md §14): cumulative totals read back from the
  // oracle's StateDB after each commit, published as gauges so a shared
  // oracle is sampled, not double-counted.
  obs::Gauge* g_state_hits_ = nullptr;
  obs::Gauge* g_state_faults_ = nullptr;
  obs::Gauge* g_state_evictions_ = nullptr;
  obs::Gauge* g_state_resident_ = nullptr;
  void publish_state_obs();
  std::map<std::uint64_t, SimTime> round_began_at_;
  std::map<std::uint64_t, SimTime> decided_at_;
};

}  // namespace srbb::node
