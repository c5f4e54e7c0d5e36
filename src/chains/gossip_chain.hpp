// The modern-blockchain node model: Alg. 1 *with* line 9. Transactions are
// eagerly validated and gossiped individually to every validator, a rotating
// slot leader batches its pool into a block, blocks are gossiped again, and
// each validator commits a block `consensus_overhead` after receiving it
// (standing in for the chain's voting exchange). Instantiated with a
// ChainPreset this models each of the six DIABLO chains; it is also the
// "redundant validation and propagation" half of the EVM+DBFT baseline
// story (the baseline itself is ValidatorNode with tvpr=false, which keeps
// the superblock consensus).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "chains/presets.hpp"
#include "common/flat_table.hpp"
#include "pool/txpool.hpp"
#include "sim/gossip.hpp"
#include "sim/network.hpp"
#include "srbb/messages.hpp"
#include "srbb/oracle.hpp"
#include "txn/pipeline.hpp"

namespace srbb::chains {

/// A block gossiped between modern-chain validators.
struct GossipBlockMsg final : sim::TaggedMessage<sim::MsgKind::kGossipBlock> {
  txn::BlockPtr block;

  std::size_t size_bytes() const override { return block->wire_size(); }
  const char* type() const override { return "gossip-block"; }
};

struct GossipChainConfig {
  std::uint32_t n = 4;
  std::uint32_t self = 0;
  ChainPreset preset;
  txn::ValidationConfig validation;
  const crypto::SignatureScheme* scheme = &crypto::SignatureScheme::fast_sim();
};

class GossipChainNode : public sim::SimNode {
 public:
  struct Metrics {
    std::uint64_t client_txs_received = 0;
    std::uint64_t eager_validations = 0;
    std::uint64_t eager_failures = 0;
    std::uint64_t gossip_txs_received = 0;
    std::uint64_t gossip_txs_sent = 0;
    std::uint64_t blocks_proposed = 0;
    std::uint64_t blocks_committed = 0;
    std::uint64_t txs_committed_valid = 0;
    std::uint64_t txs_discarded_invalid = 0;
    std::uint64_t slots_skipped = 0;
    bool crashed = false;
  };

  GossipChainNode(sim::Simulation& simulation, sim::NodeId id,
                  sim::RegionId region, GossipChainConfig config,
                  std::shared_ptr<node::ExecutionOracle> oracle,
                  sim::GossipOverlay* overlay);

  /// Attach the observability layer: pool counters/trace plus block-commit
  /// events. Either pointer may be null.
  void set_observability(obs::TraceSink* trace, obs::MetricsRegistry* metrics);

  void start();
  void handle_message(sim::NodeId from, const sim::MessagePtr& message) override;

  const Metrics& metrics() const { return metrics_; }
  const pool::TxPool& tx_pool() const { return pool_; }

 private:
  void on_client_tx(sim::NodeId from, const txn::TxPtr& tx);
  void on_gossip_tx(sim::NodeId from, const txn::TxPtr& tx);
  void on_block(sim::NodeId from, const txn::BlockPtr& block);
  void gossip_tx(const txn::TxPtr& tx, std::optional<sim::NodeId> skip);
  void on_slot_tick();
  void propose(std::uint64_t slot);
  void try_commit();
  void commit_block(const txn::BlockPtr& block);
  /// Alg. 1 l.6 against this node's own chain: `hash` committed valid in a
  /// block this node has committed (answered by the oracle's index).
  bool committed(const Hash32& hash) const;
  void maybe_crash();

  GossipChainConfig config_;
  crypto::Identity identity_;
  std::vector<sim::NodeId> others_;  // every other validator, ascending
  std::shared_ptr<node::ExecutionOracle> oracle_;
  sim::GossipOverlay* overlay_;  // also holds this node's seen-gossip bits

  pool::TxPool pool_;
  /// Eager validation over cached fields; per-event paths use validate_one.
  txn::ValidationPipeline pipeline_;
  FlatSet<32> seen_blocks_;
  FlatMap<32, sim::NodeId> client_origins_;

  std::map<std::uint64_t, txn::BlockPtr> committable_;  // slot -> block
  std::uint64_t slot_counter_ = 0;
  std::uint64_t next_commit_slot_ = 0;
  /// One past the slot of the last block whose commit_block has run.
  /// next_commit_slot_ runs ahead of it by the commit's CPU delay.
  std::uint64_t commit_frontier_ = 0;
  /// Slots this node gave up on, in increasing order. Another node may still
  /// have committed a block there, so its transactions are not on this
  /// node's chain.
  std::vector<std::uint64_t> skipped_slots_;
  bool started_ = false;
  bool crashed_ = false;

  Metrics metrics_;
  obs::TraceSink* trace_ = nullptr;  // null = disabled
};

}  // namespace srbb::chains
