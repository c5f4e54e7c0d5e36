#include "chains/gossip_chain.hpp"

#include <algorithm>
#include <optional>

#include "common/invariant.hpp"
#include "txn/validation.hpp"

namespace srbb::chains {

GossipChainNode::GossipChainNode(sim::Simulation& simulation, sim::NodeId id,
                                 sim::RegionId region, GossipChainConfig config,
                                 std::shared_ptr<node::ExecutionOracle> oracle,
                                 sim::GossipOverlay* overlay)
    : sim::SimNode(simulation, id, region),
      config_(std::move(config)),
      identity_(config_.scheme->make_identity(config_.self)),
      oracle_(std::move(oracle)),
      overlay_(overlay),
      pool_(config_.preset.pool),
      pipeline_(*config_.scheme, config_.validation) {
  for (std::uint32_t peer = 0; peer < config_.n; ++peer) {
    if (peer != config_.self) others_.push_back(peer);
  }
}

void GossipChainNode::set_observability(obs::TraceSink* trace,
                                        obs::MetricsRegistry* metrics) {
  trace_ = trace;
  pool_.set_observability(trace, metrics, config_.self);
}

void GossipChainNode::start() {
  if (started_) return;
  started_ = true;
  on_slot_tick();
}

void GossipChainNode::handle_message(sim::NodeId from,
                                     const sim::MessagePtr& message) {
  if (crashed_) return;
  switch (message->kind) {
    case sim::MsgKind::kClientTx:
      on_client_tx(from, sim::msg_cast<node::ClientTxMsg>(message)->tx);
      break;
    case sim::MsgKind::kGossipTx:
      on_gossip_tx(from, sim::msg_cast<node::GossipTxMsg>(message)->tx);
      break;
    case sim::MsgKind::kGossipBlock:
      on_block(from, sim::msg_cast<GossipBlockMsg>(message)->block);
      break;
    default:
      break;
  }
}

void GossipChainNode::on_client_tx(sim::NodeId from, const txn::TxPtr& tx) {
  ++metrics_.client_txs_received;
  post_work(config_.preset.costs.eager_validation, [this, from, tx] {
    if (crashed_) return;
    ++metrics_.eager_validations;
    if (committed(tx->hash) || pool_.contains(tx->hash)) return;
    if (!pipeline_.validate_one(*tx, oracle_->db())) {
      ++metrics_.eager_failures;
      return;
    }
    client_origins_.try_emplace(tx->hash, from);
    if (pool_.add(tx, now()) == pool::TxPool::AddResult::kAdded) {
      gossip_tx(tx, std::nullopt);  // Alg. 1 line 9
    }
    maybe_crash();
  });
}

void GossipChainNode::on_gossip_tx(sim::NodeId from, const txn::TxPtr& tx) {
  ++metrics_.gossip_txs_received;
  SRBB_CHECK(overlay_ != nullptr);  // gossip travels only over the overlay
  post_work(config_.preset.costs.gossip_dedup, [this, from, tx] {
    if (crashed_) return;
    if (overlay_->seen_ledger().seen(id(), tx->hash) || committed(tx->hash) ||
        pool_.contains(tx->hash)) {
      return;
    }
    overlay_->seen_ledger().mark(id(), tx->hash);
    post_work(config_.preset.costs.eager_validation, [this, from, tx] {
      if (crashed_) return;
      ++metrics_.eager_validations;  // the redundant validation (§III-A)
      if (!pipeline_.validate_one(*tx, oracle_->db())) {
        ++metrics_.eager_failures;
        return;
      }
      if (pool_.add(tx, now()) == pool::TxPool::AddResult::kAdded) {
        gossip_tx(tx, from);
      }
      maybe_crash();
    });
  });
}

void GossipChainNode::gossip_tx(const txn::TxPtr& tx,
                                std::optional<sim::NodeId> skip) {
  if (overlay_ == nullptr) return;
  overlay_->seen_ledger().mark(id(), tx->hash);
  auto msg = std::make_shared<node::GossipTxMsg>();
  msg->tx = tx;
  metrics_.gossip_txs_sent += overlay_->gossip(*this, config_.n, skip, msg);
}

void GossipChainNode::on_slot_tick() {
  if (crashed_) return;
  const std::uint64_t slot = slot_counter_++;
  if (slot % config_.n == config_.self) propose(slot);

  // Slot expiry: a slot is skipped once enough time has passed for its block
  // to have arrived and cleared the voting overhead (leader idle/failed or
  // block lost).
  const std::uint64_t grace =
      3 + (config_.preset.consensus_overhead + config_.preset.block_interval -
           1) /
              config_.preset.block_interval;
  while (next_commit_slot_ + grace <= slot &&
         !committable_.contains(next_commit_slot_)) {
    ++metrics_.slots_skipped;
    skipped_slots_.push_back(next_commit_slot_++);
  }
  try_commit();
  sim().schedule_after(config_.preset.block_interval, [this] { on_slot_tick(); });
}

void GossipChainNode::propose(std::uint64_t slot) {
  std::vector<txn::TxPtr> txs = pool_.take_batch(
      config_.preset.max_block_txs, config_.preset.max_block_bytes, now());
  if (txs.empty()) return;  // idle slot
  ++metrics_.blocks_proposed;
  const txn::BlockPtr block =
      txn::seal(txn::make_block(slot, config_.self, now(), Hash32{},
                                std::move(txs), identity_, *config_.scheme));
  seen_blocks_.try_emplace(block->hash());
  auto msg = std::make_shared<GossipBlockMsg>();
  msg->block = block;
  if (config_.preset.gossip_blocks && overlay_ != nullptr) {
    overlay_->gossip(*this, config_.n, std::nullopt, msg);
  } else {
    // No block gossip (Avalanche-style): ship directly to every validator.
    multicast(others_, msg);
  }
  // Own commit path after the voting exchange.
  sim().schedule_after(config_.preset.consensus_overhead, [this, block] {
    committable_[block->header.index] = block;
    try_commit();
  });
}

void GossipChainNode::on_block(sim::NodeId from, const txn::BlockPtr& block) {
  const Hash32 hash = block->hash();
  if (!seen_blocks_.try_emplace(hash).second) return;
  if (block->header.index < next_commit_slot_) return;  // too late
  if (!txn::verify_block_certificate(*block, *config_.scheme)) return;

  if (config_.preset.gossip_blocks && overlay_ != nullptr) {
    auto msg = std::make_shared<GossipBlockMsg>();
    msg->block = block;
    overlay_->gossip(*this, config_.n, from, msg);
  }
  sim().schedule_after(config_.preset.consensus_overhead, [this, block] {
    // First block wins a slot (honest leaders do not equivocate here).
    committable_.emplace(block->header.index, block);
    try_commit();
  });
}

void GossipChainNode::try_commit() {
  if (crashed_) return;
  while (true) {
    const auto it = committable_.find(next_commit_slot_);
    if (it == committable_.end()) {
      // Drop anything below the commit frontier (skipped slots).
      committable_.erase(committable_.begin(),
                         committable_.lower_bound(next_commit_slot_));
      return;
    }
    const txn::BlockPtr block = it->second;
    committable_.erase(it);
    const std::uint64_t slot = next_commit_slot_++;
    const SimDuration cost =
        static_cast<SimDuration>(block->txs.size()) *
        (config_.preset.costs.lazy_validation +
         config_.preset.costs.sig_check_exec +
         config_.preset.costs.execution_per_tx);
    (void)slot;
    post_work(cost, [this, block] { commit_block(block); });
  }
}

void GossipChainNode::commit_block(const txn::BlockPtr& block) {
  if (crashed_) return;
  const node::IndexExecResult& result =
      oracle_->execute(block->header.index, {block});
  std::vector<Hash32> committed;
  for (const node::TxOutcome& outcome : result.blocks[0].outcomes) {
    if (outcome.valid) {
      ++metrics_.txs_committed_valid;
      committed.push_back(outcome.hash);
      if (const sim::NodeId* origin = client_origins_.find(outcome.hash)) {
        auto ack = std::make_shared<node::CommitAckMsg>();
        ack->tx_hash = outcome.hash;
        ack->executed_ok = outcome.executed_ok;
        send(*origin, ack);
        client_origins_.erase(outcome.hash);
      }
    } else {
      ++metrics_.txs_discarded_invalid;
    }
  }
  pool_.remove_committed(committed);
  commit_frontier_ = block->header.index + 1;
  ++metrics_.blocks_committed;
  SRBB_TRACE(trace_, now(), 0, config_.self, "commit", "block.commit", "slot",
             block->header.index, "valid", result.total_valid);
}

bool GossipChainNode::committed(const Hash32& hash) const {
  const std::optional<std::uint64_t> slot = oracle_->committed_index(hash);
  return slot.has_value() && *slot < commit_frontier_ &&
         !std::binary_search(skipped_slots_.begin(), skipped_slots_.end(),
                             *slot);
}

void GossipChainNode::maybe_crash() {
  if (config_.preset.crash_after_pool_drops == 0) return;
  if (pool_.dropped_full() >= config_.preset.crash_after_pool_drops) {
    crashed_ = true;
    metrics_.crashed = true;
  }
}

}  // namespace srbb::chains
