// The §VI censorship mitigation: a load balancer between clients and
// validators that forwards each client transaction to a randomly chosen
// validator. Combined with client retries, a transaction censored by one
// validator eventually reaches one that includes it. (The paper defers a
// full multi-balancer design to future work; this is the single-balancer
// building block.)
#pragma once

#include <cstdint>

#include "common/flat_table.hpp"
#include "common/rng.hpp"
#include "sim/network.hpp"
#include "srbb/messages.hpp"

namespace srbb::node {

class LoadBalancerNode : public sim::SimNode {
 public:
  LoadBalancerNode(sim::Simulation& simulation, sim::NodeId id,
                   sim::RegionId region, std::uint32_t validator_count,
                   std::uint64_t seed)
      : sim::SimNode(simulation, id, region),
        validator_count_(validator_count),
        rng_(seed) {}

  void handle_message(sim::NodeId from, const sim::MessagePtr& message) override {
    // Forward client transactions to a random validator; randomness is what
    // makes repeated submissions of a censored transaction land elsewhere.
    if (const auto* tx = sim::msg_cast<ClientTxMsg>(message)) {
      ++forwarded_;
      *origins_.try_emplace(tx->tx->hash).first = from;  // latest sender
      send(static_cast<sim::NodeId>(rng_.next_below(validator_count_)),
           message);
      return;
    }
    // Relay commit acknowledgements back to the submitting client.
    if (const auto* ack = sim::msg_cast<CommitAckMsg>(message)) {
      if (const sim::NodeId* origin = origins_.find(ack->tx_hash)) {
        send(*origin, message);
        origins_.erase(ack->tx_hash);
      }
    }
  }

  std::uint64_t forwarded() const { return forwarded_; }

 private:
  std::uint32_t validator_count_;
  Rng rng_;
  std::uint64_t forwarded_ = 0;
  FlatMap<32, sim::NodeId> origins_;
};

}  // namespace srbb::node
