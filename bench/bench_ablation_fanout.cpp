// Ablation: gossip fanout sweep for the modern-blockchain protocol. Fanout
// trades propagation speed against duplicate receptions and bandwidth; no
// setting removes the n-fold validation redundancy, which is the paper's
// point — TVPR wins by construction, not by tuning.
#include <cstdio>

#include "chains/gossip_chain.hpp"
#include "diablo/client.hpp"
#include "diablo/runner.hpp"
#include "evm/contracts.hpp"

using namespace srbb;

namespace {

struct FanoutResult {
  std::uint64_t committed = 0;
  std::uint64_t gossip_msgs = 0;
  std::uint64_t network_bytes = 0;
  double avg_latency_s = 0;
};

FanoutResult run(std::size_t fanout) {
  sim::Simulation simulation;
  sim::NetworkConfig net_config;
  net_config.latency = sim::LatencyModel::aws_global();
  sim::Network network{simulation, net_config};
  const std::uint32_t n = 20;
  sim::GossipOverlay overlay{n, fanout, 11};

  node::GenesisSpec genesis;
  std::vector<crypto::Identity> senders;
  const auto& scheme = crypto::SignatureScheme::fast_sim();
  for (std::size_t i = 0; i < 512; ++i) {
    senders.push_back(scheme.make_identity(1'000'000 + i));
    genesis.accounts.push_back({senders.back().address(), U256{1'000'000'000}});
  }
  auto oracle = std::make_shared<node::ExecutionOracle>(
      genesis, evm::BlockContext{}, scheme);

  chains::ChainPreset preset = chains::preset_quorum_ibft();
  preset.gossip_fanout = fanout;
  std::vector<std::unique_ptr<chains::GossipChainNode>> validators;
  const auto regions = net_config.latency.assign_round_robin(n + 1);
  for (std::uint32_t rank = 0; rank < n; ++rank) {
    chains::GossipChainConfig config;
    config.n = n;
    config.self = rank;
    config.preset = preset;
    config.scheme = &scheme;
    validators.push_back(std::make_unique<chains::GossipChainNode>(
        simulation, rank, regions[rank], config, oracle, &overlay));
    network.attach(validators.back().get());
  }
  diablo::ClientNode client{simulation, n, regions[n]};
  network.attach(&client);

  const auto workload = diablo::WorkloadSpec::constant("steady", 100.0, 20);
  const auto schedule = diablo::send_schedule(workload);
  std::vector<std::uint64_t> nonces(senders.size(), 0);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const std::size_t sender = i % senders.size();
    txn::TxParams params;
    params.nonce = nonces[sender]++;
    params.gas_limit = 30'000;
    params.to = scheme.make_identity(9).address();
    params.value = U256{1};
    client.add_submission(
        schedule[i],
        txn::make_tx_ptr(txn::make_signed(params, senders[sender], scheme)),
        static_cast<sim::NodeId>(i % n));
  }
  for (auto& validator : validators) validator->start();
  client.start();
  simulation.run_until(workload.duration() + seconds(60));

  FanoutResult result;
  result.committed = client.committed();
  for (const auto& validator : validators) {
    result.gossip_msgs += validator->metrics().gossip_txs_sent;
  }
  result.network_bytes = network.total_bytes();
  const auto& latencies = client.latencies();
  for (const double l : latencies) result.avg_latency_s += l;
  if (!latencies.empty()) {
    result.avg_latency_s /= static_cast<double>(latencies.size());
  }
  return result;
}

}  // namespace

int main() {
  std::printf("=== Ablation: gossip fanout (modern protocol, 20 validators, "
              "100 TPS) ===\n\n");
  std::printf("%8s %10s %16s %14s %12s\n", "fanout", "committed",
              "gossip-msgs/tx", "net-MB", "avg-lat(s)");
  std::printf("%s\n", std::string(64, '-').c_str());
  for (const std::size_t fanout : {2u, 4u, 8u, 16u}) {
    const FanoutResult r = run(fanout);
    std::printf("%8zu %10llu %16.1f %14.1f %12.2f\n", fanout,
                static_cast<unsigned long long>(r.committed),
                static_cast<double>(r.gossip_msgs) / 2000.0,
                static_cast<double>(r.network_bytes) / 1e6, r.avg_latency_s);
    std::fflush(stdout);
  }
  std::printf("\nHigher fanout speeds propagation but multiplies duplicate "
              "receptions and bandwidth; the per-validator validation burden "
              "(one eager validation per tx per validator) is unchanged.\n");
  return 0;
}
