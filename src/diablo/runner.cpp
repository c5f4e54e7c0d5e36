#include "diablo/runner.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "chains/gossip_chain.hpp"
#include "crypto/keccak.hpp"
#include "diablo/client.hpp"
#include "evm/contracts.hpp"

namespace srbb::diablo {

namespace {

const crypto::SignatureScheme& scheme() {
  return crypto::SignatureScheme::fast_sim();
}

Address fixed_address(std::uint8_t tag) {
  Address a;
  a[0] = 0xDA;
  a[19] = tag;
  return a;
}

const Address kExchange = fixed_address(1);
const Address kMobility = fixed_address(2);
const Address kTicketing = fixed_address(3);
const Address kKvStore = fixed_address(4);
const Address kToken = fixed_address(5);
const Address kRouter = fixed_address(6);

// The hot recipient every kRouterTransfer pays: one shared credit slot, while
// each sender debits its own — the regime where composed interprocedural
// hints prove the per-sender writes disjoint but blind speculation cannot.
const U256 kHotRecipientWord{0x707ull};

Bytes calldata_for(TxShape shape, std::uint64_t i) {
  // Each selector is one Keccak, hashed once rather than per transaction.
  static const std::uint32_t kTrade =
      evm::selector("trade(uint256,uint256,uint256)");
  static const std::uint32_t kRide = evm::selector("ride(uint256,uint256)");
  static const std::uint32_t kBuy = evm::selector("buy(uint256,uint256)");
  static const std::uint32_t kRtransfer =
      evm::selector("rtransfer(uint256,uint256)");
  switch (shape) {
    case TxShape::kExchangeTrade:
      // Five hot stocks (AAPL/AMZN/FB/MSFT/GOOG in the trace).
      return evm::encode_call(
          kTrade, {U256{i % 5}, U256{100 + i % 50}, U256{1 + i % 9}});
    case TxShape::kMobilityRide:
      return evm::encode_call(kRide, {U256{i}, U256{10 + i % 40}});
    case TxShape::kTicketBuy:
      // Unique seats so honest buys never double-sell.
      return evm::encode_call(kBuy, {U256{i / 50'000}, U256{i % 50'000}});
    case TxShape::kRouterTransfer:
      return evm::encode_call(kRtransfer, {kHotRecipientWord, U256{1}});
    case TxShape::kTransfer:
      return {};
  }
  return {};
}

/// Token-ledger slot keccak(addressWord ++ 0) — the token contract's balance
/// mapping, living in *router* storage under DELEGATECALL.
Hash32 token_balance_slot(const Address& holder) {
  Bytes preimage;
  append(preimage, U256::from_be(holder.view()).be_bytes());
  append(preimage, U256{0}.be_bytes());
  return crypto::Keccak256::hash(BytesView{preimage});
}

struct PreparedTx {
  txn::TxPtr tx;
};

}  // namespace

RunConfig scale_config(RunConfig config, double factor) {
  if (factor >= 1.0) return config;
  const auto scaled_size = [factor](std::size_t value, std::size_t floor_at) {
    return std::max<std::size_t>(
        floor_at, static_cast<std::size_t>(
                      std::lround(static_cast<double>(value) * factor)));
  };
  config.validators = static_cast<std::uint32_t>(
      scaled_size(config.validators, 4));
  config.workload = config.workload.scaled(factor);
  // Capacity/load ratios must survive scaling: block caps bound commit rate
  // against the scaled offered rate, pool slots bound burst absorption
  // against the scaled gossip inflow.
  config.preset.max_block_txs = scaled_size(config.preset.max_block_txs, 1);
  // Pool occupancy scales with what a pool holds: gossip-based systems
  // (modern chains, EVM+DBFT) replicate the GLOBAL stream into every pool,
  // so their capacity scales with the offered rate; a TVPR pool only holds
  // its own clients' share (rate/n), which is scale-invariant, so SRBB pools
  // keep their real size.
  config.preset.pool.capacity = scaled_size(config.preset.pool.capacity, 64);
  // Per-validator commit-path load is total_rate x cost; with rates scaled
  // down by `factor`, costs scale up by 1/factor so the saturation point —
  // where congestion starts — is preserved. (The EVM+DBFT duplicate burden
  // additionally scales with committee size, so its collapse factor grows
  // toward the paper's full-scale value as scale -> 1; see EXPERIMENTS.md.)
  const auto boost = [factor](SimDuration d) {
    return static_cast<SimDuration>(static_cast<double>(d) / factor);
  };
  config.costs.lazy_validation = boost(config.costs.lazy_validation);
  config.costs.sig_check_exec = boost(config.costs.sig_check_exec);
  config.costs.execution_per_tx = boost(config.costs.execution_per_tx);
  return config;
}

RunResult run_experiment(const RunConfig& config) {
  sim::Simulation simulation;
  sim::NetworkConfig net_config;
  net_config.latency = config.latency;
  net_config.bandwidth_bps = config.bandwidth_bps;
  net_config.seed = config.seed;
  sim::Network network{simulation, net_config};

  const bool inject_faults = !config.faults.empty();
  sim::FaultInjector injector{config.faults};
  if (inject_faults) network.set_fault_injector(&injector);

  // The run's metrics home: every node publishes into this one registry, so
  // the per-phase histograms reduced into RunResult are already network-wide.
  obs::MetricsRegistry registry;
  network.set_trace(config.trace);

  const std::uint32_t n = config.validators;
  const std::uint32_t f = n >= 4 ? (n - 1) / 3 : 0;
  const auto regions = config.latency.assign_round_robin(n + config.clients);
  sim::GossipOverlay overlay{n, 8, config.seed ^ 0x60551Full};

  // --- workload and genesis -------------------------------------------------
  const std::vector<SimTime> schedule = send_schedule(config.workload);
  const std::uint64_t total = schedule.size();
  // Enough pre-funded accounts that a dropped transaction only strands a
  // handful of same-sender successors (DIABLO pre-signs from many accounts
  // for the same reason). Rounded up to a multiple of the target-validator
  // count so every account always submits to the same validator and nonces
  // arrive in order.
  const std::uint32_t targets = config.client_target_count == 0
                                    ? n
                                    : std::min(n, config.client_target_count);
  std::size_t sender_count = std::max<std::size_t>(
      512, static_cast<std::size_t>(total / 4));
  sender_count = (sender_count + targets - 1) / targets * targets;

  node::GenesisSpec genesis;
  std::vector<crypto::Identity> senders;
  senders.reserve(sender_count);
  for (std::size_t i = 0; i < sender_count; ++i) {
    senders.push_back(scheme().make_identity(1'000'000 + i));
    genesis.accounts.push_back(
        {senders.back().address(), U256{1'000'000'000'000ull}});
  }
  genesis.contracts.push_back({kExchange, evm::exchange_contract().runtime_code});
  genesis.contracts.push_back({kMobility, evm::mobility_contract().runtime_code});
  genesis.contracts.push_back(
      {kTicketing, evm::ticketing_contract().runtime_code});
  if (config.workload.shape == TxShape::kRouterTransfer) {
    genesis.contracts.push_back({kKvStore, evm::kvstore_contract().runtime_code});
    genesis.contracts.push_back({kToken, evm::token_contract().runtime_code});
    node::GenesisSpec::PredeployedContract router{
        kRouter, evm::router_contract(kKvStore, kToken).runtime_code, {}};
    // The token ledger lives in router storage (DELEGATECALL): pre-fund every
    // sender so rtransfer never reverts for lack of balance.
    router.storage_slots.reserve(sender_count);
    for (const crypto::Identity& sender : senders) {
      router.storage_slots.push_back(
          {token_balance_slot(sender.address()), U256{1'000'000'000ull}});
    }
    genesis.contracts.push_back(std::move(router));
  }

  evm::BlockContext block_template;
  auto shared_oracle =
      std::make_shared<node::ExecutionOracle>(genesis, block_template, scheme());
  // Every oracle that executes: the shared one, or one per validator.
  std::vector<std::shared_ptr<node::ExecutionOracle>> oracles;

  // --- validators -----------------------------------------------------------
  rpm::RpmConfig rpm_config;
  rpm_config.n = n;
  rpm_config.f = f;
  rpm_config.scheme = &scheme();
  auto rpm_contract = std::make_shared<rpm::RewardPenaltyMechanism>(rpm_config);

  std::vector<std::unique_ptr<node::ValidatorNode>> srbb_validators;
  std::vector<std::unique_ptr<chains::GossipChainNode>> modern_validators;

  for (std::uint32_t rank = 0; rank < n; ++rank) {
    auto oracle = config.replicated_execution
                      ? std::make_shared<node::ExecutionOracle>(
                            genesis, block_template, scheme())
                      : shared_oracle;
    if (oracles.empty() || oracles.back() != oracle) oracles.push_back(oracle);
    if (config.kind == SystemKind::kModern) {
      chains::GossipChainConfig node_config;
      node_config.n = n;
      node_config.self = rank;
      node_config.preset = config.preset;
      node_config.scheme = &scheme();
      modern_validators.push_back(std::make_unique<chains::GossipChainNode>(
          simulation, rank, regions[rank], node_config, oracle, &overlay));
      modern_validators.back()->set_observability(config.trace, &registry);
      network.attach(modern_validators.back().get());
    } else {
      node::ValidatorConfig node_config;
      node_config.n = n;
      node_config.f = f;
      node_config.self = rank;
      node_config.tvpr = config.kind == SystemKind::kSrbb;
      node_config.rpm = config.rpm;
      node_config.scheme = &scheme();
      node_config.costs = config.costs;
      node_config.pool = config.pool;
      node_config.max_block_txs = config.max_block_txs;
      node_config.min_block_interval = config.min_block_interval;
      node_config.proposal_timeout = config.proposal_timeout;
      node_config.oracle_private = config.replicated_execution;
      node_config.rebroadcast_interval = config.rebroadcast_interval;
      node_config.adaptive_membership = config.adaptive_membership;
      node_config.trace = config.trace;
      node_config.metrics = &registry;
      if (rank >= n - config.byzantine) {
        node_config.behavior.flood_invalid_per_block =
            config.flood_invalid_per_block;
        node_config.behavior.flood_total_limit = config.flood_total;
      }
      srbb_validators.push_back(std::make_unique<node::ValidatorNode>(
          simulation, rank, regions[rank], node_config, oracle, rpm_contract,
          &overlay));
      network.attach(srbb_validators.back().get());
      rpm_contract->register_validator(
          srbb_validators.back()->identity().address(), U256{1'000'000'000});
    }
  }

  // --- clients ---------------------------------------------------------------
  std::vector<std::unique_ptr<ClientNode>> clients;
  for (std::uint32_t c = 0; c < config.clients; ++c) {
    clients.push_back(std::make_unique<ClientNode>(
        simulation, n + c, regions[n + c]));
    clients.back()->set_observability(config.trace, &registry);
    if (config.client_resend_timeout != 0) {
      clients.back()->enable_resend(config.client_resend_timeout, n);
    }
    network.attach(clients.back().get());
  }

  std::vector<std::uint64_t> nonces(sender_count, 0);
  for (std::uint64_t i = 0; i < total; ++i) {
    const std::size_t sender = i % sender_count;
    txn::TxParams params;
    params.nonce = nonces[sender]++;
    params.gas_price = U256{1};
    if (config.workload.shape == TxShape::kTransfer) {
      params.kind = txn::TxKind::kTransfer;
      params.gas_limit = 30'000;
      params.to = scheme().make_identity(42).address();
      params.value = U256{1};
    } else {
      params.kind = txn::TxKind::kInvoke;
      params.gas_limit = 200'000;
      switch (config.workload.shape) {
        case TxShape::kExchangeTrade: params.to = kExchange; break;
        case TxShape::kMobilityRide: params.to = kMobility; break;
        case TxShape::kRouterTransfer: params.to = kRouter; break;
        default: params.to = kTicketing; break;
      }
      params.data = calldata_for(config.workload.shape, i);
    }
    const txn::TxPtr tx =
        txn::make_signed_tx(params, senders[sender], scheme());
    // DIABLO distributes load round-robin over validators and clients.
    clients[i % config.clients]->add_submission(
        schedule[i], tx, static_cast<sim::NodeId>(i % targets));
  }

  if (inject_faults) {
    injector.arm(
        simulation,
        [&srbb_validators](sim::NodeId node) {
          if (node < srbb_validators.size()) srbb_validators[node]->crash();
        },
        [&srbb_validators](sim::NodeId node) {
          if (node < srbb_validators.size()) srbb_validators[node]->restart();
        });
  }

  // Windowed commit sampler: cumulative client-observed commits at every
  // window boundary, diffed into per-window counts after the run.
  std::vector<std::uint64_t> cumulative_commits;
  if (config.tps_window > 0) {
    const SimTime end = config.workload.duration() + config.drain;
    for (SimTime at = config.tps_window; at <= end; at += config.tps_window) {
      simulation.schedule_at(at, [&clients, &cumulative_commits] {
        std::uint64_t sum = 0;
        for (const auto& client : clients) sum += client->committed();
        cumulative_commits.push_back(sum);
      });
    }
  }

  for (auto& validator : srbb_validators) validator->start();
  for (auto& validator : modern_validators) validator->start();
  for (auto& client : clients) client->start();

  simulation.run_until(config.workload.duration() + config.drain);

  // --- reduce ---------------------------------------------------------------
  RunResult result;
  result.system = config.system_name;
  result.workload = config.workload.name;
  std::vector<double> latencies;
  SimTime first_send = ~0ull;
  SimTime last_commit = 0;
  for (const auto& client : clients) {
    result.sent += client->sent();
    result.committed += client->committed();
    const auto& client_latencies = client->latencies();
    latencies.insert(latencies.end(), client_latencies.begin(),
                     client_latencies.end());
    first_send = std::min(first_send, client->first_send());
    last_commit = std::max(last_commit, client->last_commit());
  }
  result.commit_pct =
      result.sent == 0
          ? 0
          : 100.0 * static_cast<double>(result.committed) /
                static_cast<double>(result.sent);
  if (result.committed > 0 && last_commit > first_send) {
    result.throughput_tps = static_cast<double>(result.committed) /
                            to_seconds(last_commit - first_send);
  }
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    double sum = 0;
    for (const double l : latencies) sum += l;
    result.avg_latency_s = sum / static_cast<double>(latencies.size());
    result.p50_latency_s = latencies[latencies.size() / 2];
    result.p95_latency_s = latencies[latencies.size() * 95 / 100];
    result.max_latency_s = latencies.back();
  }

  // invalid_discarded is the same set at every replica (they replay the
  // same blocks), so report the network-wide count via max, not sum.
  for (const auto& validator : srbb_validators) {
    result.eager_validations += validator->metrics().eager_validations;
    result.gossip_tx_messages += validator->metrics().gossip_txs_sent;
    result.pool_drops += validator->tx_pool().dropped_full();
    result.invalid_discarded = std::max(
        result.invalid_discarded, validator->metrics().txs_discarded_invalid);
    result.validator_crashes += validator->metrics().crashes;
    result.validator_restarts += validator->metrics().restarts;
    result.superblocks_synced += validator->metrics().superblocks_synced;
    result.membership_disables = std::max(
        result.membership_disables, validator->metrics().membership_disables);
    result.membership_readmissions =
        std::max(result.membership_readmissions,
                 validator->metrics().membership_readmissions);
    result.membership_removals = std::max(
        result.membership_removals, validator->metrics().membership_removals);
  }
  for (const auto& validator : modern_validators) {
    result.eager_validations += validator->metrics().eager_validations;
    result.gossip_tx_messages += validator->metrics().gossip_txs_sent;
    result.pool_drops += validator->tx_pool().dropped_full();
    result.invalid_discarded = std::max(
        result.invalid_discarded, validator->metrics().txs_discarded_invalid);
    result.crashed_nodes += validator->metrics().crashed ? 1 : 0;
  }
  std::uint64_t previous = 0;
  for (const std::uint64_t commits : cumulative_commits) {
    result.window_commits.push_back(commits - previous);
    previous = commits;
  }
  if (inject_faults) {
    result.faults_dropped = injector.stats().dropped;
    result.faults_duplicated = injector.stats().duplicated;
  }
  result.network_messages = network.total_messages();
  result.network_bytes = network.total_bytes();
  result.slash_events = rpm_contract->slash_events().size();
  result.sim_events = simulation.events_processed();
  result.sim_peak_heap = simulation.peak_heap();
  result.sim_peak_pending = simulation.peak_pending();
  result.sim_head_pushes = simulation.head_pushes();
  result.gossip_seen_rows = overlay.seen_ledger().rows();
  for (const auto& oracle : oracles) {
    const state::StateDB::RootWork work = oracle->db().root_work();
    result.state_roots += work.roots;
    result.state_root_records += work.records;
    result.state_root_bytes += work.bytes;
    result.state_records += oracle->db().root_records();
  }
  // Guard the observation-window division: a zero-duration run (empty
  // workload, no drain) has no rate, not an infinite one.
  const double run_seconds =
      to_seconds(config.workload.duration() + config.drain);
  if (!srbb_validators.empty() && run_seconds > 0.0) {
    result.valid_committed_per_validator_tps =
        static_cast<double>(srbb_validators[0]->metrics().txs_committed_valid) /
        run_seconds;
  }

  // Per-phase histograms out of the shared registry (empty snapshot when the
  // phase never fired, e.g. no SRBB validators -> no propose_to_decide).
  const auto snap = [&registry](std::string_view name) {
    const obs::Histogram* hist = registry.find_histogram(name);
    return hist != nullptr ? hist->snapshot() : obs::HistogramSnapshot{};
  };
  result.pool_wait = snap("pool.wait");
  result.propose_to_decide = snap("lat.propose_to_decide");
  result.decide_to_commit = snap("lat.decide_to_commit");
  result.e2e_commit = snap("lat.e2e_commit");
  return result;
}

}  // namespace srbb::diablo
