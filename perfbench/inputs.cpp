#include "inputs.hpp"

#include <algorithm>
#include <cmath>

#include "evm/contracts.hpp"
#include "sim/latency.hpp"

namespace perfbench {

using namespace srbb;

namespace {

const Workload kWorkloads[] = {
    {"fifa_srbb", diablo::SystemKind::kSrbb, "SRBB", &diablo::WorkloadSpec::fifa,
     0.1},
    {"nasdaq_srbb", diablo::SystemKind::kSrbb, "SRBB",
     &diablo::WorkloadSpec::nasdaq, 0.1},
    {"fifa_evmdbft", diablo::SystemKind::kEvmDbft, "EVM+DBFT",
     &diablo::WorkloadSpec::fifa, 0.05},
};

// The runner's DApp addresses and calldata (src/diablo/runner.cpp).
Address fixed_address(std::uint8_t tag) {
  Address a;
  a[0] = 0xDA;
  a[19] = tag;
  return a;
}

const Address kExchange = fixed_address(1);
const Address kMobility = fixed_address(2);
const Address kTicketing = fixed_address(3);

Bytes calldata_for(diablo::TxShape shape, std::uint64_t i) {
  switch (shape) {
    case diablo::TxShape::kExchangeTrade:
      return evm::encode_call("trade(uint256,uint256,uint256)",
                              {U256{i % 5}, U256{100 + i % 50}, U256{1 + i % 9}});
    case diablo::TxShape::kMobilityRide:
      return evm::encode_call("ride(uint256,uint256)",
                              {U256{i}, U256{10 + i % 40}});
    default:
      return evm::encode_call("buy(uint256,uint256)",
                              {U256{i / 50'000}, U256{i % 50'000}});
  }
}

Address target_of(diablo::TxShape shape) {
  switch (shape) {
    case diablo::TxShape::kExchangeTrade: return kExchange;
    case diablo::TxShape::kMobilityRide: return kMobility;
    default: return kTicketing;
  }
}

}  // namespace

const crypto::SignatureScheme& scheme() {
  return crypto::SignatureScheme::fast_sim();
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& workload : kWorkloads) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

diablo::RunConfig make_config(const Workload& workload, std::uint64_t seed) {
  // bench/bench_util.hpp::paper_config, then scale_config.
  diablo::RunConfig config;
  config.system_name = workload.system_name;
  config.kind = workload.kind;
  config.validators = 200;
  config.workload = workload.trace();
  config.latency = sim::LatencyModel::aws_global();
  config.clients = 10;
  config.drain = seconds(120);
  config = diablo::scale_config(config, workload.scale);
  config.seed = seed;
  return config;
}

Inputs make_inputs(const diablo::RunConfig& config) {
  Inputs in;
  const std::uint64_t total = diablo::send_schedule(config.workload).size();
  const std::uint32_t targets = config.validators;
  std::size_t sender_count =
      std::max<std::size_t>(512, static_cast<std::size_t>(total / 4));
  sender_count = (sender_count + targets - 1) / targets * targets;

  in.senders.reserve(sender_count);
  for (std::size_t i = 0; i < sender_count; ++i) {
    in.senders.push_back(scheme().make_identity(1'000'000 + i));
    in.genesis.accounts.push_back(
        {in.senders.back().address(), U256{1'000'000'000'000ull}});
  }
  in.genesis.contracts.push_back(
      {kExchange, evm::exchange_contract().runtime_code, {}});
  in.genesis.contracts.push_back(
      {kMobility, evm::mobility_contract().runtime_code, {}});
  in.genesis.contracts.push_back(
      {kTicketing, evm::ticketing_contract().runtime_code, {}});
  in.oracle = std::make_shared<node::ExecutionOracle>(
      in.genesis, evm::BlockContext{}, scheme());

  const diablo::TxShape shape = config.workload.shape;
  std::vector<std::uint64_t> nonces(sender_count, 0);
  in.txs.reserve(total);
  for (std::uint64_t i = 0; i < total; ++i) {
    const std::size_t sender = i % sender_count;
    txn::TxParams params;
    params.kind = txn::TxKind::kInvoke;
    params.nonce = nonces[sender]++;
    params.gas_price = U256{1};
    params.gas_limit = 200'000;
    params.to = target_of(shape);
    params.data = calldata_for(shape, i);
    in.txs.push_back(txn::make_tx_ptr(
        txn::make_signed(params, in.senders[sender], scheme())));
  }
  return in;
}

}  // namespace perfbench
