// The benchmark's workloads and the inputs diablo::run_experiment generates
// for them, rebuilt here from the same public calls the runner makes (send
// schedule, sender identities, pre-signed transactions, genesis oracle). The
// set-up timing (setup_s) and the host-time layer replay both start from
// these inputs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "diablo/runner.hpp"
#include "srbb/genesis.hpp"
#include "srbb/oracle.hpp"
#include "txn/txref.hpp"

namespace perfbench {

struct Workload {
  const char* name;
  srbb::diablo::SystemKind kind;
  const char* system_name;
  srbb::diablo::WorkloadSpec (*trace)();
  double scale;
};

/// fifa_srbb, nasdaq_srbb, fifa_evmdbft; nullptr for an unknown name.
const Workload* find_workload(const std::string& name);

/// The paper's 200-validator deployment (aws_global latency, 10 clients,
/// 120 s drain) scaled by the workload's factor, with `seed` as the run seed.
srbb::diablo::RunConfig make_config(const Workload& workload,
                                    std::uint64_t seed);

struct Inputs {
  std::vector<srbb::crypto::Identity> senders;
  srbb::node::GenesisSpec genesis;
  std::vector<srbb::txn::TxPtr> txs;  // in schedule order
  std::shared_ptr<srbb::node::ExecutionOracle> oracle;  // at genesis
};

/// Everything run_experiment builds before the simulation starts, for the
/// DApp shapes the workloads use (trade, ride, buy).
Inputs make_inputs(const srbb::diablo::RunConfig& config);

const srbb::crypto::SignatureScheme& scheme();

}  // namespace perfbench
