// Host-time layer replay: the workload's own generated transactions pushed
// through each module's public functions in commit-path order, with a
// host-clock span around every call. Nothing inside the program is
// instrumented; every layer is timed from outside, at its public calls.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "json.hpp"

namespace perfbench {

struct ReplayParams {
  /// Mean size of the run's non-empty block proposals (from its trace).
  std::size_t block_txs = 1;
  /// Mean size of the run's non-empty executed superblocks (from its trace).
  std::size_t superblock_txs = 1;
};

/// Replays `in` and returns the per-layer timings. Every output check that
/// fails appends one line to `failures`.
JsonObject run_replay(const srbb::diablo::RunConfig& config, const Inputs& in,
                      const ReplayParams& params,
                      std::vector<std::string>& failures);

}  // namespace perfbench
