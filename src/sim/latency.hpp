// Inter-region latency model. aws_global() encodes the ten regions the paper
// deploys across (§V): Bahrain, Cape Town, Milan, Mumbai, N. Virginia, Ohio,
// Oregon, Stockholm, Sydney, Tokyo, with approximate one-way delays.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"

namespace srbb::sim {

using RegionId = std::uint32_t;

class LatencyModel {
 public:
  /// The paper's 10 AWS regions with measured-order-of-magnitude one-way
  /// delays and 10% jitter.
  static LatencyModel aws_global();
  /// One region (the Table I setup: Sydney only) with LAN-scale delay.
  static LatencyModel single_region(SimDuration one_way = millis(1));
  /// Uniform synthetic mesh for unit tests.
  static LatencyModel uniform(std::size_t regions, SimDuration one_way);

  std::size_t region_count() const { return regions_; }

  /// Sampled one-way delay between regions (base +/- jitter).
  SimDuration sample(RegionId from, RegionId to, Rng& rng) const;
  SimDuration base(RegionId from, RegionId to) const {
    return matrix_[from * regions_ + to];
  }

  /// Spread n nodes across regions round-robin (the paper balances 200
  /// validators over 10 regions, 20 each).
  std::vector<RegionId> assign_round_robin(std::size_t n) const;

 private:
  std::size_t regions_ = 0;
  std::vector<SimDuration> matrix_;  // row-major one-way base delays
  double jitter_fraction_ = 0.1;
};

}  // namespace srbb::sim
