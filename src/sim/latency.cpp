#include "sim/latency.hpp"

namespace srbb::sim {

namespace {

// One-way delays in milliseconds between the paper's 10 AWS regions,
// approximated from public inter-region RTT measurements (order: Bahrain,
// Cape Town, Milan, Mumbai, N. Virginia, Ohio, Oregon, Stockholm, Sydney,
// Tokyo). Within-region delay is ~1 ms.
constexpr std::uint32_t kAwsOneWayMs[10][10] = {
    //  BAH  CPT  MIL  BOM  IAD  CMH  PDX  ARN  SYD  NRT
    {1, 90, 55, 20, 95, 100, 130, 65, 110, 95},     // Bahrain
    {90, 1, 75, 55, 110, 115, 145, 85, 105, 120},   // Cape Town
    {55, 75, 1, 55, 45, 50, 75, 18, 125, 110},      // Milan
    {20, 55, 55, 1, 95, 100, 110, 70, 75, 60},      // Mumbai
    {95, 110, 45, 95, 1, 6, 35, 55, 100, 75},       // N. Virginia
    {100, 115, 50, 100, 6, 1, 25, 55, 95, 70},      // Ohio
    {130, 145, 75, 110, 35, 25, 1, 80, 70, 50},     // Oregon
    {65, 85, 18, 70, 55, 55, 80, 1, 140, 125},      // Stockholm
    {110, 105, 125, 75, 100, 95, 70, 140, 1, 55},   // Sydney
    {95, 120, 110, 60, 75, 70, 50, 125, 55, 1},     // Tokyo
};

}  // namespace

LatencyModel LatencyModel::aws_global() {
  LatencyModel model;
  model.regions_ = 10;
  model.matrix_.resize(100);
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 10; ++j) {
      model.matrix_[i * 10 + j] = millis(kAwsOneWayMs[i][j]);
    }
  }
  return model;
}

LatencyModel LatencyModel::single_region(SimDuration one_way) {
  LatencyModel model;
  model.regions_ = 1;
  model.matrix_ = {one_way};
  return model;
}

LatencyModel LatencyModel::uniform(std::size_t regions, SimDuration one_way) {
  LatencyModel model;
  model.regions_ = regions;
  model.matrix_.assign(regions * regions, one_way);
  return model;
}

SimDuration LatencyModel::sample(RegionId from, RegionId to, Rng& rng) const {
  const SimDuration base_delay = base(from, to);
  // Symmetric jitter: base * (1 +/- jitter_fraction).
  const double factor =
      1.0 + jitter_fraction_ * (2.0 * rng.next_double() - 1.0);
  return static_cast<SimDuration>(static_cast<double>(base_delay) * factor);
}

std::vector<RegionId> LatencyModel::assign_round_robin(std::size_t n) const {
  std::vector<RegionId> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<RegionId>(i % regions_);
  }
  return out;
}

}  // namespace srbb::sim
