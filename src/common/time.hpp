// Simulated-time units. The discrete-event simulator advances a virtual clock
// measured in nanoseconds; these helpers keep call sites dimension-checked by
// naming rather than by a heavyweight units library.
#pragma once

#include <cstdint>

namespace srbb {

/// Virtual nanoseconds since simulation start.
using SimTime = std::uint64_t;
/// Virtual duration in nanoseconds.
using SimDuration = std::uint64_t;

constexpr SimDuration kNanosecond = 1;
constexpr SimDuration kMicrosecond = 1000 * kNanosecond;
constexpr SimDuration kMillisecond = 1000 * kMicrosecond;
constexpr SimDuration kSecond = 1000 * kMillisecond;

constexpr SimDuration micros(std::uint64_t n) { return n * kMicrosecond; }
constexpr SimDuration millis(std::uint64_t n) { return n * kMillisecond; }
constexpr SimDuration seconds(std::uint64_t n) { return n * kSecond; }

constexpr double to_seconds(SimDuration d) {
  return static_cast<double>(d) / static_cast<double>(kSecond);
}

}  // namespace srbb
