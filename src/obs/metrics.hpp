// Deterministic metrics substrate (DESIGN.md §8). Every layer of the stack
// publishes counters, gauges and fixed-bucket latency histograms into a
// MetricsRegistry instead of growing ad-hoc `struct Metrics` fields per
// component. Design constraints, in order:
//
//  - zero allocation on the hot path: callers register once (setup time,
//    may allocate) and keep the returned Counter&/Histogram& reference;
//    recording is then a plain integer add / bucket increment;
//  - determinism: values are integers (sim-time nanoseconds, counts), export
//    iterates name-sorted maps, and nothing reads a wall clock — so a metric
//    dump is as replayable as the simulation that produced it;
//  - mergeability: registries from different nodes (or runs) fold together
//    with merge_from(); histograms merge bucket-wise, which is what lets the
//    DIABLO runner report one network-wide latency distribution per phase.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/invariant.hpp"

namespace srbb::obs {

/// Monotonic event count.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }
  void merge(const Counter& other) { value_ += other.value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Instantaneous level (pool occupancy, frontier height). Merging keeps the
/// maximum: the interesting aggregate for a level sampled across nodes.
class Gauge {
 public:
  void set(std::int64_t value) { value_ = value; }
  void add(std::int64_t delta) { value_ += delta; }
  std::int64_t value() const { return value_; }
  void merge(const Gauge& other) {
    if (other.value_ > value_) value_ = other.value_;
  }

 private:
  std::int64_t value_ = 0;
};

/// Fixed bucket layout shared by every histogram with the same name, so the
/// per-node instances stay mergeable.
struct HistogramBounds {
  /// Ascending inclusive upper edges; values above the last edge land in the
  /// overflow bucket.
  std::vector<std::uint64_t> edges;

  /// `count` buckets at `first, first*factor, first*factor^2, ...`.
  static HistogramBounds exponential(std::uint64_t first, double factor,
                                     std::size_t count);

  /// Default layout for simulated-time durations: 1 µs doubling up to ~9
  /// simulated minutes (40 buckets), which covers everything from a single
  /// signature check to a FIFA-workload commit latency.
  static const HistogramBounds& sim_latency();

  bool operator==(const HistogramBounds& other) const = default;
};

/// Point-in-time copy of a histogram, carried in results structs (e.g.
/// diablo::RunResult) after the run that produced it is gone.
struct HistogramSnapshot {
  std::vector<std::uint64_t> edges;
  std::vector<std::uint64_t> counts;  // edges.size() + 1 (overflow last)
  std::uint64_t count = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  double mean = 0.0;
  std::uint64_t p50 = 0;
  std::uint64_t p90 = 0;
  std::uint64_t p99 = 0;

  /// One human-readable line, durations scaled to a readable unit.
  std::string summary() const;
};

/// Fixed-bucket histogram. observe() is two comparisons plus a binary search
/// over ~40 edges — no allocation, no floating point.
class Histogram {
 public:
  explicit Histogram(HistogramBounds bounds);

  void observe(std::uint64_t value);

  std::uint64_t count() const { return count_; }
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return count_ == 0 ? 0 : max_; }
  double mean() const;

  /// Upper edge of the bucket holding the q-quantile observation, clamped to
  /// the observed max (both bound the true quantile from above; the clamp
  /// keeps p50 <= max in summaries). For the overflow bucket the observed
  /// max is returned, so the estimate stays finite even at u64 extremes.
  /// q outside (0,1] is clamped.
  std::uint64_t quantile(double q) const;

  /// Bucket-wise fold; bounds must match (checked).
  void merge(const Histogram& other);

  const HistogramBounds& bounds() const { return bounds_; }

  HistogramSnapshot snapshot() const;

 private:
  HistogramBounds bounds_;
  std::vector<std::uint64_t> counts_;  // edges + overflow
  std::uint64_t count_ = 0;
  std::uint64_t min_ = ~0ull;
  std::uint64_t max_ = 0;
  /// 128-bit so observing u64-extreme values cannot overflow the mean.
  unsigned __int128 sum_ = 0;
};

/// Name-keyed registry. Registration (counter()/gauge()/histogram()) is
/// idempotent — a second call with the same name returns the same instance,
/// which is how several nodes sharing one registry aggregate into one set of
/// series. References stay valid for the registry's lifetime.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(
      std::string_view name,
      const HistogramBounds& bounds = HistogramBounds::sim_latency());

  const Counter* find_counter(std::string_view name) const;
  const Histogram* find_histogram(std::string_view name) const;

  /// Fold another registry in: counters add, gauges keep the max, histograms
  /// merge bucket-wise (registering any series this registry lacks).
  void merge_from(const MetricsRegistry& other);

  /// Deterministic text dump, sorted by series name.
  std::string to_string() const;

  std::size_t series_count() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

 private:
  // std::map (ordered) on purpose: export iterates these, and the
  // determinism lint forbids ranged-for over unordered containers.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Render a nanosecond duration with an adaptive unit (ns/µs/ms/s).
std::string format_duration_ns(std::uint64_t ns);

}  // namespace srbb::obs
