#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace srbb::obs {

// ---------------------------------------------------------------------------
// HistogramBounds
// ---------------------------------------------------------------------------

HistogramBounds HistogramBounds::exponential(std::uint64_t first,
                                             double factor,
                                             std::size_t count) {
  SRBB_CHECK(first > 0);
  SRBB_CHECK(factor > 1.0);
  SRBB_CHECK(count > 0);
  HistogramBounds bounds;
  bounds.edges.reserve(count);
  double edge = static_cast<double>(first);
  std::uint64_t last = 0;
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t rounded = static_cast<std::uint64_t>(edge);
    if (rounded <= last) rounded = last + 1;  // keep strictly ascending
    bounds.edges.push_back(rounded);
    last = rounded;
    edge *= factor;
    if (edge >= 1.8e19) break;  // next edge would exceed u64
  }
  return bounds;
}

const HistogramBounds& HistogramBounds::sim_latency() {
  static const HistogramBounds bounds =
      exponential(1'000 /* 1 µs */, 2.0, 40);
  return bounds;
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(HistogramBounds bounds) : bounds_(std::move(bounds)) {
  SRBB_CHECK(!bounds_.edges.empty());
  SRBB_CHECK(std::is_sorted(bounds_.edges.begin(), bounds_.edges.end()));
  counts_.assign(bounds_.edges.size() + 1, 0);
}

void Histogram::observe(std::uint64_t value) {
  const auto it =
      std::lower_bound(bounds_.edges.begin(), bounds_.edges.end(), value);
  const std::size_t bucket =
      static_cast<std::size_t>(it - bounds_.edges.begin());
  ++counts_[bucket];  // == edges.size() -> overflow bucket
  ++count_;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
  sum_ += value;
}

double Histogram::mean() const {
  if (count_ == 0) return 0.0;
  return static_cast<double>(sum_) / static_cast<double>(count_);
}

std::uint64_t Histogram::quantile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-quantile observation, 1-based, at least 1.
  const double scaled = q * static_cast<double>(count_);
  std::uint64_t rank = static_cast<std::uint64_t>(std::ceil(scaled));
  if (rank == 0) rank = 1;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cumulative += counts_[i];
    if (cumulative >= rank) {
      // Overflow bucket has no upper edge; the observed max is the tightest
      // finite bound we can report. The observed max also clamps edge
      // buckets: both bound the true quantile from above, and without the
      // clamp a summary could print p50 > max.
      return i < bounds_.edges.size() ? std::min(bounds_.edges[i], max_)
                                      : max_;
    }
  }
  return max_;
}

void Histogram::merge(const Histogram& other) {
  SRBB_CHECK(bounds_ == other.bounds_);
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  sum_ += other.sum_;
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.edges = bounds_.edges;
  snap.counts = counts_;
  snap.count = count_;
  snap.min = min();
  snap.max = max();
  snap.mean = mean();
  snap.p50 = quantile(0.50);
  snap.p90 = quantile(0.90);
  snap.p99 = quantile(0.99);
  return snap;
}

std::string HistogramSnapshot::summary() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "count=%llu mean=%s p50=%s p90=%s p99=%s max=%s",
                static_cast<unsigned long long>(count),
                format_duration_ns(static_cast<std::uint64_t>(mean)).c_str(),
                format_duration_ns(p50).c_str(),
                format_duration_ns(p90).c_str(),
                format_duration_ns(p99).c_str(),
                format_duration_ns(max).c_str());
  return buf;
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

Counter& MetricsRegistry::counter(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  return *counters_.emplace(std::string(name), std::make_unique<Counter>())
              .first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  return *gauges_.emplace(std::string(name), std::make_unique<Gauge>())
              .first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      const HistogramBounds& bounds) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) {
    SRBB_CHECK(it->second->bounds() == bounds);
    return *it->second;
  }
  return *histograms_
              .emplace(std::string(name), std::make_unique<Histogram>(bounds))
              .first->second;
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::find_histogram(std::string_view name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  for (const auto& [name, value] : other.counters_) {
    counter(name).merge(*value);
  }
  for (const auto& [name, value] : other.gauges_) {
    gauge(name).merge(*value);
  }
  for (const auto& [name, value] : other.histograms_) {
    histogram(name, value->bounds()).merge(*value);
  }
}

std::string MetricsRegistry::to_string() const {
  std::string out;
  for (const auto& [name, value] : counters_) {
    out += name + " = " + std::to_string(value->value()) + "\n";
  }
  for (const auto& [name, value] : gauges_) {
    out += name + " = " + std::to_string(value->value()) + "\n";
  }
  for (const auto& [name, value] : histograms_) {
    out += name + " : " + value->snapshot().summary() + "\n";
  }
  return out;
}

std::string format_duration_ns(std::uint64_t ns) {
  char buf[48];
  if (ns < 10'000) {
    std::snprintf(buf, sizeof(buf), "%lluns",
                  static_cast<unsigned long long>(ns));
  } else if (ns < 10'000'000) {
    std::snprintf(buf, sizeof(buf), "%.1fus",
                  static_cast<double>(ns) / 1e3);
  } else if (ns < 10'000'000'000ull) {
    std::snprintf(buf, sizeof(buf), "%.1fms",
                  static_cast<double>(ns) / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs",
                  static_cast<double>(ns) / 1e9);
  }
  return buf;
}

}  // namespace srbb::obs
