#pragma once
// Metrics registry: named counters, gauges, and log-bucketed histograms
// behind a process-wide Registry, exported as JSON (for --metrics-out).
//
// Hot-path cost: Counter::inc is one relaxed atomic add; Histogram::record is
// one log2, two relaxed atomic adds and two compare-and-swap loops (sum and
// max). Callers on hot paths should look the metric up once (Registry
// lookups take a mutex) and keep the reference — metric objects are never
// invalidated once created. A loop that many threads run per item tallies
// into a plain Histogram::Tally and merges it once, so the threads share no
// cache line while hot (the campaign executor does, per worker and day).

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace cloudrtt::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A value that goes up and down (fleet sizes, budgets).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta);
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log-bucketed histogram of non-negative samples (latencies, durations).
/// Buckets are geometric with four per octave, covering 2^-10 .. 2^54, so
/// quantile estimates carry at most ~9% relative error — plenty for p50/p99
/// of RTTs while keeping record() branch-free and allocation-free.
class Histogram {
 public:
  static constexpr int kSubBuckets = 4;       ///< buckets per octave
  static constexpr int kMinExponent = -10;    ///< 2^-10 ~ 1 microsecond in ms
  static constexpr int kMaxExponent = 54;
  static constexpr std::size_t kBucketCount =
      static_cast<std::size_t>((kMaxExponent - kMinExponent) * kSubBuckets);

  /// Samples counted in plain integers over the same buckets, for one
  /// thread to fill and merge() to add in one go. The merged histogram's
  /// buckets, count and max are what recording each sample would give; its
  /// sum adds one partial sum per tally, so its last bits can differ.
  struct Tally {
    std::array<std::uint64_t, kBucketCount> buckets{};
    std::uint64_t count = 0;
    double sum = 0.0;
    double max = 0.0;

    void record(double value) {
      ++buckets[bucket_index(value)];
      ++count;
      sum += value;
      max = std::max(max, value);
    }
  };

  void record(double value);
  /// Add `tally`'s samples.
  void merge(const Tally& tally);

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double max() const {
    return max_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }

  /// Estimated q-quantile (q in [0,1]) by geometric interpolation inside the
  /// covering bucket; exact for max, 0 when empty.
  [[nodiscard]] double quantile(double q) const;

  void reset();

 private:
  [[nodiscard]] static std::size_t bucket_index(double value);
  [[nodiscard]] static double bucket_lower_bound(std::size_t index);

  std::atomic<std::uint64_t> buckets_[kBucketCount]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

/// Named-metric registry. `global()` is the process-wide instance every
/// instrumented subsystem uses; separate instances exist for tests.
/// Metric names are dotted paths ("campaign.tasks_total").
class Registry {
 public:
  Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;
  ~Registry();

  [[nodiscard]] static Registry& global();

  /// Find-or-create; returned references stay valid for the registry's life.
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);

  /// Zero every metric value; registrations (and references) survive.
  void reset_values();

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
  /// mean, max, p50, p90, p99}}} — written into an already-open JSON object
  /// so callers can compose (the CLI adds the phase tree alongside).
  void write_json_fields(util::JsonWriter& json) const;
  /// Standalone JSON document wrapper around write_json_fields.
  void write_json(std::ostream& out) const;

  struct Snapshot {
    struct Entry {
      std::string name;
      double value = 0.0;
    };
    struct HistEntry {
      std::string name;
      std::uint64_t count = 0;
      double mean = 0.0, p50 = 0.0, p90 = 0.0, p99 = 0.0, max = 0.0;
    };
    std::vector<Entry> counters;
    std::vector<Entry> gauges;
    std::vector<HistEntry> histograms;
  };
  /// Sorted-by-name snapshot for summary tables.
  [[nodiscard]] Snapshot snapshot() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace cloudrtt::obs
