#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <mutex>
#include <ostream>

namespace cloudrtt::obs {

namespace {

void atomic_add(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& target, double candidate) {
  double current = target.load(std::memory_order_relaxed);
  while (current < candidate &&
         !target.compare_exchange_weak(current, candidate,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

void Gauge::add(double delta) { atomic_add(value_, delta); }

std::size_t Histogram::bucket_index(double value) {
  if (!(value > 0.0)) return 0;
  const double position =
      (std::log2(value) - kMinExponent) * static_cast<double>(kSubBuckets);
  if (position <= 0.0) return 0;
  const auto index = static_cast<std::size_t>(position);
  return std::min(index, kBucketCount - 1);
}

double Histogram::bucket_lower_bound(std::size_t index) {
  return std::exp2(static_cast<double>(index) / kSubBuckets + kMinExponent);
}

void Histogram::record(double value) {
  buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, value);
  atomic_max(max_, value);
}

void Histogram::merge(const Tally& tally) {
  if (tally.count == 0) return;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    if (tally.buckets[i] != 0) {
      buckets_[i].fetch_add(tally.buckets[i], std::memory_order_relaxed);
    }
  }
  count_.fetch_add(tally.count, std::memory_order_relaxed);
  atomic_add(sum_, tally.sum);
  atomic_max(max_, tally.max);
}

double Histogram::quantile(double q) const {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  // With one sample every quantile IS that sample; the bucket interpolation
  // below would report the bucket's geometric midpoint, up to ~9% under the
  // recorded value.
  if (total == 1) return max();
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    const std::uint64_t in_bucket = buckets_[i].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) >= target) {
      const double lower = bucket_lower_bound(i);
      const double upper = bucket_lower_bound(i + 1);
      const double fraction =
          std::clamp((target - static_cast<double>(seen)) /
                         static_cast<double>(in_bucket),
                     0.0, 1.0);
      // Geometric interpolation inside the bucket, clamped to the observed
      // maximum so the top quantiles never exceed a real sample.
      return std::min(lower * std::pow(upper / lower, fraction), max());
    }
    seen += in_bucket;
  }
  return max();
}

void Histogram::reset() {
  for (std::atomic<std::uint64_t>& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

struct Registry::Impl {
  mutable std::mutex mutex;
  // std::map keeps exports sorted and deterministic; std::deque keeps the
  // metric objects' addresses stable as the registry grows.
  // lint:guarded_by(mutex)
  std::map<std::string, Counter*, std::less<>> counters;
  // lint:guarded_by(mutex)
  std::map<std::string, Gauge*, std::less<>> gauges;
  // lint:guarded_by(mutex)
  std::map<std::string, Histogram*, std::less<>> histograms;
  std::deque<Counter> counter_storage;
  std::deque<Gauge> gauge_storage;
  std::deque<Histogram> histogram_storage;
};

Registry::Registry() : impl_(std::make_unique<Impl>()) {}
Registry::~Registry() = default;

Registry& Registry::global() {
  // Leaked on purpose: instrumented code may hold metric references in
  // static objects whose destructors run after main().
  static Registry* registry = new Registry;
  return *registry;
}

Counter& Registry::counter(std::string_view name) {
  const std::scoped_lock lock{impl_->mutex};
  const auto it = impl_->counters.find(name);
  if (it != impl_->counters.end()) return *it->second;
  Counter& created = impl_->counter_storage.emplace_back();
  impl_->counters.emplace(std::string{name}, &created);
  return created;
}

Gauge& Registry::gauge(std::string_view name) {
  const std::scoped_lock lock{impl_->mutex};
  const auto it = impl_->gauges.find(name);
  if (it != impl_->gauges.end()) return *it->second;
  Gauge& created = impl_->gauge_storage.emplace_back();
  impl_->gauges.emplace(std::string{name}, &created);
  return created;
}

Histogram& Registry::histogram(std::string_view name) {
  const std::scoped_lock lock{impl_->mutex};
  const auto it = impl_->histograms.find(name);
  if (it != impl_->histograms.end()) return *it->second;
  Histogram& created = impl_->histogram_storage.emplace_back();
  impl_->histograms.emplace(std::string{name}, &created);
  return created;
}

void Registry::reset_values() {
  const std::scoped_lock lock{impl_->mutex};
  for (Counter& counter : impl_->counter_storage) counter.reset();
  for (Gauge& gauge : impl_->gauge_storage) gauge.reset();
  for (Histogram& histogram : impl_->histogram_storage) histogram.reset();
}

void Registry::write_json_fields(util::JsonWriter& json) const {
  const std::scoped_lock lock{impl_->mutex};
  json.key("counters");
  json.begin_object();
  for (const auto& [name, counter] : impl_->counters) {
    json.field(name, counter->value());
  }
  json.end_object();
  json.key("gauges");
  json.begin_object();
  for (const auto& [name, gauge] : impl_->gauges) {
    json.field(name, gauge->value());
  }
  json.end_object();
  json.key("histograms");
  json.begin_object();
  for (const auto& [name, histogram] : impl_->histograms) {
    json.key(name);
    json.begin_object();
    json.field("count", histogram->count());
    json.field("sum", histogram->sum());
    json.field("mean", histogram->mean());
    json.field("p50", histogram->quantile(0.50));
    json.field("p90", histogram->quantile(0.90));
    json.field("p99", histogram->quantile(0.99));
    json.field("max", histogram->max());
    json.end_object();
  }
  json.end_object();
}

void Registry::write_json(std::ostream& out) const {
  util::JsonWriter json{out};
  json.begin_object();
  write_json_fields(json);
  json.end_object();
  out << '\n';
}

Registry::Snapshot Registry::snapshot() const {
  const std::scoped_lock lock{impl_->mutex};
  Snapshot snap;
  for (const auto& [name, counter] : impl_->counters) {
    snap.counters.push_back({name, static_cast<double>(counter->value())});
  }
  for (const auto& [name, gauge] : impl_->gauges) {
    snap.gauges.push_back({name, gauge->value()});
  }
  for (const auto& [name, histogram] : impl_->histograms) {
    snap.histograms.push_back({name, histogram->count(), histogram->mean(),
                               histogram->quantile(0.50),
                               histogram->quantile(0.90),
                               histogram->quantile(0.99), histogram->max()});
  }
  return snap;
}

}  // namespace cloudrtt::obs
