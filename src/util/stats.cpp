#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace cloudrtt::util {

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (q <= 0.0) return sorted.front();
  if (q >= 1.0) return sorted.back();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lower = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lower);
  if (lower + 1 >= sorted.size()) return sorted.back();
  return sorted[lower] * (1.0 - frac) + sorted[lower + 1] * frac;
}

double quantile(std::vector<double> values, double q) {
  // Selection instead of a sort: the two order statistics quantile_sorted()
  // interpolates between are the nth element and the least one above it,
  // so the result has the same bits in linear time.
  if (values.empty()) return 0.0;
  if (q <= 0.0) return *std::min_element(values.begin(), values.end());
  if (q >= 1.0) return *std::max_element(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lower);
  const auto nth = values.begin() + static_cast<std::ptrdiff_t>(lower);
  std::nth_element(values.begin(), nth, values.end());
  if (lower + 1 >= values.size()) return *nth;
  const double next = *std::min_element(nth + 1, values.end());
  return *nth * (1.0 - frac) + next * frac;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double stddev(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  const double mu = mean(values);
  double accum = 0.0;
  for (const double v : values) accum += (v - mu) * (v - mu);
  return std::sqrt(accum / static_cast<double>(values.size()));
}

std::optional<double> coefficient_of_variation(const std::vector<double>& values) {
  if (values.size() < 2) return std::nullopt;
  const double mu = mean(values);
  if (mu == 0.0) return std::nullopt;
  return stddev(values) / mu;
}

Summary summarize(std::vector<double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.min = values.front();
  s.max = values.back();
  s.p25 = quantile_sorted(values, 0.25);
  s.median = quantile_sorted(values, 0.50);
  s.p75 = quantile_sorted(values, 0.75);
  s.p90 = quantile_sorted(values, 0.90);
  s.mean = mean(values);
  s.stddev = stddev(values);
  return s;
}

EmpiricalCdf::EmpiricalCdf(std::vector<double> samples) : sorted_(std::move(samples)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double EmpiricalCdf::evaluate(double x) const {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) / static_cast<double>(sorted_.size());
}

double EmpiricalCdf::quantile(double q) const { return quantile_sorted(sorted_, q); }

std::size_t required_sample_size(double z, double p, double epsilon) {
  if (epsilon <= 0.0 || p < 0.0 || p > 1.0 || z <= 0.0) {
    throw std::invalid_argument{"required_sample_size: invalid parameters"};
  }
  return static_cast<std::size_t>(std::ceil(z * z * p * (1.0 - p) / (epsilon * epsilon)));
}

double z_score_for_confidence(double confidence) {
  if (confidence == 0.90) return 1.645;
  if (confidence == 0.95) return 1.96;
  if (confidence == 0.99) return 2.576;
  throw std::invalid_argument{"z_score_for_confidence: supported levels are 0.90/0.95/0.99"};
}

Interval bootstrap_median_ci(const std::vector<double>& samples, double confidence,
                             Rng& rng, std::size_t resamples) {
  if (samples.empty() || confidence <= 0.0 || confidence >= 1.0 || resamples == 0) {
    throw std::invalid_argument{"bootstrap_median_ci: invalid input"};
  }
  std::vector<double> medians;
  medians.reserve(resamples);
  std::vector<double> draw(samples.size());
  for (std::size_t r = 0; r < resamples; ++r) {
    for (double& v : draw) {
      v = samples[rng.below(samples.size())];
    }
    std::sort(draw.begin(), draw.end());
    medians.push_back(quantile_sorted(draw, 0.5));
  }
  std::sort(medians.begin(), medians.end());
  const double alpha = (1.0 - confidence) / 2.0;
  return Interval{quantile_sorted(medians, alpha),
                  quantile_sorted(medians, 1.0 - alpha)};
}

}  // namespace cloudrtt::util
