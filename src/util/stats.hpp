#pragma once
// Descriptive statistics used throughout the study.
//
// The paper's primary metric is the *median* RTT (§3.3, robust to probe
// outliers); last-mile consistency uses the coefficient of variation
// Cv = sigma/mu (§5); and the methodology derives a minimum per-country
// sample size n = z^2 p(1-p) / eps^2 (§3.3). All of those live here.

#include <cstddef>
#include <optional>
#include <vector>

namespace cloudrtt::util {

/// Quantile of a sample using linear interpolation between order statistics
/// (type-7 / numpy default). `q` in [0,1]. Empty input -> 0.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Quantile assuming `sorted` is already ascending (no copy).
[[nodiscard]] double quantile_sorted(const std::vector<double>& sorted, double q);

[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double mean(const std::vector<double>& values);
/// Population standard deviation (the paper's Cv uses sigma/mu over all
/// samples of a probe, not an unbiased estimator).
[[nodiscard]] double stddev(const std::vector<double>& values);

/// Coefficient of variation sigma/mu; nullopt when fewer than 2 samples or
/// mu == 0 (matches the paper's >=10-samples-per-pair guard, enforced by
/// callers).
[[nodiscard]] std::optional<double> coefficient_of_variation(
    const std::vector<double>& values);

/// Five-number summary + mean, as used by the box plots in Figs. 6/12/13/15.
struct Summary {
  std::size_t count = 0;
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p90 = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;

  [[nodiscard]] double iqr() const { return p75 - p25; }
};

[[nodiscard]] Summary summarize(std::vector<double> values);

/// Empirical CDF over a fixed sample; evaluate() returns P[X <= x].
class EmpiricalCdf {
 public:
  EmpiricalCdf() = default;
  explicit EmpiricalCdf(std::vector<double> samples);

  [[nodiscard]] double evaluate(double x) const;
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] std::size_t size() const { return sorted_.size(); }
  [[nodiscard]] bool empty() const { return sorted_.empty(); }

 private:
  std::vector<double> sorted_;
};

/// Minimum sample size for estimating a proportion `p` with margin of error
/// `epsilon` at the z-score `z` (§3.3: z=1.96, p=0.5, eps=0.02 -> 2401).
[[nodiscard]] std::size_t required_sample_size(double z, double p, double epsilon);

/// z-score for the common two-sided confidence levels used in measurement
/// papers (0.90, 0.95, 0.99); interpolation is not attempted for others.
[[nodiscard]] double z_score_for_confidence(double confidence);

/// Bootstrap confidence interval for the median: resample with replacement
/// `resamples` times and take the (1-confidence)/2 quantiles of the
/// resampled medians. Deterministic given the RNG.
struct Interval {
  double low = 0.0;
  double high = 0.0;
  [[nodiscard]] bool contains(double x) const { return x >= low && x <= high; }
  [[nodiscard]] double width() const { return high - low; }
};

class Rng;  // from util/rng.hpp

[[nodiscard]] Interval bootstrap_median_ci(const std::vector<double>& samples,
                                           double confidence, Rng& rng,
                                           std::size_t resamples = 500);

}  // namespace cloudrtt::util
