#include "util/rng.hpp"

#include "util/check.hpp"

#include <cmath>
#include <numbers>

namespace cloudrtt::util {

std::uint64_t Rng::below(std::uint64_t bound) noexcept {
  CLOUDRTT_DCHECK(bound > 0, "below() needs a positive bound");
  // Lemire's unbiased bounded generation (rejection on the low product).
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0ULL - bound) % bound;
    while (low < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::between(std::int64_t lo, std::int64_t hi) noexcept {
  CLOUDRTT_DCHECK(lo <= hi, "between(", lo, ", ", hi, ") is an empty range");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(below(span));
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller; u1 is kept away from zero to avoid log(0).
  double u1 = uniform();
  if (u1 < 1e-300) u1 = 1e-300;
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::lognormal(double mu, double sigma) noexcept {
  return std::exp(mu + sigma * normal());
}

double Rng::lognormal_median(double median, double sigma) noexcept {
  CLOUDRTT_CHECK(median > 0.0, "lognormal_median needs median > 0, got ",
                 median);
  return lognormal(std::log(median), sigma);
}

double Rng::exponential(double mean) noexcept {
  CLOUDRTT_CHECK(mean > 0.0, "exponential needs mean > 0, got ", mean);
  double u = uniform();
  if (u < 1e-300) u = 1e-300;
  return -mean * std::log(u);
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) noexcept {
  double total = 0.0;
  for (const double w : weights) total += (w > 0.0 ? w : 0.0);
  CLOUDRTT_CHECK(total > 0.0, "weighted_index needs a positive weight among ",
                 weights.size(), " entries");
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (target < w) return i;
    target -= w;
  }
  return weights.size() - 1;  // numeric edge: land on the last bucket
}

}  // namespace cloudrtt::util
