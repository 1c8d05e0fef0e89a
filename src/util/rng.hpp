#pragma once
// Deterministic pseudo-random number generation for the simulator.
//
// Every stochastic component of the study (probe placement, last-mile draws,
// transit jitter, hop responsiveness, ...) derives its stream from a single
// study seed via Rng::fork(), so a whole campaign is reproducible bit-for-bit
// from one integer. We implement xoshiro256++ (public-domain algorithm by
// Blackman & Vigna) seeded through splitmix64 rather than relying on
// std::mt19937 so that results are stable across standard libraries.

#include <array>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

namespace cloudrtt::util {

/// splitmix64 step; used for seeding and for cheap stateless hashing.
[[nodiscard]] constexpr std::uint64_t splitmix64(
    std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// FNV-1a 64-bit offset basis: fnv1a_accum(kFnv1aBasis, text) == fnv1a(text).
inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;

/// Streaming FNV-1a: continue `hash` over more bytes. One shared definition,
/// so a digest folded chunk by chunk equals fnv1a() over the same bytes.
/// This byte loop is the reference: util::fnv1a_fold (fnv1a_fold.hpp), which
/// folds the dataset hash 512 bytes per step, must equal it bit for bit, and
/// the tests compare the two.
[[nodiscard]] constexpr std::uint64_t fnv1a_accum(
    std::uint64_t hash, std::string_view text) noexcept {
  for (const char ch : text) {
    hash ^= static_cast<std::uint64_t>(static_cast<unsigned char>(ch));
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// FNV-1a 64-bit hash of a string; used to derive per-entity substreams
/// (e.g. fork("probe/DE/1234")) without global coordination.
[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view text) noexcept {
  return fnv1a_accum(kFnv1aBasis, text);
}

/// FNV-1a folded over 64-bit host-order words (the zero-padded tail and the
/// byte count fold in last). Byte-wise FNV-1a is one dependent multiply per
/// byte — a ~5 cycle/byte serial chain — which made it the single biggest
/// CPU item of the store's spill worker; folding words cuts the chain 8x
/// while keeping the same mixing algebra. NOT interchangeable with fnv1a():
/// both sides of an artefact must agree on which variant covers it. Every
/// step is a bijection of the running hash, so two different `hash` starting
/// values never fold the same bytes to the same result.
[[nodiscard]] inline std::uint64_t fnv1a_words(
    std::string_view bytes, std::uint64_t hash = kFnv1aBasis) noexcept {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  const char* cursor = bytes.data();
  std::size_t left = bytes.size();
  for (; left >= 8; left -= 8, cursor += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, cursor, 8);
    hash = (hash ^ word) * kPrime;
  }
  if (left > 0) {
    std::uint64_t word = 0;
    std::memcpy(&word, cursor, left);
    hash = (hash ^ word) * kPrime;
  }
  return (hash ^ bytes.size()) * kPrime;
}

/// xoshiro256++ generator with convenience distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eed5eed5eedULL) noexcept {
    reseed(seed);
  }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  /// Derive an independent stream for a named sub-component.
  [[nodiscard]] Rng fork(std::string_view label) const noexcept {
    std::uint64_t mix = state_[0] ^ (state_[2] * 0x9e3779b97f4a7c15ULL);
    return Rng{mix ^ fnv1a(label)};
  }

  /// Derive an independent stream for an indexed sub-component.
  [[nodiscard]] Rng fork(std::uint64_t index) const noexcept {
    std::uint64_t mix = state_[1] ^ (state_[3] + index * 0xd1342543de82ef95ULL);
    std::uint64_t sm = mix;
    return Rng{splitmix64(sm)};
  }

  [[nodiscard]] std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // UniformRandomBitGenerator interface (usable with <algorithm> shuffles).
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }
  result_type operator()() noexcept { return next(); }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  [[nodiscard]] std::uint64_t below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t between(std::int64_t lo, std::int64_t hi) noexcept;

  [[nodiscard]] bool chance(double probability) noexcept {
    return uniform() < probability;
  }

  /// Standard normal via Box–Muller (cached second value).
  [[nodiscard]] double normal() noexcept;
  [[nodiscard]] double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Lognormal with the given *location/scale* parameters (of the
  /// underlying normal), i.e. median = exp(mu).
  [[nodiscard]] double lognormal(double mu, double sigma) noexcept;

  /// Lognormal parameterised by its median and the sigma of the log;
  /// convenient for latency models calibrated on medians.
  [[nodiscard]] double lognormal_median(double median, double sigma) noexcept;

  [[nodiscard]] double exponential(double mean) noexcept;

  /// Index drawn according to non-negative weights (at least one > 0).
  [[nodiscard]] std::size_t weighted_index(
      const std::vector<double>& weights) noexcept;

  /// Pick a uniformly random element of a non-empty container.
  template <typename Container>
  [[nodiscard]] const auto& pick(const Container& items) noexcept {
    return items[static_cast<std::size_t>(below(items.size()))];
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace cloudrtt::util
