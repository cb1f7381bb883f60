// Deterministic random number generation.
//
// A small, fast xoshiro256++ engine with convenience samplers. All randomness
// in the library flows through Rng so experiments are reproducible from a
// single seed. Rng::split() derives an independent child stream, which lets
// data generators, weight initializers and dropout masks use decorrelated
// streams from one experiment seed.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

namespace apds {

/// xoshiro256++ pseudo-random generator with normal/uniform/bernoulli
/// samplers. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next(); }

  /// Next raw 64-bit value. next, uniform and bernoulli are inline: a
  /// dropout mask draws one per element.
  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): the 53 high bits of next() times 2^-53.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal via Box–Muller (cached spare).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Bernoulli draw with success probability p: uniform() < p.
  bool bernoulli(double p) { return uniform() < p; }

  /// The integer form of bernoulli(p): for every draw, (next() >> 11) <
  /// bernoulli_threshold(p) exactly when uniform() < p. uniform() is m
  /// 2^-53 for the integer m = next() >> 11, p 2^53 is exact, and an
  /// integer lies below a real exactly when it lies below its ceiling.
  /// p <= 0 or NaN gives 0 (never), p >= 1 gives 2^53 (always).
  static std::uint64_t bernoulli_threshold(double p) {
    if (!(p > 0.0)) return 0;
    if (p >= 1.0) return std::uint64_t{1} << 53;
    return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
  }

  /// bernoulli(p) for t = bernoulli_threshold(p): the same draw, the same
  /// result and the same state after it, with no float conversion.
  bool bernoulli_below(std::uint64_t t) { return (next() >> 11) < t; }

  /// Log-normal draw: exp(N(mu_log, sigma_log)).
  double lognormal(double mu_log, double sigma_log);

  /// Derive an independent child generator (splitmix of internal state).
  Rng split();

  /// In-place Fisher–Yates shuffle of an index vector.
  void shuffle(std::vector<std::size_t>& idx);

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace apds
