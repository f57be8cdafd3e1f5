// Deterministic, seedable pseudo-random number generation.
//
// The paper (Sec. 3.1) stresses that "randomizers ... can be very large"
// contributors to experimental variance, and reproducibility requires that
// every stochastic component be explicitly seeded.  All randomized code in
// this library takes a Rng (or a seed) explicitly; there is no hidden
// global random state anywhere.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace vlsipart {

/// splitmix64: used to expand a single 64-bit seed into the xoshiro state.
/// Reference: Sebastiano Vigna, public-domain implementation.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** PRNG.  Fast, high-quality, tiny state; satisfies the
/// UniformRandomBitGenerator requirements so it can also be handed to
/// <random> distributions when convenient.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x2545F4914F6CDD1DULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() { return next(); }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound).  bound must be > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  std::uint64_t below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// True with probability p.
  bool bernoulli(double p) { return uniform() < p; }

  /// Standard normal deviate (Marsaglia polar method).
  double normal();

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// Exponential with given rate lambda (> 0).
  double exponential(double lambda);

  /// Pareto-distributed value with scale xm > 0 and shape alpha > 0.
  /// Used for cell-area distributions with "wide variation in vertex
  /// weights" as the paper describes for deep-submicron libraries.
  double pareto(double xm, double alpha);

  /// Geometric-like net-size sample: lo + Geometric(p), truncated to hi.
  std::uint64_t truncated_geometric(std::uint64_t lo, std::uint64_t hi,
                                    double p);

  /// Fisher-Yates shuffle of a vector.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(below(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Derive an independent child stream (for per-run seeding in
  /// multistart experiments, so run i is reproducible in isolation).
  Rng fork(std::uint64_t stream_id) const;

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4] = {};
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace vlsipart
