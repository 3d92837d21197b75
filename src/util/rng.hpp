#pragma once
// Deterministic, splittable random number generation.
//
// All stochastic components in the library (data generators, weight
// initialisation, plasticity tie-breaking, HPO samplers) draw from Rng so
// that every experiment is reproducible from a single seed. The generator
// is xoshiro256**, seeded through SplitMix64 per Blackman & Vigna's
// recommendation; `split()` derives statistically independent streams for
// parallel workers.

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

namespace streambrain::util {

/// SplitMix64: used for seeding and cheap hash-style mixing.
inline std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97f4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// xoshiro256** PRNG. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5EEDBA5EULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
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

  /// Derive an independent child stream (for per-thread / per-run use).
  [[nodiscard]] Rng split() noexcept {
    std::uint64_t s = (*this)() ^ 0xA5A5A5A5A5A5A5A5ULL;
    Rng child(0);
    for (auto& word : child.state_) word = splitmix64(s);
    return child;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). Unbiased via rejection.
  std::uint64_t uniform_index(std::uint64_t n) noexcept {
    if (n == 0) return 0;
    const std::uint64_t threshold = (0 - n) % n;  // 2^64 mod n
    for (;;) {
      const std::uint64_t r = (*this)();
      if (r >= threshold) return r % n;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    uniform_index(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Standard normal via Box-Muller (cached second value).
  double normal() noexcept;

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// True when the next normal() returns the cached second value of a
  /// Box-Muller pair without drawing.
  [[nodiscard]] bool has_cached_normal() const noexcept {
    return has_cached_normal_;
  }

  /// Runs body(lo, hi) over disjoint blocks of [0, n), serially or on a
  /// thread pool (util does not depend on parallel::).
  using BlockRunner = std::function<void(
      std::size_t n, const std::function<void(std::size_t, std::size_t)>& body)>;

  /// out[i] = the value the i-th of n successive normal(mean, stddev)
  /// calls would return, and the generator (cached second value included)
  /// ends where those calls leave it. The uniforms are drawn in order; the
  /// Box-Muller transforms of the pairs run through `run`, each pair on
  /// its own, so any split gives the same bits. Pair p holds out[f + 2p]
  /// and out[f + 2p + 1], with f = 1 when has_cached_normal() held
  /// before the call (else 0). A runner that covers only some pairs
  /// leaves the others' slots holding raw uniforms; every other value is
  /// still exact.
  void fill_normal(double mean, double stddev, double* out, std::size_t n,
                   const BlockRunner& run);

  /// Exponential with rate lambda (mean 1/lambda).
  double exponential(double lambda) noexcept;

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Gamma(shape k, scale theta) via Marsaglia-Tsang.
  double gamma(double shape, double scale) noexcept;

  /// Sample an index according to (unnormalised, non-negative) weights.
  std::size_t categorical(const std::vector<double>& weights) noexcept;

  /// Fisher-Yates shuffle of an index range stored in `indices`.
  template <typename T>
  void shuffle(std::vector<T>& values) noexcept {
    for (std::size_t i = values.size(); i > 1; --i) {
      const std::size_t j = uniform_index(i);
      std::swap(values[i - 1], values[j]);
    }
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  /// The two uniforms of one Box-Muller pair: u1 in (0, 1), u2 in [0, 1).
  void draw_pair(double& u1, double& u2) noexcept {
    do {
      u1 = uniform();
    } while (u1 <= 0.0);
    u2 = uniform();
  }

  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace streambrain::util
