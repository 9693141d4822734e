// Deterministic, fast PRNGs for simulation and sampling.
//
// Random-walk engines draw billions of variates; std::mt19937_64 is both
// slower and larger than needed. We use SplitMix64 for seeding and
// xoshiro256** for the main streams, with Lemire-style unbiased bounded
// sampling. All simulation randomness flows through these so a fixed seed
// reproduces a run exactly.
#pragma once

#include <array>
#include <cstdint>

namespace fw {

/// SplitMix64: used to expand a single seed into stream state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: the workhorse generator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0x9E3779B97F4A7C15ull) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() { return next(); }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    step();
    return result;
  }

  /// Unbiased integer in [0, bound) via Lemire's multiply-shift rejection.
  std::uint64_t bounded(std::uint64_t bound) {
    if (bound <= 1) return 0;
    __extension__ using u128 = unsigned __int128;
    u128 m = static_cast<u128>(next()) * static_cast<u128>(bound);
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        m = static_cast<u128>(next()) * static_cast<u128>(bound);
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with probability p.
  bool chance(double p) { return uniform() < p; }

  /// Exact jump-ahead: leaves the stream where `k` calls to next() would,
  /// in O(log k) polynomial steps instead of k. A generator that draws a
  /// fixed number of values per item can split its items among threads,
  /// each starting from a copy advanced to its first item's draws.
  void advance(std::uint64_t k);

  friend bool operator==(const Xoshiro256&, const Xoshiro256&) = default;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  /// The state transition, which is linear over GF(2); next() is this plus
  /// the scrambled output of the old state.
  void step() {
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace fw
