// Deterministic pseudo-random number generation for reproducible simulation.
//
// We use xoshiro256** (Blackman & Vigna) rather than std::mt19937 because it
// is faster, has a tiny state (32 bytes) that can be embedded per-component,
// and gives identical sequences across standard libraries — important for a
// simulator whose results must be reproducible bit-for-bit across platforms.
//
// The per-draw members (next, uniform, below, chance, pick_cumulative) are
// defined here so they inline into the stream generators that call them
// per instruction.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <limits>

namespace unsync {

class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the state from a single 64-bit value via SplitMix64, which
  /// guarantees a well-mixed state even for small consecutive seeds.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed);

  /// Raw 64-bit draw (xoshiro256** scrambler).
  std::uint64_t next() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  std::uint64_t operator()() { return next(); }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  /// Uniform double in [0, 1): the 53 high bits of one draw.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform integer in [0, bound) without modulo bias (Lemire's
  /// nearly-divisionless method).
  std::uint64_t below(std::uint64_t bound) {
    assert(bound > 0);
    unsigned __int128 m = static_cast<unsigned __int128>(next()) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        m = static_cast<unsigned __int128>(next()) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi);

  /// Bernoulli draw with probability p of returning true.
  bool chance(double p) { return uniform() < p; }

  /// Exponential variate with the given rate (mean 1/rate).
  double exponential(double rate);

  /// Geometric-like draw: number of failures before first success with
  /// success probability p (p in (0,1]).
  std::uint64_t geometric(double p);

  /// Draws an index from a discrete distribution given cumulative weights
  /// (cumulative[i] = sum of weights[0..i], last element = total weight).
  std::size_t pick_cumulative(const double* cumulative, std::size_t n) {
    assert(n > 0);
    const double draw = uniform() * cumulative[n - 1];
    // Linear scan: distributions in this codebase have < 16 buckets, where
    // a scan beats binary search on branch prediction.
    for (std::size_t i = 0; i + 1 < n; ++i) {
      if (draw < cumulative[i]) return i;
    }
    return n - 1;
  }

  /// Raw generator state, for checkpoint/restore: set_state(state()) on a
  /// second instance makes it produce the identical draw sequence.
  std::array<std::uint64_t, 4> state() const {
    return {s_[0], s_[1], s_[2], s_[3]};
  }
  void set_state(const std::array<std::uint64_t, 4>& s) {
    for (std::size_t i = 0; i < 4; ++i) s_[i] = s[i];
  }

 private:
  std::uint64_t s_[4];
};

/// Derives the RNG seed of campaign job `index` from the campaign master
/// seed via a SplitMix64-style finalizer over the pair. Every parallel
/// harness MUST seed jobs through this (never from thread identity or
/// scheduling order) so a campaign is a pure function of
/// (campaign_seed, job_index) regardless of worker count.
std::uint64_t derive_seed(std::uint64_t campaign_seed, std::uint64_t index);

}  // namespace unsync
