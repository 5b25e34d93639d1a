// Exact table-driven geometric draw.
//
// Rng::geometric(p) maps one uniform u to floor(log1p(-u) / log1p(-p)),
// two log1p calls per draw. The synthetic stream makes up to two such draws
// per instruction with a fixed p, so GeometricTable precomputes the answer
// per 1/4096-wide bucket of u and keeps the reference expression as the
// fallback:
//
//   * the result crosses from k-1 to k at the threshold T_k = -expm1(k*L),
//     L = log1p(-p);
//   * a bucket holds k when no threshold lies within a guard band of 1e-12
//     of it, and "unknown" otherwise;
//   * a draw in an unknown bucket, or past the last tabulated bucket,
//     evaluates floor(log1p(-u) / L), the reference expression itself.
//
// So the table draw equals the reference for every u: the rounding of
// log1p, expm1 and the division moves a step by ~1e-15 at most (docs/
// WORKLOADS.md gives the bound), three orders of magnitude inside the guard.
#pragma once

#include <array>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/rng.hpp"

namespace unsync {

class GeometricTable {
 public:
  static constexpr std::size_t kBuckets = 4096;

  /// Success probability p in (0, 1]; p = 1 always yields 0, as
  /// Rng::geometric does.
  explicit GeometricTable(double p);

  /// The draw for uniform u in [0, 1): equal to the reference
  /// floor(log1p(-u) / log1p(-p)) for every such u.
  std::uint64_t operator()(double u) const {
    assert(u >= 0.0 && u < 1.0);
    // Scaling by 2^12 is exact, so every u < 1 lands in a bucket < 4096.
    const auto b = static_cast<std::size_t>(u * static_cast<double>(kBuckets));
    if (b < covered_ && bucket_[b] != kUnknown) return bucket_[b];
    return reference(u);
  }

  /// One draw from `rng`: the same single uniform() Rng::geometric takes.
  std::uint64_t draw(Rng& rng) const { return (*this)(rng.uniform()); }

  /// The reference expression, evaluated with the hoisted log1p(-p).
  std::uint64_t reference(double u) const {
    if (certain_) return 0;
    return static_cast<std::uint64_t>(std::floor(std::log1p(-u) / log_q_));
  }

  /// Buckets [0, covered()) are tabulated; draws past them fall back.
  std::size_t covered() const { return covered_; }
  /// Thresholds T_1..T_thresholds() were placed.
  std::uint64_t thresholds() const { return thresholds_; }
  /// T_k = -expm1(k * log1p(-p)), the boundary the table places for k.
  double threshold(std::uint64_t k) const {
    return -std::expm1(static_cast<double>(k) * log_q_);
  }

  /// Half-width of the band around each threshold within which a bucket
  /// is left to the reference expression.
  static constexpr double kGuard = 1e-12;

 private:
  static constexpr std::uint16_t kUnknown = 0xFFFF;

  double log_q_;  ///< log1p(-p)
  bool certain_;  ///< p >= 1
  std::size_t covered_ = 0;
  std::uint64_t thresholds_ = 0;
  std::array<std::uint16_t, kBuckets> bucket_{};
};

}  // namespace unsync
