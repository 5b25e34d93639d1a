#include "common/rng.hpp"

#include "common/geometric.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace unsync {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next() == b.next();
  EXPECT_LT(equal, 2);
}

TEST(Rng, ReseedRestartsSequence) {
  Rng a(7);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 16; ++i) first.push_back(a.next());
  a.reseed(7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next(), first[i]);
}

TEST(Rng, ZeroSeedIsValid) {
  Rng a(0);
  std::set<std::uint64_t> vals;
  for (int i = 0; i < 64; ++i) vals.insert(a.next());
  EXPECT_GT(vals.size(), 60u);  // not stuck
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng r(4);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowStaysInBound) {
  Rng r(5);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.below(bound), bound);
  }
}

TEST(Rng, BelowOneAlwaysZero) {
  Rng r(6);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng r(8);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[r.below(10)];
  for (int c : counts) EXPECT_NEAR(c, n / 10, n / 100);
}

TEST(Rng, RangeInclusive) {
  Rng r(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes) {
  Rng r(10);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ChanceMatchesProbability) {
  Rng r(11);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.chance(0.3);
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng r(12);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.exponential(0.5);
  EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(Rng, ExponentialAlwaysNonNegative) {
  Rng r(13);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(r.exponential(3.0), 0.0);
}

TEST(Rng, GeometricMean) {
  Rng r(14);
  // Mean failures before success = (1-p)/p = 4 for p = 0.2.
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(r.geometric(0.2));
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, GeometricWithCertainSuccess) {
  Rng r(15);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.geometric(1.0), 0u);
}

TEST(Rng, PickCumulativeRespectsWeights) {
  Rng r(16);
  const double cum[3] = {0.1, 0.2, 1.0};  // weights 0.1, 0.1, 0.8
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[r.pick_cumulative(cum, 3)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.8, 0.01);
}

TEST(Rng, PickCumulativeSingleBucket) {
  Rng r(17);
  const double cum[1] = {1.0};
  for (int i = 0; i < 50; ++i) EXPECT_EQ(r.pick_cumulative(cum, 1), 0u);
}

TEST(GeometricTable, MatchesRngGeometricDrawForDraw) {
  for (const double p : {0.5, 0.2, 1.0 / 3, 1.0 / 24, 1e-3}) {
    const GeometricTable table(p);
    Rng a(18), b(18);
    for (int i = 0; i < 100000; ++i) ASSERT_EQ(table.draw(a), b.geometric(p));
  }
}

TEST(GeometricTable, CertainSuccessAlwaysZero) {
  const GeometricTable table(1.0);
  EXPECT_EQ(table.covered(), GeometricTable::kBuckets);
  for (const double u : {0.0, 0.25, 0.5, std::nextafter(1.0, 0.0)}) {
    EXPECT_EQ(table(u), 0u);
  }
}

TEST(GeometricTable, TinyPFallsBackEverywhere) {
  // Thresholds of p < 1/4096 are closer than one bucket from the start:
  // nothing is tabulated, and every draw is the reference expression.
  const double p = 1e-4;
  const GeometricTable table(p);
  EXPECT_EQ(table.covered(), 0u);
  for (const double u : {0.0, 0.5, 0.999, std::nextafter(1.0, 0.0)}) {
    EXPECT_EQ(table(u), table.reference(u));
    EXPECT_EQ(table(u), static_cast<std::uint64_t>(std::floor(
                            std::log1p(-u) / std::log1p(-p))));
  }
}

TEST(GeometricTable, ThresholdsAreWhereTheDrawSteps) {
  const GeometricTable table(0.25);
  ASSERT_GT(table.thresholds(), 3u);
  for (std::uint64_t k = 1; k <= table.thresholds(); ++k) {
    const double t = table.threshold(k);
    // Well clear of the guard band on either side, the draw reads k-1 / k.
    EXPECT_EQ(table(t - 1e-9), k - 1);
    EXPECT_EQ(table(t + 1e-9), k);
  }
}

}  // namespace
}  // namespace unsync
