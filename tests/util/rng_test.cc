#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/stats.h"

namespace punica {
namespace {

TEST(RngTest, DeterministicAcrossInstances) {
  Pcg32 a(123), b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.NextU32(), b.NextU32());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Pcg32 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU32() == b.NextU32()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, BoundedStaysInRange) {
  Pcg32 rng(5);
  for (std::uint32_t bound : {1u, 2u, 7u, 100u, 1000000u}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, BoundedIsRoughlyUniform) {
  Pcg32 rng(9);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) {
    ++counts[rng.NextBounded(kBuckets)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Pcg32 rng(17);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Pcg32 rng(21);
  RunningStat stat;
  for (int i = 0; i < 200000; ++i) stat.Add(rng.NextGaussian());
  EXPECT_NEAR(stat.mean(), 0.0, 0.01);
  EXPECT_NEAR(stat.stddev(), 1.0, 0.01);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Pcg32 rng(31);
  double rate = 2.5;
  RunningStat stat;
  for (int i = 0; i < 100000; ++i) {
    double x = rng.NextExponential(rate);
    EXPECT_GE(x, 0.0);
    stat.Add(x);
  }
  EXPECT_NEAR(stat.mean(), 1.0 / rate, 0.01);
}

TEST(RngTest, ShuffleIsPermutation) {
  Pcg32 rng(41);
  std::vector<int> xs(100);
  for (int i = 0; i < 100; ++i) xs[static_cast<std::size_t>(i)] = i;
  auto copy = xs;
  rng.Shuffle(std::span<int>(xs));
  EXPECT_NE(xs, copy);  // astronomically unlikely to be identity
  std::sort(xs.begin(), xs.end());
  EXPECT_EQ(xs, copy);
}

TEST(RngTest, RandomGaussianVectorScale) {
  Pcg32 rng(51);
  auto v = RandomGaussianVector(100000, 0.5f, rng);
  RunningStat stat;
  for (float x : v) stat.Add(x);
  EXPECT_NEAR(stat.stddev(), 0.5, 0.01);
}

TEST(RngTest, AdvanceEqualsThatManyDraws) {
  for (std::uint64_t k : {0ULL, 1ULL, 31ULL, 32ULL, 33ULL, 1ULL << 20U}) {
    Pcg32 stepped(61, 7);
    Pcg32 jumped(61, 7);
    for (std::uint64_t i = 0; i < k; ++i) stepped.NextU32();
    jumped.Advance(k);
    EXPECT_EQ(jumped.state(), stepped.state()) << "k " << k;
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(jumped.NextU32(), stepped.NextU32()) << "k " << k;
    }
  }
}

TEST(RngTest, AdvanceKeepsTheCachedGaussian) {
  Pcg32 a(71);
  Pcg32 b(71);
  a.NextGaussian();
  b.NextGaussian();
  ASSERT_TRUE(a.has_cached_gaussian());
  a.Advance(4);
  for (int i = 0; i < 4; ++i) b.NextU32();
  EXPECT_EQ(a.NextGaussian(), b.NextGaussian());  // the cached deviate
  EXPECT_EQ(a.NextGaussian(), b.NextGaussian());
}

}  // namespace
}  // namespace punica
