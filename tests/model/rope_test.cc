#include "model/rope.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "util/rng.h"

namespace punica {
namespace {

TEST(RopeTest, PositionZeroIsIdentity) {
  Pcg32 rng(1);
  auto x = RandomGaussianVector(4 * 8, 1.0f, rng);
  auto orig = x;
  ApplyRope(x, 4, 8, 0, 10000.0f);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_FLOAT_EQ(x[i], orig[i]);
  }
}

TEST(RopeTest, PreservesNorm) {
  Pcg32 rng(2);
  for (std::int64_t pos : {1, 17, 511, 100000}) {
    auto x = RandomGaussianVector(2 * 16, 1.0f, rng);
    double norm_before = 0.0;
    for (float v : x) norm_before += static_cast<double>(v) * v;
    ApplyRope(x, 2, 16, pos, 10000.0f);
    double norm_after = 0.0;
    for (float v : x) norm_after += static_cast<double>(v) * v;
    EXPECT_NEAR(norm_after, norm_before, norm_before * 1e-5);
  }
}

TEST(RopeTest, FirstPairRotatesByPosRadians) {
  // Frequency of pair 0 is theta^0 = 1, so the rotation angle equals pos.
  std::vector<float> x = {1.0f, 0.0f};
  ApplyRope(x, 1, 2, 1, 10000.0f);
  EXPECT_NEAR(x[0], std::cos(1.0f), 1e-6f);
  EXPECT_NEAR(x[1], std::sin(1.0f), 1e-6f);
}

TEST(RopeTest, HigherPairsRotateSlower) {
  std::vector<float> x = {1.0f, 0.0f, 1.0f, 0.0f};  // 1 head, dim 4: 2 pairs
  ApplyRope(x, 1, 4, 100, 10000.0f);
  // Pair 0 angle = 100; pair 1 angle = 100·theta^(-1/2) = 1.
  EXPECT_NEAR(x[2], std::cos(1.0f), 1e-4f);
  EXPECT_NEAR(x[3], std::sin(1.0f), 1e-4f);
}

TEST(RopeTest, RelativePositionProperty) {
  // RoPE's defining property: <rope(q,m), rope(k,n)> depends only on m−n.
  Pcg32 rng(3);
  const int d = 32;
  auto q = RandomGaussianVector(d, 1.0f, rng);
  auto k = RandomGaussianVector(d, 1.0f, rng);
  auto dot = [&](const std::vector<float>& a, const std::vector<float>& b) {
    double acc = 0.0;
    for (int i = 0; i < d; ++i) {
      acc += static_cast<double>(a[static_cast<std::size_t>(i)]) *
             b[static_cast<std::size_t>(i)];
    }
    return acc;
  };
  auto at = [&](const std::vector<float>& v, std::int64_t pos) {
    auto copy = v;
    ApplyRope(copy, 1, d, pos, 10000.0f);
    return copy;
  };
  double d1 = dot(at(q, 7), at(k, 3));      // offset 4
  double d2 = dot(at(q, 1007), at(k, 1003));  // offset 4
  EXPECT_NEAR(d1, d2, 1e-3);
  double d3 = dot(at(q, 7), at(k, 6));  // different offset → different dot
  EXPECT_GT(std::abs(d1 - d3), 1e-4);
}

TEST(RopeTest, HeadsAreIndependent) {
  Pcg32 rng(4);
  auto x = RandomGaussianVector(2 * 8, 1.0f, rng);
  auto head0 = std::vector<float>(x.begin(), x.begin() + 8);
  ApplyRope(x, 2, 8, 42, 10000.0f);
  ApplyRope(head0, 1, 8, 42, 10000.0f);
  for (int i = 0; i < 8; ++i) {
    EXPECT_FLOAT_EQ(x[static_cast<std::size_t>(i)],
                    head0[static_cast<std::size_t>(i)]);
  }
}

TEST(RopeTest, TableRowsBitIdenticalToApplyRope) {
  // The per-step table evaluates each (row, pair) angle once; every head it
  // rotates must come out with exactly ApplyRope's bits, for positions up
  // to 4096 (rows in arbitrary order, as a mixed batch lays them out).
  const int heads = 8, d = 64;
  const float theta = 10000.0f;
  std::vector<std::int64_t> positions;
  for (std::int64_t pos = 4096; pos >= 0; --pos) positions.push_back(pos);
  ComputeContext ctx({.num_threads = 2});
  RopeTable table;
  table.Build(positions, d, theta, ctx);
  ASSERT_EQ(table.rows(), positions.size());
  Pcg32 rng(5);
  const auto x = RandomGaussianVector(heads * d, 1.0f, rng);
  for (std::size_t t = 0; t < positions.size(); ++t) {
    auto want = x;
    ApplyRope(want, heads, d, positions[t], theta);
    auto got = x;
    table.Apply(t, got, heads);
    ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
              0)
        << "position " << positions[t];
  }
}

TEST(RopeTest, TableRebuildReusesBuffersForShorterBatches) {
  ComputeContext ctx({.num_threads = 1});
  RopeTable table;
  const std::vector<std::int64_t> long_batch = {9, 8, 7, 6};
  const std::vector<std::int64_t> short_batch = {100};
  table.Build(long_batch, 8, 10000.0f, ctx);
  table.Build(short_batch, 8, 10000.0f, ctx);
  ASSERT_EQ(table.rows(), 1u);
  std::vector<float> want = {1, 2, 3, 4, 5, 6, 7, 8};
  auto got = want;
  ApplyRope(want, 1, 8, 100, 10000.0f);
  table.Apply(0, got, 1);
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
            0);
}

TEST(RopeDeathTest, OddHeadDimAborts) {
  std::vector<float> x(3);
  EXPECT_DEATH(ApplyRope(x, 1, 3, 0, 10000.0f), "PUNICA_CHECK");
}

}  // namespace
}  // namespace punica
