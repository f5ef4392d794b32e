#include "tensor/gemm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "tensor/simd.h"
#include "util/rng.h"

namespace punica {
namespace {

std::vector<f16> ToHalf(const std::vector<float>& xs) {
  std::vector<f16> out;
  out.reserve(xs.size());
  for (float x : xs) out.emplace_back(x);
  return out;
}

TEST(GemmTest, KnownSmallProduct) {
  // [1 2; 3 4] @ [5 6; 7 8] = [19 22; 43 50]
  std::vector<float> x = {1, 2, 3, 4};
  std::vector<float> w = {5, 6, 7, 8};
  std::vector<float> y(4);
  GemmSet(x, w, y, 2, 2, 2);
  EXPECT_FLOAT_EQ(y[0], 19.0f);
  EXPECT_FLOAT_EQ(y[1], 22.0f);
  EXPECT_FLOAT_EQ(y[2], 43.0f);
  EXPECT_FLOAT_EQ(y[3], 50.0f);
}

TEST(GemmTest, IdentityWeight) {
  std::vector<float> x = {1, 2, 3, 4, 5, 6};
  std::vector<float> eye = {1, 0, 0, 0, 1, 0, 0, 0, 1};
  std::vector<float> y(6);
  GemmSet(x, eye, y, 2, 3, 3);
  for (int i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(GemmTest, GemmSetOverwritesStaleY) {
  // The Set/Acc naming trap: GemmSet must not accumulate into garbage.
  std::vector<float> x = {1, 2, 3, 4};
  std::vector<float> w = {5, 6, 7, 8};
  std::vector<float> y = {1e9f, -1e9f, 1e9f, -1e9f};
  GemmSet(x, w, y, 2, 2, 2);
  EXPECT_FLOAT_EQ(y[0], 19.0f);
  EXPECT_FLOAT_EQ(y[3], 50.0f);
}

TEST(GemmTest, GemmAccF16WAccumulates) {
  std::vector<float> x = {1, 1};
  std::vector<f16> w = ToHalf({2, 3});  // [2,1] weight
  std::vector<float> y = {10.0f};
  GemmAccF16W(x, w, y, 1, 2, 1);
  EXPECT_FLOAT_EQ(y[0], 15.0f);
}

// --- Edge-case shapes for the blocked kernels ---

TEST(GemmEdgeTest, ZeroRows) {
  std::vector<float> x, w(6, 1.0f), y;
  GemmSet(x, w, y, 0, 2, 3);  // no output, must not touch anything
  std::vector<f16> wh(6, f16(1.0f));
  GemmAccF16W(x, wh, y, 0, 2, 3);
}

TEST(GemmEdgeTest, ZeroReductionDim) {
  // k == 0: GemmSet must still zero y; GemmAcc must leave y untouched.
  std::vector<float> x, w;
  std::vector<float> y = {3.0f, 4.0f, 5.0f, 6.0f, 7.0f, 8.0f};
  GemmSet(x, w, y, 2, 0, 3);
  for (float v : y) EXPECT_FLOAT_EQ(v, 0.0f);

  std::vector<f16> wh;
  std::vector<float> y2 = {3.0f, 4.0f, 5.0f, 6.0f, 7.0f, 8.0f};
  GemmAccF16W(x, wh, y2, 2, 0, 3);
  EXPECT_FLOAT_EQ(y2[0], 3.0f);
  EXPECT_FLOAT_EQ(y2[5], 8.0f);
}

TEST(GemmEdgeTest, SingleColumn) {
  Pcg32 rng(13);
  int m = 7, k = 31;
  auto x = RandomGaussianVector(static_cast<std::size_t>(m) * k, 1.0f, rng);
  auto wf = RandomGaussianVector(static_cast<std::size_t>(k), 1.0f, rng);
  auto w = ToHalf(wf);
  std::vector<float> y(static_cast<std::size_t>(m), 0.0f);
  GemmAccF16W(x, w, y, m, k, 1);
  for (int i = 0; i < m; ++i) {
    float ref = 0.0f;
    for (int p = 0; p < k; ++p) {
      ref += x[static_cast<std::size_t>(i) * k + p] * w[p].ToFloat();
    }
    EXPECT_FLOAT_EQ(y[static_cast<std::size_t>(i)], ref);
  }
}

TEST(GemmEdgeTest, NonMultipleOfTileSizes) {
  // m, k, n all straddle the row-block/column-tile boundaries.
  Pcg32 rng(17);
  int m = 9, k = 130, n = 257;
  auto x = RandomGaussianVector(static_cast<std::size_t>(m) * k, 1.0f, rng);
  auto wf = RandomGaussianVector(static_cast<std::size_t>(k) * n, 0.1f, rng);
  auto w = ToHalf(wf);
  // Naive reference with the same ascending-k order.
  std::vector<float> ref(static_cast<std::size_t>(m) * n, 0.0f);
  for (int i = 0; i < m; ++i) {
    for (int p = 0; p < k; ++p) {
      float xv = x[static_cast<std::size_t>(i) * k + p];
      for (int j = 0; j < n; ++j) {
        ref[static_cast<std::size_t>(i) * n + j] +=
            xv * w[static_cast<std::size_t>(p) * n + j].ToFloat();
      }
    }
  }
  {
    // Scalar dispatch runs exactly the reference's per-element operations —
    // results must be bit-identical, not just close.
    ScopedSimdLevel scalar(SimdLevel::kScalar);
    std::vector<float> y(ref.size(), 0.0f);
    GemmAccF16W(x, w, y, m, k, n);
    for (std::size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], ref[i]);
  }
  for (int l = 1; l < kNumSimdLevels; ++l) {
    auto level = static_cast<SimdLevel>(l);
    if (!SimdLevelAvailable(level)) continue;
    // Vector paths differ only by FMA contraction (one rounding per
    // multiply); the dispatch-seam tolerance is asserted tightly in
    // simd_test.cc.
    ScopedSimdLevel guard(level);
    std::vector<float> y(ref.size(), 0.0f);
    GemmAccF16W(x, w, y, m, k, n);
    for (std::size_t i = 0; i < y.size(); ++i) {
      EXPECT_NEAR(y[i], ref[i], 1e-4f * (1.0f + std::abs(ref[i])))
          << SimdLevelName(level);
    }
  }
}

TEST(GemmEdgeTest, BitIdenticalAcrossThreadCounts) {
  Pcg32 rng(19);
  int m = 13, k = 300, n = 191;
  auto x = RandomGaussianVector(static_cast<std::size_t>(m) * k, 1.0f, rng);
  auto wf = RandomGaussianVector(static_cast<std::size_t>(k) * n, 0.1f, rng);
  auto w = ToHalf(wf);
  ComputeContext ctx1({.num_threads = 1});
  ComputeContext ctx4({.num_threads = 4});
  std::vector<float> y1(static_cast<std::size_t>(m) * n, 0.5f);
  std::vector<float> y4 = y1;
  GemmAccF16W(x, w, y1, m, k, n, ctx1);
  GemmAccF16W(x, w, y4, m, k, n, ctx4);
  for (std::size_t i = 0; i < y1.size(); ++i) EXPECT_EQ(y1[i], y4[i]);

  std::vector<float> s1(y1.size()), s4(y1.size());
  auto w32 = RandomGaussianVector(static_cast<std::size_t>(k) * n, 0.1f, rng);
  GemmSet(x, w32, s1, m, k, n, ctx1);
  GemmSet(x, w32, s4, m, k, n, ctx4);
  for (std::size_t i = 0; i < s1.size(); ++i) EXPECT_EQ(s1[i], s4[i]);
}

TEST(GemmTest, SoftmaxSumsToOne) {
  Pcg32 rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    auto row = RandomGaussianVector(33, 5.0f, rng);
    SoftmaxInPlace(row);
    double sum = 0.0;
    for (float v : row) {
      EXPECT_GE(v, 0.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(GemmTest, SoftmaxStableUnderLargeInputs) {
  std::vector<float> row = {1000.0f, 1000.0f, 1000.0f};
  SoftmaxInPlace(row);
  for (float v : row) EXPECT_NEAR(v, 1.0f / 3.0f, 1e-6f);
}

TEST(GemmTest, SoftmaxMonotone) {
  std::vector<float> row = {0.0f, 1.0f, 2.0f};
  SoftmaxInPlace(row);
  EXPECT_LT(row[0], row[1]);
  EXPECT_LT(row[1], row[2]);
}

TEST(GemmTest, RmsNormUnitWeightPreservesDirection) {
  Pcg32 rng(3);
  auto x = RandomGaussianVector(64, 2.0f, rng);
  std::vector<f16> weight(64, f16(1.0f));
  std::vector<float> out(64);
  RmsNormRow(x, weight, out, 1e-5f);
  // Output should have RMS ≈ 1.
  double ss = 0.0;
  for (float v : out) ss += static_cast<double>(v) * v;
  EXPECT_NEAR(std::sqrt(ss / 64.0), 1.0, 1e-3);
  // And preserve sign/ratios of the input.
  for (int i = 0; i < 64; ++i) {
    EXPECT_GT(out[i] * x[i], 0.0f);
  }
}

TEST(GemmTest, RmsNormRowsMatchRowByRow) {
  // 19 rows: two interleaved blocks of eight, then three single rows.
  Pcg32 rng(5);
  constexpr std::size_t kH = 40;
  auto x = RandomGaussianVector(19 * kH, 3.0f, rng);
  std::vector<f16> weight(kH);
  for (auto& w : weight) w = f16(rng.NextFloat(0.5f, 1.5f));
  std::vector<float> rows(x.size());
  RmsNormRows(x, weight, rows, 1e-5f);
  for (std::size_t r = 0; r < 19; ++r) {
    float one[kH];
    RmsNormRow(std::span<const float>(x).subspan(r * kH, kH), weight, one,
               1e-5f);
    EXPECT_EQ(std::memcmp(one, rows.data() + r * kH, sizeof one), 0)
        << "row " << r;
  }
}

TEST(GemmTest, RmsNormAppliesWeight) {
  std::vector<float> x = {3.0f, 4.0f};
  std::vector<f16> weight = {f16(2.0f), f16(0.5f)};
  std::vector<float> out(2);
  RmsNormRow(x, weight, out, 0.0f);
  float rms = std::sqrt((9.0f + 16.0f) / 2.0f);
  EXPECT_NEAR(out[0], 3.0f / rms * 2.0f, 1e-4f);
  EXPECT_NEAR(out[1], 4.0f / rms * 0.5f, 1e-4f);
}

TEST(GemmTest, SiluKnownValues) {
  std::vector<float> xs = {0.0f, 100.0f, -100.0f, 1.0f};
  const std::vector<float> ones(xs.size(), 1.0f);
  Simd().silu_mul(xs.data(), ones.data(), xs.size());
  EXPECT_FLOAT_EQ(xs[0], 0.0f);
  EXPECT_NEAR(xs[1], 100.0f, 1e-3f);   // sigmoid → 1
  EXPECT_NEAR(xs[2], 0.0f, 1e-3f);     // sigmoid → 0
  EXPECT_NEAR(xs[3], 1.0f / (1.0f + std::exp(-1.0f)), 1e-6f);
}

TEST(GemmDeathTest, ShapeMismatchAborts) {
  std::vector<float> x(4), w(4), y(3);
  EXPECT_DEATH(GemmSet(x, w, y, 2, 2, 2), "PUNICA_CHECK");
}

}  // namespace
}  // namespace punica
