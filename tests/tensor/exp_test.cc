// ExpF32 (tensor/simd_exp.h), the one exp every kernel runs: its error
// against libm's expf over the ranges softmax and SiLU use, its special
// values, and bit identity of the exp_f32 and silu_mul table entries across
// every SIMD level.
#include "tensor/simd_exp.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <vector>

#include "tensor/simd.h"
#include "util/rng.h"

namespace punica {
namespace {

/// The error bound, in units in the last place of libm's result. Measured
/// maximum over every float in [−104, 0] and in [−88, 88] (glibc expf): 1.
constexpr std::int64_t kMaxUlp = 2;

std::int64_t UlpDistance(float a, float b) {
  // Both results are ≥ +0 here, so their bit patterns order like values.
  std::int32_t ia;
  std::int32_t ib;
  std::memcpy(&ia, &a, sizeof a);
  std::memcpy(&ib, &b, sizeof b);
  return std::llabs(static_cast<std::int64_t>(ia) - ib);
}

std::uint32_t Bits(float f) {
  std::uint32_t b;
  std::memcpy(&b, &f, sizeof f);
  return b;
}

std::vector<SimdLevel> Levels() {
  std::vector<SimdLevel> out;
  for (SimdLevel l :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (SimdLevelAvailable(l)) out.push_back(l);
  }
  return out;
}

/// Max ulp distance to libm over 2^22 evenly spaced points of [lo, hi],
/// run through the active level's exp_f32.
std::int64_t SweepMaxUlp(float lo, float hi, float* worst_x) {
  constexpr std::size_t kPoints = std::size_t{1} << 22;
  std::vector<float> x(kPoints);
  for (std::size_t i = 0; i < kPoints; ++i) {
    x[i] = lo + (hi - lo) * static_cast<float>(i) /
                    static_cast<float>(kPoints - 1);
  }
  std::vector<float> y(kPoints);
  Simd().exp_f32(x.data(), y.data(), kPoints);
  std::int64_t worst = 0;
  for (std::size_t i = 0; i < kPoints; ++i) {
    const std::int64_t u = UlpDistance(y[i], std::exp(x[i]));
    if (u > worst) {
      worst = u;
      *worst_x = x[i];
    }
  }
  return worst;
}

TEST(ExpTest, MaxUlpAgainstLibmOverSoftmaxAndSiluRanges) {
  for (SimdLevel level : Levels()) {
    ScopedSimdLevel scoped(level);
    // Softmax arguments are s − max ≤ 0; below −104 every result is +0.
    float at = 0.0f;
    EXPECT_LE(SweepMaxUlp(-104.0f, 0.0f, &at), kMaxUlp)
        << SimdLevelName(level) << " worst at " << at;
    // SiLU evaluates exp(−x): the whole finite range of results.
    EXPECT_LE(SweepMaxUlp(-88.0f, 88.0f, &at), kMaxUlp)
        << SimdLevelName(level) << " worst at " << at;
  }
}

TEST(ExpTest, SpecialValues) {
  const float inf = std::numeric_limits<float>::infinity();
  // The first FoldBlock of every attention row relies on this being +0.
  EXPECT_EQ(Bits(ExpF32(-inf)), 0u);
  EXPECT_EQ(ExpF32(0.0f), 1.0f);
  EXPECT_EQ(ExpF32(-0.0f), 1.0f);
  EXPECT_TRUE(std::isnan(ExpF32(std::numeric_limits<float>::quiet_NaN())));
  EXPECT_EQ(ExpF32(89.0f), inf);
  EXPECT_EQ(ExpF32(1000.0f), inf);
  EXPECT_EQ(ExpF32(inf), inf);
  EXPECT_TRUE(std::isfinite(ExpF32(88.72f)));
  EXPECT_EQ(Bits(ExpF32(-104.0f)), 0u);
  EXPECT_EQ(Bits(ExpF32(-1000.0f)), 0u);
  // Subnormal results round once, like libm's.
  EXPECT_LE(UlpDistance(ExpF32(-100.0f), std::exp(-100.0f)), kMaxUlp);
  EXPECT_GT(ExpF32(-100.0f), 0.0f);
}

/// Inputs every exp/SiLU lane sees: a random spread plus the specials, at
/// lengths that leave every vector tail width.
std::vector<float> Inputs(std::size_t n, std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<float> x(n);
  for (auto& v : x) v = rng.NextFloat(-120.0f, 100.0f);
  const float specials[] = {0.0f,
                            -0.0f,
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::infinity(),
                            88.72f,
                            -87.5f,
                            -103.9f,
                            1e-30f};
  for (std::size_t i = 0; i < n && i < std::size(specials); ++i) {
    x[(i * 7) % n] = specials[i];
  }
  return x;
}

TEST(ExpTest, ExpAndSiluMulBitIdenticalAcrossLevels) {
  for (std::size_t n : {1, 7, 8, 9, 15, 16, 17, 31, 33, 1000}) {
    const std::vector<float> x = Inputs(n, 17 + n);
    std::vector<float> up = Inputs(n, 91 + n);
    for (auto& u : up) u = std::isfinite(u) ? std::fmod(u, 4.0f) : 1.0f;
    std::vector<float> want_exp(n);
    std::vector<float> want_silu(n);
    for (std::size_t i = 0; i < n; ++i) {
      want_exp[i] = ExpF32(x[i]);
      want_silu[i] = x[i] / (1.0f + ExpF32(-x[i])) * up[i];
    }
    for (SimdLevel level : Levels()) {
      ScopedSimdLevel scoped(level);
      std::vector<float> got(n);
      Simd().exp_f32(x.data(), got.data(), n);
      EXPECT_EQ(std::memcmp(got.data(), want_exp.data(), n * sizeof(float)),
                0)
          << SimdLevelName(level) << " exp_f32, n " << n;
      got = x;
      Simd().silu_mul(got.data(), up.data(), n);
      EXPECT_EQ(
          std::memcmp(got.data(), want_silu.data(), n * sizeof(float)), 0)
          << SimdLevelName(level) << " silu_mul, n " << n;
    }
  }
}

TEST(ExpTest, ExpInPlaceAndNanPropagates) {
  for (SimdLevel level : Levels()) {
    ScopedSimdLevel scoped(level);
    std::vector<float> v = {std::numeric_limits<float>::quiet_NaN(), -1.0f,
                            2.0f};
    Simd().exp_f32(v.data(), v.data(), v.size());
    EXPECT_TRUE(std::isnan(v[0])) << SimdLevelName(level);
    EXPECT_EQ(v[1], ExpF32(-1.0f));
    EXPECT_EQ(v[2], ExpF32(2.0f));
  }
}

}  // namespace
}  // namespace punica
