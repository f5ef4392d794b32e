// The vector synthetic-weight draw (SimdOps::pcg_uniform_pairs,
// box_muller_f16 and box_muller_lanes) against its scalar definition, at
// every compiled vector level: uniforms equal to Pcg32::NextDouble pairs;
// halves byte-equal to the f16 the scalar loop stores, f16(float(z)·scale)
// for the libm helper BoxMuller's z, at edge inputs and several scales (one
// in f16 subnormals), with lanes forced through the fallback and a u1 == 0
// lane stopping the kernel before its block; a seeded 2^22-pair fill
// byte-equal to the scalar level's libm loop, with the kernel's deviates
// within kBoxMullerDelta of libm's and a pinned fallback count. Skips when
// no vector level is compiled in or runnable.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "tensor/simd.h"
#include "util/rng.h"

namespace punica {
namespace {

/// Largest pair block of any level (avx512).
constexpr std::size_t kMaxBlock = 16;

/// The scales the halves are checked at: weight-like, one, large, and one
/// whose products land in f16 subnormals (below 2^-14).
constexpr float kScales[] = {0.37f, 1.0f, 48.0f, 0x1.0p-17f};

std::vector<SimdLevel> VectorLevels() {
  std::vector<SimdLevel> out;
  for (SimdLevel level : {SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (SimdLevelAvailable(level)) out.push_back(level);
  }
  return out;
}

/// The scalar definition: the halves the scalar loop stores for the libm
/// helper's deviates.
std::vector<f16> Helper(const std::vector<double>& u1,
                        const std::vector<double>& u2, std::size_t n,
                        float scale) {
  std::vector<f16> z(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto [z0, z1] = BoxMuller(u1[i], u2[i]);
    z[2 * i] = f16(static_cast<float>(z0) * scale);
    z[2 * i + 1] = f16(static_cast<float>(z1) * scale);
  }
  return z;
}

bool SameHalves(const f16* a, const f16* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(f16)) == 0;
}

/// u1 at 2^-53, just below 1, around the √2/2 mantissa split and mid-range;
/// u2 at 0, ¼, ½, ¾ and their neighbours (the quadrant boundaries, where
/// sin or cos is smallest), and just below 1.
void EdgeInputs(std::vector<double>* u1, std::vector<double>* u2) {
  const double s = std::sqrt(0.5);
  const std::vector<double> a = {0x1.0p-53,
                                 0x1.0p-52,
                                 0x1.8p-30,
                                 std::nextafter(s, 0.0),
                                 s,
                                 std::nextafter(s, 1.0),
                                 0.5,
                                 std::nextafter(1.0, 0.0),
                                 1.0 - 0x1.0p-52,
                                 0.999};
  std::vector<double> b;
  for (double q : {0.0, 0.25, 0.5, 0.75}) {
    b.push_back(q);
    if (q > 0.0) b.push_back(std::nextafter(q, 0.0));
    b.push_back(std::nextafter(q, 1.0));
  }
  b.push_back(std::nextafter(1.0, 0.0));
  for (double x : a) {
    for (double y : b) {
      u1->push_back(x);
      u2->push_back(y);
    }
  }
  // Random pairs: enough halves that a kernel error beyond the ε bracket
  // shows. An odd count leaves a partial final block at every level.
  Pcg32 rng(5);
  for (int i = 0; i < (1 << 18) + 3; ++i) {
    double x = 0.0;
    while (x == 0.0) x = rng.NextDouble();
    u1->push_back(x);
    u2->push_back(rng.NextDouble());
  }
}

TEST(BoxMullerKernelTest, UniformsAreNextDoublePairs) {
  if (VectorLevels().empty()) GTEST_SKIP() << "no vector level here";
  for (SimdLevel level : VectorLevels()) {
    ScopedSimdLevel scoped(level);
    for (std::size_t n : {1U, 3U, 4U, 7U, 8U, 9U, 37U, 256U}) {
      Pcg32 rng(91, 13);
      for (int i = 0; i < 5; ++i) rng.NextU32();  // an odd start
      std::vector<double> u1(n);
      std::vector<double> u2(n);
      Simd().pcg_uniform_pairs(rng.state(), rng.increment(), n, u1.data(),
                               u2.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(u1[i], rng.NextDouble()) << SimdLevelName(level) << " " << i;
        ASSERT_EQ(u2[i], rng.NextDouble()) << SimdLevelName(level) << " " << i;
      }
    }
  }
}

TEST(BoxMullerKernelTest, EdgeInputsMatchTheScalarHalves) {
  if (VectorLevels().empty()) GTEST_SKIP() << "no vector level here";
  std::vector<double> u1;
  std::vector<double> u2;
  EdgeInputs(&u1, &u2);
  const std::size_t n = u1.size();
  for (float scale : kScales) {
    const std::vector<f16> want = Helper(u1, u2, n, scale);
    for (SimdLevel level : VectorLevels()) {
      ScopedSimdLevel scoped(level);
      // kBoxMullerEps keeps nearly every lane's own halves; 2^-16 sends
      // about one lane in eleven through the fallback; at 2 the bracket's
      // ends differ in sign, which sends all of them.
      for (double eps : {kBoxMullerEps, 0x1.0p-16, 2.0}) {
        const std::string where = std::string(SimdLevelName(level)) +
                                  " scale " + std::to_string(scale) +
                                  " eps " + std::to_string(eps);
        std::vector<f16> got(2 * n, f16::FromBits(0x7E01));
        const GaussianDraw done = Simd().box_muller_f16(
            u1.data(), u2.data(), n, scale, eps, got.data());
        EXPECT_EQ(done.pairs, n) << where;
        EXPECT_TRUE(SameHalves(got.data(), want.data(), 2 * n)) << where;
        if (eps == 2.0) {
          EXPECT_EQ(done.fallbacks, n) << where;
        }
      }
    }
  }
}

TEST(BoxMullerKernelTest, ZeroU1StopsBeforeItsBlock) {
  if (VectorLevels().empty()) GTEST_SKIP() << "no vector level here";
  Pcg32 rng(17);
  std::vector<double> u1(72);
  std::vector<double> u2(72);
  for (std::size_t i = 0; i < u1.size(); ++i) {
    u1[i] = 0.5 + 0.25 * rng.NextDouble();
    u2[i] = rng.NextDouble();
  }
  const std::vector<f16> want = Helper(u1, u2, u1.size(), 0.37f);
  const f16 untouched = f16::FromBits(0x7E01);
  for (SimdLevel level : VectorLevels()) {
    ScopedSimdLevel scoped(level);
    for (std::size_t zero_at : {0U, 1U, 13U, 16U, 39U, 71U}) {
      std::vector<double> a = u1;
      a[zero_at] = 0.0;
      std::vector<f16> got(2 * a.size(), untouched);
      const GaussianDraw done = Simd().box_muller_f16(
          a.data(), u2.data(), a.size(), 0.37f, kBoxMullerEps, got.data());
      const std::string where =
          std::string(SimdLevelName(level)) + " zero at " +
          std::to_string(zero_at);
      // Stops at the start of the zero's block, having written only the
      // blocks before it.
      EXPECT_LE(done.pairs, zero_at) << where;
      EXPECT_LT(zero_at - done.pairs, kMaxBlock) << where;
      EXPECT_TRUE(SameHalves(got.data(), want.data(), 2 * done.pairs))
          << where;
      for (std::size_t j = 2 * done.pairs; j < got.size(); ++j) {
        ASSERT_EQ(got[j], untouched) << where << " wrote " << j;
      }
    }
  }
}

TEST(BoxMullerKernelTest, SeededSweepMatchesTheLibmLoop) {
  if (VectorLevels().empty()) GTEST_SKIP() << "no vector level here";
  constexpr std::size_t kPairs = std::size_t{1} << 22;
  constexpr float kScale = 0.37f;
  const Pcg32 start(2024, 7);
  // The oracle: the scalar level's fill is the libm loop itself.
  std::vector<f16> want(2 * kPairs);
  {
    ScopedSimdLevel scalar(SimdLevel::kScalar);
    Pcg32 rng = start;
    FillGaussianF16(rng, kScale, want);
  }
  // The same pairs' uniforms (the seed has no u1 == 0 in its first 2^22)
  // and libm's deviates, for the accuracy bound.
  std::vector<double> u1(kPairs);
  std::vector<double> u2(kPairs);
  {
    Pcg32 rng = start;
    for (std::size_t i = 0; i < kPairs; ++i) {
      u1[i] = rng.NextDouble();
      u2[i] = rng.NextDouble();
      ASSERT_GT(u1[i], 0.0);
    }
  }
  std::vector<double> libm(2 * kPairs);
  for (std::size_t i = 0; i < kPairs; ++i) {
    const auto [z0, z1] = BoxMuller(u1[i], u2[i]);
    libm[2 * i] = z0;
    libm[2 * i + 1] = z1;
  }
  for (SimdLevel level : VectorLevels()) {
    ScopedSimdLevel scoped(level);
    const std::string where = SimdLevelName(level);
    std::vector<f16> got(2 * kPairs);
    Pcg32 rng = start;
    FillGaussianF16(rng, kScale, got);
    EXPECT_TRUE(SameHalves(got.data(), want.data(), got.size())) << where;

    std::vector<double> z(2 * kPairs);
    Simd().box_muller_lanes(u1.data(), u2.data(), kPairs, z.data());
    double worst = 0.0;
    for (std::size_t i = 0; i < z.size(); ++i) {
      if (z[i] == libm[i]) continue;
      worst = std::max(worst, std::fabs(z[i] - libm[i]) / std::fabs(z[i]));
    }
    EXPECT_LE(worst, kBoxMullerDelta) << where;

    // Which lanes are unsure depends only on IEEE float arithmetic, so the
    // count is the same at every level and on every host.
    const GaussianDraw done = Simd().box_muller_f16(
        u1.data(), u2.data(), kPairs, kScale, kBoxMullerEps, got.data());
    EXPECT_EQ(done.pairs, kPairs) << where;
    EXPECT_EQ(done.fallbacks, 28'118U) << where;
    EXPECT_TRUE(SameHalves(got.data(), want.data(), got.size())) << where;
  }
}

}  // namespace
}  // namespace punica
