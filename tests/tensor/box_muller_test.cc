// The vector synthetic-weight draw (SimdOps::pcg_uniform_pairs and
// box_muller_f32) against its scalar definition, at every compiled vector
// level: uniforms equal to Pcg32::NextDouble pairs, and floats byte-equal
// to the libm helper BoxMuller at edge inputs, with lanes forced through
// the fallback and a u1 == 0 lane stopping the kernel before its block.
// Skips when no vector level is compiled in or runnable.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "tensor/simd.h"
#include "util/rng.h"

namespace punica {
namespace {

/// Largest pair block of any level (avx512).
constexpr std::size_t kMaxBlock = 8;

std::vector<SimdLevel> VectorLevels() {
  std::vector<SimdLevel> out;
  for (SimdLevel level : {SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (SimdLevelAvailable(level)) out.push_back(level);
  }
  return out;
}

/// The scalar definition: the floats of the libm helper.
std::vector<float> Helper(const std::vector<double>& u1,
                          const std::vector<double>& u2, std::size_t n) {
  std::vector<float> z(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto [z0, z1] = BoxMuller(u1[i], u2[i]);
    z[2 * i] = static_cast<float>(z0);
    z[2 * i + 1] = static_cast<float>(z1);
  }
  return z;
}

bool SameFloats(const float* a, const float* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(float)) == 0;
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
  // Random pairs: enough floats that a kernel error beyond the ε bracket
  // (e.g. a log wrong by 2^-33, which flips one float in ~1300) shows. An
  // odd count leaves a partial final block at every level.
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

TEST(BoxMullerKernelTest, EdgeInputsMatchTheLibmHelper) {
  if (VectorLevels().empty()) GTEST_SKIP() << "no vector level here";
  std::vector<double> u1;
  std::vector<double> u2;
  EdgeInputs(&u1, &u2);
  const std::size_t n = u1.size();
  const std::vector<float> want = Helper(u1, u2, n);
  for (SimdLevel level : VectorLevels()) {
    ScopedSimdLevel scoped(level);
    // kBoxMullerEps keeps nearly every lane's own float; 2^-26 sends about
    // half the lanes through the fallback, 0.5 all of them.
    for (double eps : {kBoxMullerEps, 0x1.0p-26, 0.5}) {
      std::vector<float> got(2 * n, -1.0f);
      const std::size_t done =
          Simd().box_muller_f32(u1.data(), u2.data(), n, eps, got.data());
      EXPECT_EQ(done, n) << SimdLevelName(level);
      EXPECT_TRUE(SameFloats(got.data(), want.data(), 2 * n))
          << SimdLevelName(level) << " eps " << eps;
    }
  }
}

TEST(BoxMullerKernelTest, ZeroU1StopsBeforeItsBlock) {
  if (VectorLevels().empty()) GTEST_SKIP() << "no vector level here";
  Pcg32 rng(17);
  std::vector<double> u1(40);
  std::vector<double> u2(40);
  for (std::size_t i = 0; i < u1.size(); ++i) {
    u1[i] = 0.5 + 0.25 * rng.NextDouble();
    u2[i] = rng.NextDouble();
  }
  const std::vector<float> want = Helper(u1, u2, u1.size());
  for (SimdLevel level : VectorLevels()) {
    ScopedSimdLevel scoped(level);
    for (std::size_t zero_at : {0U, 1U, 13U, 16U, 39U}) {
      std::vector<double> a = u1;
      a[zero_at] = 0.0;
      std::vector<float> got(2 * a.size(), -1.0f);
      const std::size_t done = Simd().box_muller_f32(
          a.data(), u2.data(), a.size(), kBoxMullerEps, got.data());
      const std::string where =
          std::string(SimdLevelName(level)) + " zero at " +
          std::to_string(zero_at);
      // Stops at the start of the zero's block, having written only the
      // blocks before it.
      EXPECT_LE(done, zero_at) << where;
      EXPECT_LT(zero_at - done, kMaxBlock) << where;
      EXPECT_TRUE(SameFloats(got.data(), want.data(), 2 * done)) << where;
      for (std::size_t j = 2 * done; j < got.size(); ++j) {
        ASSERT_EQ(got[j], -1.0f) << where << " wrote " << j;
      }
    }
  }
}

}  // namespace
}  // namespace punica
