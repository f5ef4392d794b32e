// The SIMD dispatch seam: level resolution/override, bit-exactness of the
// f16<->f32 bulk conversions across paths, and the scalar-vs-vector kernel-equivalence suite with the documented tolerance
// (bit-identical where no FMA reassociation is involved, bounded
// FMA-contraction drift elsewhere). Every compiled-and-runnable level is
// swept; when the vector TUs aren't compiled in (or the CPU lacks the
// feature set), the cross-path tests skip — the Release CI job builds with
// -DPUNICA_NATIVE_SIMD=ON so they run there.
#include "tensor/simd.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/sgmv.h"
#include "kvcache/kvcache.h"
#include "model/attention.h"
#include "model/config.h"
#include "tensor/gemm.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"
#include "util/compute_context.h"
#include "util/rng.h"

namespace punica {
namespace {

bool IsNanHalf(std::uint16_t bits) {
  return (bits & 0x7C00U) == 0x7C00U && (bits & 0x3FFUL) != 0;
}

/// Every level that can actually run on this build+CPU, ascending.
std::vector<SimdLevel> AvailableLevels() {
  std::vector<SimdLevel> out;
  for (int l = 0; l < kNumSimdLevels; ++l) {
    auto level = static_cast<SimdLevel>(l);
    if (SimdLevelAvailable(level)) out.push_back(level);
  }
  return out;
}

/// Vector levels (everything above scalar) that can run here.
std::vector<SimdLevel> AvailableVectorLevels() {
  auto levels = AvailableLevels();
  levels.erase(levels.begin());  // scalar is always index 0
  return levels;
}

TEST(SimdDispatchTest, ScalarAlwaysSelectable) {
  ScopedSimdLevel guard(SimdLevel::kScalar);
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  EXPECT_STREQ(Simd().name, "scalar");
}

TEST(SimdDispatchTest, LevelNames) {
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx2), "avx2");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx512), "avx512");
}

TEST(SimdDispatchTest, SetSimdLevelReturnsPrevious) {
  SimdLevel ambient = ActiveSimdLevel();
  SimdLevel prev = SetSimdLevel(SimdLevel::kScalar);
  EXPECT_EQ(prev, ambient);
  EXPECT_EQ(SetSimdLevel(ambient), SimdLevel::kScalar);
  EXPECT_EQ(ActiveSimdLevel(), ambient);
}

TEST(SimdDispatchTest, AvailabilityImpliesCompiled) {
  for (int l = 0; l < kNumSimdLevels; ++l) {
    auto level = static_cast<SimdLevel>(l);
    if (SimdLevelAvailable(level)) {
      EXPECT_TRUE(SimdLevelCompiled(level));
    }
  }
}

TEST(SimdDispatchTest, BestLevelIsTheHighestAvailable) {
  EXPECT_TRUE(SimdLevelAvailable(BestSimdLevel()));
  for (int l = static_cast<int>(BestSimdLevel()) + 1; l < kNumSimdLevels;
       ++l) {
    EXPECT_FALSE(SimdLevelAvailable(static_cast<SimdLevel>(l)));
  }
}

TEST(SimdDispatchTest, RequestsDegradeToNearestAvailableLevel) {
  // Requesting any level resolves to the highest available level at or
  // below it — the PUNICA_SIMD=avx512-on-an-avx2-box case degrades
  // silently rather than crashing.
  for (int req = 0; req < kNumSimdLevels; ++req) {
    SimdLevel expected = SimdLevel::kScalar;
    for (int l = req; l > 0; --l) {
      if (SimdLevelAvailable(static_cast<SimdLevel>(l))) {
        expected = static_cast<SimdLevel>(l);
        break;
      }
    }
    ScopedSimdLevel guard(static_cast<SimdLevel>(req));
    EXPECT_EQ(ActiveSimdLevel(), expected) << "requested level " << req;
    EXPECT_STREQ(Simd().name, SimdLevelName(expected));
  }
}

// --- Conversion bit-exactness across dispatch paths ---

TEST(SimdConversionTest, HalfToFloatBitIdenticalForAllNonNanPatterns) {
  if (AvailableVectorLevels().empty()) GTEST_SKIP() << "no vector SIMD";
  std::vector<f16> src;
  src.reserve(1 << 16);
  for (std::uint32_t bits = 0; bits < (1U << 16); ++bits) {
    auto b16 = static_cast<std::uint16_t>(bits);
    // NaN payload handling is the one documented divergence (hardware
    // quiets signalling NaNs); no kernel produces or consumes NaN halves.
    if (IsNanHalf(b16)) continue;
    src.push_back(f16::FromBits(b16));
  }
  std::vector<float> scalar_out(src.size());
  {
    ScopedSimdLevel guard(SimdLevel::kScalar);
    HalfToFloatN(src, std::span<float>(scalar_out));
  }
  for (SimdLevel level : AvailableVectorLevels()) {
    std::vector<float> vec_out(src.size());
    ScopedSimdLevel guard(level);
    HalfToFloatN(src, std::span<float>(vec_out));
    for (std::size_t i = 0; i < src.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(scalar_out[i]),
                std::bit_cast<std::uint32_t>(vec_out[i]))
          << SimdLevelName(level) << ": half bits 0x" << std::hex
          << src[i].bits();
    }
  }
}

TEST(SimdConversionTest, FloatToHalfBitIdenticalAcrossPaths) {
  if (AvailableVectorLevels().empty()) GTEST_SKIP() << "no vector SIMD";
  // Every rounding regime: exact halves, perturbed neighbours (round up /
  // down / to-even ties), fp16 subnormals, underflow, overflow, ±0, ±inf.
  std::vector<float> src;
  for (std::uint32_t bits = 0; bits < (1U << 16); ++bits) {
    auto b16 = static_cast<std::uint16_t>(bits);
    if (IsNanHalf(b16)) continue;
    float v = f16::FromBits(b16).ToFloat();
    src.push_back(v);
    std::uint32_t f32 = std::bit_cast<std::uint32_t>(v);
    // Nudge the fp32 mantissa around the value so the dropped-bit patterns
    // cover above/below/at the rounding boundary.
    for (std::uint32_t delta : {1U, 0x1000U, 0x1FFFU, 0x2000U, 0x2001U}) {
      src.push_back(std::bit_cast<float>(f32 + delta));
      src.push_back(std::bit_cast<float>(f32 ^ delta));
    }
  }
  Pcg32 rng(123);
  for (int i = 0; i < 4096; ++i) {
    src.push_back(static_cast<float>(rng.NextGaussian()) * 100.0f);
  }
  // Drop NaNs produced by nudging infinity's bit pattern.
  std::erase_if(src, [](float v) { return std::isnan(v); });

  std::vector<f16> scalar_out(src.size());
  {
    ScopedSimdLevel guard(SimdLevel::kScalar);
    FloatToHalfN(src, std::span<f16>(scalar_out));
  }
  for (SimdLevel level : AvailableVectorLevels()) {
    std::vector<f16> vec_out(src.size());
    ScopedSimdLevel guard(level);
    FloatToHalfN(src, std::span<f16>(vec_out));
    for (std::size_t i = 0; i < src.size(); ++i) {
      ASSERT_EQ(scalar_out[i].bits(), vec_out[i].bits())
          << SimdLevelName(level) << ": float " << src[i] << " (bits 0x"
          << std::hex << std::bit_cast<std::uint32_t>(src[i]) << ")";
    }
  }
}

TEST(SimdConversionTest, OddLengthsExerciseVectorBodyAndTail) {
  // Lengths straddling the 8- and 16-lane widths, on every available path.
  Pcg32 rng(9);
  for (SimdLevel level : AvailableLevels()) {
    ScopedSimdLevel guard(level);
    for (std::size_t n : {0U, 1U, 7U, 8U, 9U, 15U, 16U, 17U, 31U, 33U}) {
      auto xs = RandomGaussianVector(n, 2.0f, rng);
      std::vector<f16> h(n);
      std::vector<float> back(n);
      FloatToHalfN(xs, std::span<f16>(h));
      HalfToFloatN(h, std::span<float>(back));
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(h[i].bits(), FloatToHalfBits(xs[i]))
            << SimdLevelName(level) << " " << n << ":" << i;
        ASSERT_EQ(back[i], f16::FromBits(h[i].bits()).ToFloat());
      }
    }
  }
}

// --- Scalar-vs-vector kernel equivalence ---
//
// Documented cross-path tolerance: the vector paths fuse each
// multiply-accumulate (no separate rounding of the product) and the dot
// kernels reduce their lane accumulators in a fixed order, so outputs
// drift by at most a few ULPs per reduction term. The bound below is loose
// against that model and tight against a real bug (a wrong element, stripe
// or sign is orders of magnitude larger). The quant kernels compare the
// SAME quantized blocks across paths, so quantization error cancels and
// only FMA-contraction drift remains.
constexpr float kPathTolerance = 2e-4f;

bool WithinPathTolerance(float a, float b) {
  return std::abs(a - b) <= kPathTolerance * (1.0f + std::abs(a) +
                                              std::abs(b));
}

enum class KernelUnderTest {
  kGemmSetF16W,
  kGemmAccF16W,
  kGemmSetF32,
  kGemmSetQ8W,
  kGemmAccQ8W,
  kGemmSetQ4W,
  kGemmAccQ4W,
  kSgmvShrink,
  kSgmvExpand,
  kPrefillAttention,
  kDecodeAttention,
};

const char* KernelName(KernelUnderTest k) {
  switch (k) {
    case KernelUnderTest::kGemmSetF16W: return "GemmSetF16W";
    case KernelUnderTest::kGemmAccF16W: return "GemmAccF16W";
    case KernelUnderTest::kGemmSetF32: return "GemmSetF32";
    case KernelUnderTest::kGemmSetQ8W: return "GemmSetQ8W";
    case KernelUnderTest::kGemmAccQ8W: return "GemmAccQ8W";
    case KernelUnderTest::kGemmSetQ4W: return "GemmSetQ4W";
    case KernelUnderTest::kGemmAccQ4W: return "GemmAccQ4W";
    case KernelUnderTest::kSgmvShrink: return "SgmvShrink";
    case KernelUnderTest::kSgmvExpand: return "SgmvExpand";
    case KernelUnderTest::kPrefillAttention: return "PrefillAttention";
    case KernelUnderTest::kDecodeAttention: return "DecodeAttention";
  }
  return "?";
}

/// Builds a quantized weight matrix from a seeded f16 draw.
WeightMatrix MakeQuantWeights(std::int64_t k, std::int64_t n,
                              WeightDtype dtype, Pcg32& rng) {
  Tensor<f16> w({k, n});
  for (auto& v : w.data()) {
    v = f16(static_cast<float>(rng.NextGaussian()) * 0.1f);
  }
  return WeightMatrix::FromF16(std::move(w), dtype);
}

// Runs one kernel on a fixed seeded problem (shapes straddle the tile and
// lane widths) and returns its full output vector.
std::vector<float> RunKernel(KernelUnderTest kernel) {
  Pcg32 rng(2027);
  ComputeContext ctx({.num_threads = 2});
  switch (kernel) {
    case KernelUnderTest::kGemmSetF16W:
    case KernelUnderTest::kGemmAccF16W:
    case KernelUnderTest::kGemmSetF32: {
      const int m = 9, k = 67, n = 131;
      auto x = RandomGaussianVector(static_cast<std::size_t>(m) * k, 1.0f,
                                    rng);
      auto wf = RandomGaussianVector(static_cast<std::size_t>(k) * n, 0.1f,
                                     rng);
      std::vector<float> y(static_cast<std::size_t>(m) * n, 0.25f);
      if (kernel == KernelUnderTest::kGemmSetF32) {
        GemmSet(x, wf, y, m, k, n, ctx);
        return y;
      }
      std::vector<f16> w(wf.size());
      for (std::size_t i = 0; i < wf.size(); ++i) w[i] = f16(wf[i]);
      if (kernel == KernelUnderTest::kGemmSetF16W) {
        GemmSetF16W(x, w, y, m, k, n, ctx);
      } else {
        GemmAccF16W(x, w, y, m, k, n, ctx);
      }
      return y;
    }
    case KernelUnderTest::kGemmSetQ8W:
    case KernelUnderTest::kGemmAccQ8W:
    case KernelUnderTest::kGemmSetQ4W:
    case KernelUnderTest::kGemmAccQ4W: {
      // n deliberately not a multiple of kQuantBlock: the last block of
      // every stripe row is a padded tail.
      const int m = 9, k = 67, n = 131;
      const bool q8 = kernel == KernelUnderTest::kGemmSetQ8W ||
                      kernel == KernelUnderTest::kGemmAccQ8W;
      const bool set = kernel == KernelUnderTest::kGemmSetQ8W ||
                       kernel == KernelUnderTest::kGemmSetQ4W;
      auto x = RandomGaussianVector(static_cast<std::size_t>(m) * k, 1.0f,
                                    rng);
      WeightMatrix w = MakeQuantWeights(
          k, n, q8 ? WeightDtype::kQ8_0 : WeightDtype::kQ4_0, rng);
      std::vector<float> y(static_cast<std::size_t>(m) * n, 0.25f);
      if (set) {
        GemmSetW(x, w, y, m, k, n, ctx);
      } else {
        GemmAccW(x, w, y, m, k, n, ctx);
      }
      return y;
    }
    case KernelUnderTest::kSgmvShrink:
    case KernelUnderTest::kSgmvExpand: {
      const bool expand = kernel == KernelUnderTest::kSgmvExpand;
      const int h_in = expand ? 16 : 517, h_out = expand ? 517 : 16;
      std::vector<std::int32_t> seg = {0, 3, 3, 7};  // one empty segment
      Tensor<f16> w1({h_in, h_out}), w2({h_in, h_out});
      for (auto& v : w1.data()) {
        v = f16(static_cast<float>(rng.NextGaussian()) * 0.05f);
      }
      for (auto& v : w2.data()) {
        v = f16(static_cast<float>(rng.NextGaussian()) * 0.05f);
      }
      std::vector<const f16*> ptrs = {w1.raw(), nullptr, w2.raw()};
      auto x = RandomGaussianVector(7 * static_cast<std::size_t>(h_in), 1.0f,
                                    rng);
      std::vector<float> y(7 * static_cast<std::size_t>(h_out), 0.125f);
      SgmvArgs args{y, x, ptrs, seg, h_in, h_out};
      if (expand) {
        SgmvExpand(args, ctx);
      } else {
        SgmvShrink(args, ctx);
      }
      return y;
    }
    case KernelUnderTest::kPrefillAttention:
    case KernelUnderTest::kDecodeAttention: {
      LlamaConfig c = TinyLlama();
      KvCacheConfig kvc{.num_layers = 1,
                        .num_kv_heads = c.num_kv_heads,
                        .head_dim = c.head_dim(),
                        .page_size = 16,
                        .num_pages = 64};
      PagedKvCache kv(kvc);
      const std::int64_t len = 37;
      SeqId s = kv.CreateSequence();
      kv.Extend(s, len);
      for (std::int64_t pos = 0; pos < len; ++pos) {
        for (auto slot : {KvSlot::kKey, KvSlot::kValue}) {
          auto e = kv.Entry(s, 0, pos, slot);
          for (auto& v : e) {
            v = f16(static_cast<float>(rng.NextGaussian()) * 0.3f);
          }
        }
      }
      std::size_t width = static_cast<std::size_t>(c.num_heads) *
                          static_cast<std::size_t>(c.head_dim());
      if (kernel == KernelUnderTest::kDecodeAttention) {
        std::vector<SeqId> seqs = {s};
        auto q = RandomGaussianVector(width, 1.0f, rng);
        std::vector<float> out(width);
        BatchDecodeAttention(c, kv, seqs, 0, q, out, ctx);
        return out;
      }
      const std::int64_t chunk = 5;
      auto q = RandomGaussianVector(static_cast<std::size_t>(chunk) * width,
                                    1.0f, rng);
      std::vector<float> out(q.size());
      BatchPrefillAttention(c, kv, s, 0, len - chunk, q, out, ctx);
      return out;
    }
  }
  return {};
}

class SimdKernelEquivalenceTest
    : public ::testing::TestWithParam<KernelUnderTest> {};

TEST_P(SimdKernelEquivalenceTest, ScalarVsEachVectorLevelWithinTolerance) {
  if (AvailableVectorLevels().empty()) GTEST_SKIP() << "no vector SIMD";
  std::vector<float> scalar_out;
  {
    ScopedSimdLevel guard(SimdLevel::kScalar);
    scalar_out = RunKernel(GetParam());
  }
  ASSERT_FALSE(scalar_out.empty());
  for (SimdLevel level : AvailableVectorLevels()) {
    std::vector<float> vec_out;
    {
      ScopedSimdLevel guard(level);
      vec_out = RunKernel(GetParam());
    }
    ASSERT_EQ(scalar_out.size(), vec_out.size());
    for (std::size_t i = 0; i < scalar_out.size(); ++i) {
      ASSERT_PRED2(WithinPathTolerance, scalar_out[i], vec_out[i])
          << KernelName(GetParam()) << " on " << SimdLevelName(level)
          << " element " << i;
    }
  }
}

TEST_P(SimdKernelEquivalenceTest, EachPathBitStableAcrossRuns) {
  // Within one dispatch path a kernel must be a pure function — rerunning
  // it (on a pool, with its own task interleaving) reproduces every bit.
  for (SimdLevel level : AvailableLevels()) {
    ScopedSimdLevel guard(level);
    auto a = RunKernel(GetParam());
    auto b = RunKernel(GetParam());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << KernelName(GetParam()) << " on "
                            << SimdLevelName(level) << " element " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, SimdKernelEquivalenceTest,
    ::testing::Values(KernelUnderTest::kGemmSetF16W,
                      KernelUnderTest::kGemmAccF16W,
                      KernelUnderTest::kGemmSetF32,
                      KernelUnderTest::kGemmSetQ8W,
                      KernelUnderTest::kGemmAccQ8W,
                      KernelUnderTest::kGemmSetQ4W,
                      KernelUnderTest::kGemmAccQ4W,
                      KernelUnderTest::kSgmvShrink,
                      KernelUnderTest::kSgmvExpand,
                      KernelUnderTest::kPrefillAttention,
                      KernelUnderTest::kDecodeAttention),
    [](const ::testing::TestParamInfo<KernelUnderTest>& info) {
      return std::string(KernelName(info.param));
    });

}  // namespace
}  // namespace punica
