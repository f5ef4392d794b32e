// FillGaussianF16Parallel against the serial draw it splits: every stream's
// fills drawn in order by FillGaussianF16 from a copy of its generator. The
// halves must match byte for byte at any thread count and SIMD level —
// across task boundaries inside a fill, a stream that meets a u1 == 0
// redraw mid-fill (its tasks' predicted positions go stale), a stream with
// an odd fill before its last, and one that starts on a cached deviate.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "tensor/half.h"
#include "tensor/simd.h"
#include "util/compute_context.h"
#include "util/rng.h"

namespace punica {
namespace {

/// A Pcg32 `pairs` Gaussian pairs before a draw whose u1 is exactly 0:
/// every LCG state below 2^27 outputs the word 0, so state 0 with
/// increment 1 outputs two zero words; Pcg32(seed, 0) has increment 1 and
/// state (1 + seed)·a + 1, which seed = −a⁻¹ − 1 makes 0. Advance then
/// steps back from there (the LCG's period is 2^64).
Pcg32 ZeroU1Ahead(std::uint64_t pairs) {
  std::uint64_t inv = kPcgMultiplier;  // Newton: inv·a ≡ 1 (mod 2^64)
  for (int i = 0; i < 5; ++i) inv *= 2 - kPcgMultiplier * inv;
  Pcg32 rng(0 - inv - 1, 0);
  rng.Advance(0 - 4 * pairs);
  return rng;
}

struct Case {
  std::vector<Pcg32> streams;
  std::vector<std::vector<f16>> tensors;  // one per fill
  std::vector<GaussianFill> fills;

  void Add(std::size_t stream, std::size_t n, float scale) {
    tensors.emplace_back(n);
    fills.push_back({stream, scale, {}});
  }
  void Bind() {
    for (std::size_t i = 0; i < fills.size(); ++i) fills[i].dst = tensors[i];
  }
};

Case MakeCase() {
  Case c;
  c.streams.push_back(Pcg32(11));  // plain: fills over several tasks
  c.Add(0, 70'000, 0.37f);
  c.Add(0, 4'096, 1.0f);
  c.Add(0, 40'002, 0.05f);
  // u1 == 0 at pair 20'000 of the stream: in the first fill's second task,
  // so that task and every later one of the stream start at stale
  // positions.
  c.streams.push_back(ZeroU1Ahead(20'000));
  c.Add(1, 65'536, 0.25f);
  c.Add(1, 30'000, 2.0f);
  // An odd fill before the last: the stream runs as one task.
  c.streams.push_back(Pcg32(12, 3));
  c.Add(2, 33'333, 0.5f);
  c.Add(2, 40'000, 0.5f);
  // Starts on a cached deviate: one task as well.
  Pcg32 cached(13);
  cached.NextGaussian();
  c.streams.push_back(cached);
  c.Add(3, 50'000, 0.75f);
  c.Bind();
  return c;
}

TEST(GaussianFillTest, ParallelDrawMatchesTheSerialStreams) {
  Case want = MakeCase();
  std::vector<Pcg32> ends;
  for (std::size_t s = 0; s < want.streams.size(); ++s) {
    Pcg32 rng = want.streams[s];
    for (const GaussianFill& f : want.fills) {
      if (f.stream == s) FillGaussianF16(rng, f.scale, f.dst);
    }
    ends.push_back(rng);
  }
  // The zero stream really redraws: it ends past two words per deviate.
  Pcg32 two_words_each = want.streams[1];
  two_words_each.Advance(2 * (65'536 + 30'000));
  ASSERT_NE(ends[1].state(), two_words_each.state());
  for (int threads : {1, 2, 4}) {
    for (SimdLevel level :
         {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
      if (!SimdLevelAvailable(level)) continue;
      ScopedSimdLevel scoped(level);
      const std::string where = std::string(SimdLevelName(level)) +
                                " threads " + std::to_string(threads);
      ComputeContext ctx({.num_threads = threads});
      Case got = MakeCase();
      FillGaussianF16Parallel(got.streams, got.fills, ctx);
      for (std::size_t i = 0; i < got.tensors.size(); ++i) {
        EXPECT_EQ(std::memcmp(got.tensors[i].data(), want.tensors[i].data(),
                              got.tensors[i].size() * sizeof(f16)),
                  0)
            << where << " fill " << i;
      }
    }
  }
}

}  // namespace
}  // namespace punica
