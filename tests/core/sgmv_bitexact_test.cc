// Bit-exactness of the row-blocked SGMV schedules at every compiled SIMD
// level, against sequential oracles written from the numerics contract:
//  * shrink: each (row, split-K partition) partial starts at 0 and runs
//    ascending kk; partitions then reduce in fixed ascending order and the
//    sum adds into y (one rounding per add);
//  * expand: the accumulator starts at 0 over ascending kk, then y += acc;
// where one kk step is y + x·w on scalar and fma(x, w, y) on avx2/avx512.
// Row blocks never cross a segment boundary and null-weight segments stay
// untouched, so outputs compare with memcmp.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/lora.h"
#include "core/sgmv.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace punica {
namespace {

std::vector<SimdLevel> Levels() {
  std::vector<SimdLevel> out;
  for (int l = 0; l < kNumSimdLevels; ++l) {
    auto level = static_cast<SimdLevel>(l);
    if (SimdLevelAvailable(level)) out.push_back(level);
  }
  return out;
}

float Step(SimdLevel level, float acc, float x, float w) {
  return level == SimdLevel::kScalar ? acc + x * w : std::fma(x, w, acc);
}

/// One segment's reduction x[row, lo..hi) · W[lo..hi, j] from 0.
float Chain(SimdLevel level, const float* x, const f16* w, int h_out, int j,
            int lo, int hi) {
  float acc = 0.0f;
  for (int kk = lo; kk < hi; ++kk) {
    acc = Step(level, acc, x[kk],
               w[static_cast<std::size_t>(kk) * h_out + j].ToFloat());
  }
  return acc;
}

void ShrinkOracle(SimdLevel level, const SgmvArgs& a) {
  const int parts = SplitKPartitions(a.h_in);
  const int chunk = (a.h_in + parts - 1) / parts;
  for (std::size_t s = 0; s + 1 < a.seg.size(); ++s) {
    const f16* w = a.weights[s];
    if (w == nullptr) continue;
    for (int row = a.seg[s]; row < a.seg[s + 1]; ++row) {
      const float* xr = &a.x[static_cast<std::size_t>(row) * a.h_in];
      for (int j = 0; j < a.h_out; ++j) {
        float acc = 0.0f;
        for (int p = 0; p < parts; ++p) {
          const int lo = p * chunk;
          const float part =
              Chain(level, xr, w, a.h_out, j, lo, std::min(a.h_in, lo + chunk));
          acc = p == 0 ? part : acc + part;
        }
        a.y[static_cast<std::size_t>(row) * a.h_out + j] += acc;
      }
    }
  }
}

void ExpandOracle(SimdLevel level, const SgmvArgs& a) {
  for (std::size_t s = 0; s + 1 < a.seg.size(); ++s) {
    const f16* w = a.weights[s];
    if (w == nullptr) continue;
    for (int row = a.seg[s]; row < a.seg[s + 1]; ++row) {
      const float* xr = &a.x[static_cast<std::size_t>(row) * a.h_in];
      for (int j = 0; j < a.h_out; ++j) {
        a.y[static_cast<std::size_t>(row) * a.h_out + j] +=
            Chain(level, xr, w, a.h_out, j, 0, a.h_in);
      }
    }
  }
}

void ExpectBitEqual(const std::vector<float>& got,
                    const std::vector<float>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  if (std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) == 0) {
    return;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0) {
      FAIL() << what << ": first mismatch at element " << i << " got "
             << got[i] << " want " << want[i];
    }
  }
}

Tensor<f16> RandomHalf(int rows, int cols, Pcg32& rng) {
  Tensor<f16> t({rows, cols});
  for (auto& v : t.data()) {
    v = f16(static_cast<float>(rng.NextGaussian()) * 0.1f);
  }
  return t;
}

// Segment lengths straddling the 8-row block (0, 1, 7, 8, 9, 130), with a
// null-weight segment among them.
const std::vector<std::int32_t> kSegLengths = {0, 1, 7, 8, 9, 130, 3};
const std::vector<bool> kSegHasWeight = {true, true, true, false,
                                         true, true, true};

std::vector<std::int32_t> Offsets() {
  std::vector<std::int32_t> seg = {0};
  for (std::int32_t len : kSegLengths) seg.push_back(seg.back() + len);
  return seg;
}

TEST(SgmvBitExactTest, ShrinkAndExpandMatchContractOracleAtEveryLevel) {
  const std::vector<std::int32_t> seg = Offsets();
  const int rows = seg.back();
  ComputeContext ctx({.num_threads = 2});
  // h_in 200 / 300 / 700 → 1 / 2 / 3 split-K partitions on the shrink.
  for (int h_big : {200, 300, 700}) {
    for (int rank : {4, 8, 16}) {
      for (bool expand : {false, true}) {
        const int h_in = expand ? rank : h_big;
        const int h_out = expand ? h_big : rank;
        Pcg32 rng(static_cast<std::uint64_t>(h_big * 31 + rank));
        std::vector<Tensor<f16>> ws;
        std::vector<const f16*> ptrs;
        for (bool has : kSegHasWeight) {
          ws.push_back(RandomHalf(h_in, h_out, rng));
          ptrs.push_back(has ? ws.back().raw() : nullptr);
        }
        const auto x = RandomGaussianVector(
            static_cast<std::size_t>(rows) * h_in, 1.0f, rng);
        const auto y0 = RandomGaussianVector(
            static_cast<std::size_t>(rows) * h_out, 1.0f, rng);
        for (SimdLevel level : Levels()) {
          ScopedSimdLevel guard(level);
          std::vector<float> got = y0;
          std::vector<float> want = y0;
          SgmvArgs run{got, x, ptrs, seg, h_in, h_out};
          SgmvArgs ref{want, x, ptrs, seg, h_in, h_out};
          if (expand) {
            SgmvExpand(run, ctx);
            ExpandOracle(level, ref);
          } else {
            SgmvShrink(run, ctx);
            ShrinkOracle(level, ref);
          }
          ExpectBitEqual(got, want,
                         std::string(SimdLevelName(level)) +
                             (expand ? " expand" : " shrink") +
                             " h=" + std::to_string(h_big) +
                             " rank=" + std::to_string(rank));
        }
      }
    }
  }
}

TEST(SgmvBitExactTest, MixedRankAddonMatchesContractOracleAtEveryLevel) {
  // Mixed ranks take BatchedLoraAddon's per-segment path; each segment
  // must still equal shrink-then-expand at its own rank.
  const std::vector<std::int32_t> seg = Offsets();
  const int rows = seg.back();
  const int h = 300;
  const int ranks[] = {4, 8, 16, 8, 4, 16, 8};
  ComputeContext ctx({.num_threads = 2});
  std::vector<LoraAB> adapters;
  std::vector<const LoraAB*> ptrs;
  for (std::size_t s = 0; s < kSegLengths.size(); ++s) {
    adapters.push_back(
        LoraAB::Random(h, h, ranks[s], 500 + static_cast<std::uint64_t>(s)));
  }
  for (std::size_t s = 0; s < adapters.size(); ++s) {
    ptrs.push_back(kSegHasWeight[s] ? &adapters[s] : nullptr);
  }
  Pcg32 rng(77);
  const auto x =
      RandomGaussianVector(static_cast<std::size_t>(rows) * h, 1.0f, rng);
  const auto y0 =
      RandomGaussianVector(static_cast<std::size_t>(rows) * h, 1.0f, rng);
  std::vector<float> workspace(static_cast<std::size_t>(rows) * 16 *
                               (1 + kMaxSplitKPartitions));
  for (SimdLevel level : Levels()) {
    ScopedSimdLevel guard(level);
    std::vector<float> got = y0;
    BatchedLoraAddon(got, x, ptrs, seg, h, h, workspace, ctx);
    std::vector<float> want = y0;
    for (std::size_t s = 0; s < adapters.size(); ++s) {
      if (ptrs[s] == nullptr || kSegLengths[s] == 0) continue;
      const auto lo = static_cast<std::size_t>(seg[s]);
      const auto n = static_cast<std::size_t>(kSegLengths[s]);
      const int r = ranks[s];
      std::vector<float> v(n * static_cast<std::size_t>(r), 0.0f);
      const std::vector<std::int32_t> one = {0, kSegLengths[s]};
      const f16* a = adapters[s].a.raw();
      const f16* b = adapters[s].b.raw();
      ShrinkOracle(level, {v, std::span<const float>(x).subspan(lo * h, n * h),
                           std::span<const f16* const>(&a, 1), one, h, r});
      ExpandOracle(level, {std::span<float>(want).subspan(lo * h, n * h), v,
                           std::span<const f16* const>(&b, 1), one, r, h});
    }
    ExpectBitEqual(got, want, SimdLevelName(level));
  }
}

// SgmvShrinkRows over any cover of the batch rows by ranges — whole,
// one row at a time, ranges that cut row blocks and segments mid-way — is
// the contract's shrink bit for bit, including h_out above its 64-float
// stack bound.
TEST(SgmvBitExactTest, ShrinkRowsOverAnyRangesMatchesContractOracle) {
  const std::vector<std::int32_t> seg = Offsets();
  const int rows = seg.back();
  const std::vector<std::vector<std::int32_t>> covers = {
      {0, rows}, {0, 5, 17, 40, 41, rows}, {0, 3, 6, 9, 12, 15, rows}};
  for (int h_in : {300, 700}) {
    for (int rank : {4, 16, 72}) {
      Pcg32 rng(static_cast<std::uint64_t>(h_in * 7 + rank));
      std::vector<Tensor<f16>> ws;
      std::vector<const f16*> ptrs;
      for (bool has : kSegHasWeight) {
        ws.push_back(RandomHalf(h_in, rank, rng));
        ptrs.push_back(has ? ws.back().raw() : nullptr);
      }
      const auto x = RandomGaussianVector(
          static_cast<std::size_t>(rows) * h_in, 1.0f, rng);
      const auto y0 = RandomGaussianVector(
          static_cast<std::size_t>(rows) * rank, 1.0f, rng);
      for (SimdLevel level : Levels()) {
        ScopedSimdLevel guard(level);
        std::vector<float> want = y0;
        ShrinkOracle(level, {want, x, ptrs, seg, h_in, rank});
        for (std::size_t c = 0; c < covers.size(); ++c) {
          std::vector<float> got = y0;
          const SgmvArgs run{got, x, ptrs, seg, h_in, rank};
          for (std::size_t i = 0; i + 1 < covers[c].size(); ++i) {
            SgmvShrinkRows(run, covers[c][i], covers[c][i + 1]);
          }
          for (std::int32_t r = 1; r < rows && c == 0; r += 11) {
            // An empty range touches nothing.
            SgmvShrinkRows(run, r, r);
          }
          ExpectBitEqual(got, want,
                         std::string(SimdLevelName(level)) + " h_in=" +
                             std::to_string(h_in) + " rank=" +
                             std::to_string(rank) + " cover " +
                             std::to_string(c));
        }
      }
    }
  }
}

// The addon's halves — LoraShrinkRows over row ranges, then LoraExpand —
// are BatchedLoraAddon bit for bit, with uniform and with mixed ranks
// (whose v rows sit at seg[i]·max_rank, stride rank_i).
TEST(SgmvBitExactTest, ShrinkRowsThenExpandMatchesBatchedAddon) {
  const std::vector<std::int32_t> seg = Offsets();
  const int rows = seg.back();
  const int h_in = 300, h_out = 200;
  ComputeContext ctx({.num_threads = 2});
  for (bool mixed : {false, true}) {
    const int ranks[] = {4, 8, 16, 8, 4, 16, 8};
    std::vector<LoraAB> adapters;
    std::vector<const LoraAB*> ptrs;
    for (std::size_t s = 0; s < kSegLengths.size(); ++s) {
      adapters.push_back(LoraAB::Random(h_in, h_out, mixed ? ranks[s] : 16,
                                        600 + static_cast<std::uint64_t>(s)));
    }
    for (std::size_t s = 0; s < adapters.size(); ++s) {
      ptrs.push_back(kSegHasWeight[s] ? &adapters[s] : nullptr);
    }
    Pcg32 rng(mixed ? 78 : 79);
    const auto x = RandomGaussianVector(
        static_cast<std::size_t>(rows) * h_in, 1.0f, rng);
    const auto y0 = RandomGaussianVector(
        static_cast<std::size_t>(rows) * h_out, 1.0f, rng);
    std::vector<float> workspace(static_cast<std::size_t>(rows) * 16 *
                                 (1 + kMaxSplitKPartitions));
    for (SimdLevel level : Levels()) {
      ScopedSimdLevel guard(level);
      std::vector<float> want = y0;
      BatchedLoraAddon(want, x, ptrs, seg, h_in, h_out, workspace, ctx);
      for (std::int32_t step : {1, 5, rows}) {
        std::vector<float> v(static_cast<std::size_t>(rows) * 16, NAN);
        for (std::int32_t lo = 0; lo < rows; lo += step) {
          LoraShrinkRows(v, x, ptrs, seg, h_in, 16, lo,
                         std::min(rows, lo + step));
        }
        std::vector<float> got = y0;
        LoraExpand(got, v, ptrs, seg, h_out, 16, ctx);
        ExpectBitEqual(got, want,
                       std::string(SimdLevelName(level)) +
                           (mixed ? " mixed" : " uniform") + " step " +
                           std::to_string(step));
      }
    }
  }
}

}  // namespace
}  // namespace punica
