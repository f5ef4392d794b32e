// The groupwise quantization substrate: block layout/packing, round-trip
// exactness on representable values, tail-block padding, degenerate-scale
// handling (all-zero and subnormal-maximum groups must never produce
// NaN/inf), and agreement between the fused quant GEMM kernels and an
// explicit dequantize-then-GEMM reference on the scalar path (bit-exact —
// dequant is exact in f32 and the scalar kernels run the reference's
// per-element operations in the same order).
#include "tensor/quant.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/simd.h"
#include "util/compute_context.h"
#include "util/rng.h"

namespace punica {
namespace {

TEST(QuantTest, WeightDtypeNames) {
  EXPECT_STREQ(WeightDtypeName(WeightDtype::kF16), "f16");
  EXPECT_STREQ(WeightDtypeName(WeightDtype::kQ8_0), "q8_0");
  EXPECT_STREQ(WeightDtypeName(WeightDtype::kQ4_0), "q4_0");
}

TEST(QuantTest, ParseWeightDtype) {
  WeightDtype d = WeightDtype::kF16;
  EXPECT_TRUE(ParseWeightDtype("q8_0", &d));
  EXPECT_EQ(d, WeightDtype::kQ8_0);
  EXPECT_TRUE(ParseWeightDtype("q4", &d));
  EXPECT_EQ(d, WeightDtype::kQ4_0);
  EXPECT_TRUE(ParseWeightDtype("f16", &d));
  EXPECT_EQ(d, WeightDtype::kF16);
  d = WeightDtype::kQ8_0;
  EXPECT_FALSE(ParseWeightDtype("int8", &d));
  EXPECT_EQ(d, WeightDtype::kQ8_0) << "failed parse must not clobber *out";
}

TEST(QuantTest, WeightBytesForScalesByDtype) {
  // 64 params = 2 blocks: f16 128 B, q8 68 B, q4 36 B.
  EXPECT_EQ(WeightBytesFor(64, WeightDtype::kF16), 128);
  EXPECT_EQ(WeightBytesFor(64, WeightDtype::kQ8_0), 68);
  EXPECT_EQ(WeightBytesFor(64, WeightDtype::kQ4_0), 36);
  EXPECT_EQ(WeightBytesFor(0, WeightDtype::kQ8_0), 0);
}

TEST(QuantTest, Q8RoundTripExactOnRepresentableValues) {
  // Values of the form d * q with d an exact power of two and |q| ≤ 127
  // survive quantization exactly: amax/127 rounds to a nearby f16, but a
  // group whose amax IS 127·2^e yields d = 2^e exactly, and every d·q is
  // then an exact f16-scale × int8 product.
  std::vector<float> xs(kQuantBlock);
  const float d = 0.03125f;  // 2^-5
  for (std::int64_t i = 0; i < kQuantBlock; ++i) {
    int q = static_cast<int>(i * 8) - 127;  // spans [-127, 121], hits ±127
    if (q > 127) q = 127;
    xs[static_cast<std::size_t>(i)] = d * static_cast<float>(q);
  }
  xs[0] = d * -127.0f;
  xs[1] = d * 127.0f;  // amax = 127·2^-5 → scale exactly 2^-5
  std::vector<BlockQ8_0> blocks(1);
  QuantizeRowQ8(xs, blocks.data());
  EXPECT_EQ(blocks[0].scale.ToFloat(), d);
  std::vector<float> back(kQuantBlock);
  DequantRowQ8Ref(blocks.data(), back);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(back[i], xs[i]) << "element " << i;
  }
}

TEST(QuantTest, Q4PackingPutsElementJLowAndJPlus16High) {
  // Construct a group whose quantized codes are known: amax at x[0] = -8d
  // (code 0), x[16] = +7d (code 15), zeros elsewhere (code 8).
  const float d = 0.25f;
  std::vector<float> xs(kQuantBlock, 0.0f);
  xs[0] = -8.0f * d;   // the signed max → d = (-8d)/-8 = d, code 0
  xs[16] = 7.0f * d;   // code 15
  std::vector<BlockQ4_0> blocks(1);
  QuantizeRowQ4(xs, blocks.data());
  EXPECT_EQ(blocks[0].scale.ToFloat(), d);
  // Byte 0: element 0 (code 0) in the LOW nibble, element 16 (code 15) in
  // the HIGH nibble.
  EXPECT_EQ(blocks[0].qs[0], 0xF0);
  for (int j = 1; j < kQuantBlock / 2; ++j) {
    EXPECT_EQ(blocks[0].qs[j], 0x88) << "byte " << j;
  }
  std::vector<float> back(kQuantBlock);
  DequantRowQ4Ref(blocks.data(), back);
  EXPECT_EQ(back[0], -8.0f * d);
  EXPECT_EQ(back[16], 7.0f * d);
  for (std::size_t i = 0; i < back.size(); ++i) {
    if (i != 0 && i != 16) {
      EXPECT_EQ(back[i], 0.0f) << i;
    }
  }
}

TEST(QuantTest, TailBlockPadsWithZeroCodes) {
  // n = 40: the second block holds 8 real elements + 24 pad codes that
  // must dequantize to exactly 0 (q8: code 0; q4: code 8).
  const std::size_t n = 40;
  Pcg32 rng(77);
  auto xs = RandomGaussianVector(n, 1.0f, rng);
  std::vector<BlockQ8_0> q8(QuantBlocksPerRow(static_cast<std::int64_t>(n)));
  std::vector<BlockQ4_0> q4(q8.size());
  QuantizeRowQ8(xs, q8.data());
  QuantizeRowQ4(xs, q4.data());
  ASSERT_EQ(q8.size(), 2u);
  for (std::int64_t i = 8; i < kQuantBlock; ++i) {
    EXPECT_EQ(q8[1].qs[i], 0) << "q8 pad code " << i;
  }
  // q4 pad: elements 8..15 (low nibbles of bytes 8..15) and all of 16..31
  // (high nibbles) are code 8; bytes 8..15 are exactly 0x88.
  for (int j = 8; j < kQuantBlock / 2; ++j) {
    EXPECT_EQ(q4[1].qs[j], 0x88) << "q4 pad byte " << j;
  }
  for (int j = 0; j < 8; ++j) {
    EXPECT_EQ(q4[1].qs[j] >> 4, 8) << "q4 pad high nibble " << j;
  }
  // Full padded-width dequant reads back zeros past n.
  std::vector<float> back(2 * kQuantBlock);
  DequantRowQ8Ref(q8.data(), back);
  for (std::size_t i = n; i < back.size(); ++i) EXPECT_EQ(back[i], 0.0f);
  DequantRowQ4Ref(q4.data(), back);
  for (std::size_t i = n; i < back.size(); ++i) EXPECT_EQ(back[i], 0.0f);
}

TEST(QuantTest, AllZeroGroupStoresZeroScaleAndDequantsToZero) {
  std::vector<float> xs(kQuantBlock, 0.0f);
  std::vector<BlockQ8_0> q8(1);
  std::vector<BlockQ4_0> q4(1);
  QuantizeRowQ8(xs, q8.data());
  QuantizeRowQ4(xs, q4.data());
  EXPECT_EQ(q8[0].scale.ToFloat(), 0.0f);
  EXPECT_EQ(q4[0].scale.ToFloat(), 0.0f);
  std::vector<float> back(kQuantBlock, 123.0f);
  DequantRowQ8Ref(q8.data(), back);
  for (float v : back) EXPECT_EQ(v, 0.0f);
  back.assign(kQuantBlock, 123.0f);
  DequantRowQ4Ref(q4.data(), back);
  for (float v : back) EXPECT_EQ(v, 0.0f);
  // Accumulating a zero-scale block must also be an exact no-op.
  const std::vector<float> x = {2.0f};
  std::vector<float> y(kQuantBlock, 0.5f);
  GemmAccQW(x, std::span<const BlockQ8_0>(q8), y, 1, 1, kQuantBlock);
  GemmAccQW(x, std::span<const BlockQ4_0>(q4), y, 1, 1, kQuantBlock);
  for (float v : y) EXPECT_EQ(v, 0.5f);
}

TEST(QuantTest, SubnormalMaximaNeverProduceNanOrInf) {
  // A group whose amax underflows the f16 scale (amax/127 < 2^-24) must
  // store scale 0 and zero codes — dividing by the rounded-to-zero scale
  // would otherwise make inf/NaN codes.
  std::vector<float> xs(kQuantBlock, 0.0f);
  xs[3] = std::numeric_limits<float>::denorm_min();
  xs[9] = -1e-30f;
  std::vector<BlockQ8_0> q8(1);
  std::vector<BlockQ4_0> q4(1);
  QuantizeRowQ8(xs, q8.data());
  QuantizeRowQ4(xs, q4.data());
  std::vector<float> back(kQuantBlock);
  DequantRowQ8Ref(q8.data(), back);
  for (float v : back) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_EQ(v, 0.0f);
  }
  DequantRowQ4Ref(q4.data(), back);
  for (float v : back) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_EQ(v, 0.0f);
  }
}

TEST(QuantTest, WeightMatrixShapesAndBytes) {
  Pcg32 rng(5);
  Tensor<f16> w({7, 100});  // 100 cols → 4 blocks/row (tail-padded)
  for (auto& v : w.data()) {
    v = f16(static_cast<float>(rng.NextGaussian()));
  }
  Tensor<f16> copy({7, 100});
  std::copy(w.data().begin(), w.data().end(), copy.data().begin());
  WeightMatrix q8 = WeightMatrix::FromF16(std::move(w), WeightDtype::kQ8_0);
  EXPECT_EQ(q8.rows(), 7);
  EXPECT_EQ(q8.cols(), 100);
  EXPECT_EQ(q8.blocks_per_row(), 4);
  EXPECT_EQ(q8.byte_size(), 7u * 4u * sizeof(BlockQ8_0));
  WeightMatrix q4 = WeightMatrix::FromF16(std::move(copy),
                                          WeightDtype::kQ4_0);
  EXPECT_EQ(q4.byte_size(), 7u * 4u * sizeof(BlockQ4_0));
  // DequantRow returns the same values as the row-level reference.
  std::vector<float> row(100);
  q8.DequantRow(6, row);
  std::vector<float> padded(4 * kQuantBlock);
  DequantRowQ8Ref(q8.q8_data().data() + 6 * 4, padded);
  for (std::size_t i = 0; i < row.size(); ++i) EXPECT_EQ(row[i], padded[i]);
}

TEST(QuantTest, ScalarFusedGemmMatchesExplicitDequantReference) {
  // On the scalar path the fused kernels perform exactly the reference's
  // per-element operations in the same ascending-k order, so GemmAccW over
  // quantized weights is bit-identical to GemmAcc over the dequantized f32
  // matrix. (Vector paths are covered by simd_test's tolerance suite.)
  ScopedSimdLevel guard(SimdLevel::kScalar);
  ComputeContext ctx({.num_threads = 2});
  Pcg32 rng(2028);
  const int m = 5, k = 37, n = 129;  // k and n straddle block boundaries
  auto x = RandomGaussianVector(static_cast<std::size_t>(m) * k, 1.0f, rng);
  for (WeightDtype dtype : {WeightDtype::kQ8_0, WeightDtype::kQ4_0}) {
    Tensor<f16> wf({k, n});
    for (auto& v : wf.data()) {
      v = f16(static_cast<float>(rng.NextGaussian()) * 0.1f);
    }
    WeightMatrix w = WeightMatrix::FromF16(std::move(wf), dtype);
    // Dequantized f32 reference matrix.
    std::vector<float> wref(static_cast<std::size_t>(k) * n);
    std::vector<float> rowbuf(static_cast<std::size_t>(n));
    for (int p = 0; p < k; ++p) {
      w.DequantRow(p, rowbuf);
      std::copy(rowbuf.begin(), rowbuf.end(),
                wref.begin() + static_cast<std::size_t>(p) * n);
    }
    // Naive reference with the kernels' ascending-k per-element order.
    // Neither this TU nor the scalar kernels are compiled with FMA, so no
    // contraction can perturb either side: bit-equality is exact.
    auto naive_acc = [&](std::span<float> y, int rows) {
      for (int i = 0; i < rows; ++i) {
        for (int p = 0; p < k; ++p) {
          float xv = x[static_cast<std::size_t>(i) * k + p];
          for (int j = 0; j < n; ++j) {
            y[static_cast<std::size_t>(i) * n + j] +=
                xv * wref[static_cast<std::size_t>(p) * n + j];
          }
        }
      }
    };
    std::vector<float> y_fused(static_cast<std::size_t>(m) * n, 0.25f);
    std::vector<float> y_ref = y_fused;
    GemmAccW(x, w, y_fused, m, k, n, ctx);
    naive_acc(y_ref, m);
    for (std::size_t i = 0; i < y_ref.size(); ++i) {
      ASSERT_EQ(y_fused[i], y_ref[i])
          << WeightDtypeName(dtype) << " element " << i;
    }
    // And a single row (m=1, the decode shape) agrees too.
    std::vector<float> yv_fused(static_cast<std::size_t>(n), -1.0f);
    std::vector<float> yv_ref = yv_fused;
    GemmAccW(std::span<const float>(x).first(static_cast<std::size_t>(k)),
             w, yv_fused, 1, k, n, ctx);
    naive_acc(yv_ref, 1);
    for (std::size_t i = 0; i < yv_ref.size(); ++i) {
      ASSERT_EQ(yv_fused[i], yv_ref[i])
          << WeightDtypeName(dtype) << " m=1 element " << i;
    }
  }
}

namespace {

// Random quantized [rows, cols] matrix plus a retained f16 master copy, the
// shard-alignment fixture: slices of the quantized matrix are compared
// against quantizing slices of the master.
struct SliceFixture {
  Tensor<f16> master;
  WeightMatrix q;
};

SliceFixture MakeSliceFixture(std::int64_t rows, std::int64_t cols,
                              WeightDtype dtype, std::uint64_t seed) {
  Pcg32 rng(seed);
  SliceFixture f;
  f.master = Tensor<f16>({rows, cols});
  for (auto& v : f.master.data()) {
    v = f16(static_cast<float>(rng.NextGaussian()) * 0.2f);
  }
  Tensor<f16> copy({rows, cols});
  std::copy(f.master.data().begin(), f.master.data().end(),
            copy.data().begin());
  f.q = WeightMatrix::FromF16(std::move(copy), dtype);
  return f;
}

Tensor<f16> SliceMaster(const Tensor<f16>& m, std::int64_t r0, std::int64_t r1,
                        std::int64_t c0, std::int64_t c1) {
  Tensor<f16> out({r1 - r0, c1 - c0});
  for (std::int64_t i = r0; i < r1; ++i) {
    auto src = m.row(i);
    auto dst = out.row(i - r0);
    std::copy(src.begin() + c0, src.begin() + c1, dst.begin());
  }
  return out;
}

bool SameBlocks(const WeightMatrix& a, const WeightMatrix& b) {
  if (a.dtype() != b.dtype() || a.rows() != b.rows() || a.cols() != b.cols()) {
    return false;
  }
  if (a.dtype() == WeightDtype::kQ8_0) {
    return a.q8_data().size() == b.q8_data().size() &&
           std::memcmp(a.q8_data().data(), b.q8_data().data(),
                       a.q8_data().size() * sizeof(BlockQ8_0)) == 0;
  }
  return a.q4_data().size() == b.q4_data().size() &&
         std::memcmp(a.q4_data().data(), b.q4_data().data(),
                     a.q4_data().size() * sizeof(BlockQ4_0)) == 0;
}

}  // namespace

// The shard-alignment contract the tensor-parallel split relies on: blocks
// run along the column dimension, so ROW slices (the O/Down row-parallel
// seams, and LoRA A row slices at any adapter rank — including ranks not
// divisible by tp) are bit-exact at ANY boundary: quantize-then-slice
// equals slice-then-quantize.
TEST(QuantSliceTest, RowSlicesAreBitExactAtAnyBoundary) {
  for (WeightDtype dtype : {WeightDtype::kQ8_0, WeightDtype::kQ4_0}) {
    SliceFixture f = MakeSliceFixture(96, 64, dtype, 41);
    // Deliberately non-block-aligned row boundaries (rows 5..71): row
    // slices never touch block geometry.
    WeightMatrix sliced = f.q.SliceRows(5, 71);
    WeightMatrix ref = WeightMatrix::FromF16(
        SliceMaster(f.master, 5, 71, 0, 64), dtype);
    EXPECT_TRUE(SameBlocks(sliced, ref)) << WeightDtypeName(dtype);
  }
}

TEST(QuantSliceTest, AlignedColumnSlicesAreBitExact) {
  for (WeightDtype dtype : {WeightDtype::kQ8_0, WeightDtype::kQ4_0}) {
    SliceFixture f = MakeSliceFixture(16, 128, dtype, 43);
    // 32-block-aligned column window [32, 96): whole blocks copy over.
    WeightMatrix sliced = f.q.SliceCols(32, 96);
    WeightMatrix ref = WeightMatrix::FromF16(
        SliceMaster(f.master, 0, 16, 32, 96), dtype);
    EXPECT_TRUE(SameBlocks(sliced, ref)) << WeightDtypeName(dtype);
  }
}

TEST(QuantSliceTest, TailPaddedWidthSlicesToTheLastShard) {
  // A 100-wide q8 matrix has a padded tail block; the final column shard
  // [64, 100) carries it (col_end == cols is allowed off-boundary).
  SliceFixture f = MakeSliceFixture(4, 100, WeightDtype::kQ8_0, 47);
  WeightMatrix sliced = f.q.SliceCols(64, 100);
  EXPECT_EQ(sliced.cols(), 36);
  EXPECT_EQ(sliced.blocks_per_row(), 2);
  WeightMatrix ref = WeightMatrix::FromF16(
      SliceMaster(f.master, 0, 4, 64, 100), WeightDtype::kQ8_0);
  EXPECT_TRUE(SameBlocks(sliced, ref));
}

TEST(QuantSliceTest, F16SlicesAtAnyBoundary) {
  // The f16 path has no block constraint — mid-"block" column slices are
  // exact element copies (this is why f16 LoRA adapters shard at any seam
  // without a requantization exemption).
  SliceFixture f = MakeSliceFixture(8, 64, WeightDtype::kQ8_0, 49);
  WeightMatrix wf16 = WeightMatrix::FromF16(
      SliceMaster(f.master, 0, 8, 0, 64), WeightDtype::kF16);
  WeightMatrix sliced = wf16.SliceCols(10, 23);
  for (std::int64_t i = 0; i < 8; ++i) {
    for (std::int64_t j = 0; j < 13; ++j) {
      EXPECT_TRUE(sliced.at({i, j}) == f.master.at({i, j + 10}));
    }
  }
  WeightMatrix rows = wf16.SliceRows(3, 6);
  EXPECT_EQ(rows.rows(), 3);
  EXPECT_TRUE(rows.at({0, 0}) == f.master.at({3, 0}));
}

TEST(QuantSliceTest, RequantizeMatchesDirectQuantization) {
  SliceFixture f = MakeSliceFixture(8, 64, WeightDtype::kQ8_0, 53);
  WeightMatrix wf16 = WeightMatrix::FromF16(
      SliceMaster(f.master, 0, 8, 0, 64), WeightDtype::kF16);
  EXPECT_TRUE(SameBlocks(wf16.Requantize(WeightDtype::kQ8_0), f.q));
}

TEST(QuantSliceDeathTest, MisalignedQuantizedColumnSliceAborts) {
  // A mid-block column split would require requantization with different
  // per-group extrema — a silent precision change — so the slicer refuses.
  // (The tp shard path hits this only when a quantized seam lands mid-block,
  // e.g. TinyLlama q8_0 at tp=4; ShardLayer requantizes the f16 master
  // instead, the documented exemption.)
  SliceFixture q8 = MakeSliceFixture(4, 64, WeightDtype::kQ8_0, 59);
  EXPECT_DEATH(q8.q.SliceCols(16, 48), "boundary");
  EXPECT_DEATH(q8.q.SliceCols(0, 48), "boundary");
  SliceFixture q4 = MakeSliceFixture(4, 64, WeightDtype::kQ4_0, 61);
  EXPECT_DEATH(q4.q.SliceCols(8, 40), "boundary");
}

TEST(QuantSliceDeathTest, RequantizingAQuantizedMatrixAborts) {
  SliceFixture f = MakeSliceFixture(4, 64, WeightDtype::kQ8_0, 67);
  EXPECT_DEATH(f.q.Requantize(WeightDtype::kQ4_0), "f16 master");
}

TEST(QuantTest, QuantizationIsDeterministicInTheF16Bits) {
  Pcg32 rng(99);
  auto xs = RandomGaussianVector(256, 2.0f, rng);
  std::vector<BlockQ8_0> a(QuantBlocksPerRow(256)), b(QuantBlocksPerRow(256));
  QuantizeRowQ8(xs, a.data());
  QuantizeRowQ8(xs, b.data());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        a.size() * sizeof(BlockQ8_0)), 0);
  std::vector<BlockQ4_0> c(QuantBlocksPerRow(256)), d(QuantBlocksPerRow(256));
  QuantizeRowQ4(xs, c.data());
  QuantizeRowQ4(xs, d.data());
  EXPECT_EQ(std::memcmp(c.data(), d.data(),
                        c.size() * sizeof(BlockQ4_0)), 0);
}

}  // namespace
}  // namespace punica
