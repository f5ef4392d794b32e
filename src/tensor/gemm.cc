#include "tensor/gemm.h"

#include <algorithm>
#include <cmath>

#include "tensor/simd.h"
#include "tensor/simd_exp.h"
#include "util/check.h"

namespace punica {
namespace {

// Blocking parameters. A task is one (row block, column tile) pair handed
// whole to the SIMD layer's register-tiled micro-kernel (SimdOps::gemm_tile),
// which runs the complete k loop in order for every element, so the tile
// sizes affect only locality and scheduling, never numerics.
constexpr int kRowBlock = kGemmTileRows;
constexpr int kColTile = 128;

// Column tiles must start on quant-block boundaries so the quantized
// kernels can address stripes as whole blocks.
static_assert(kColTile % kQuantBlock == 0);

inline std::int64_t CeilDiv(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

// Per-element-type glue: the tile kind, and how many W columns one stored
// element covers (a quantized block covers kQuantBlock; column tiles start
// at multiples of kColTile, hence on block boundaries).
template <typename WElem>
struct WStripe;

template <>
struct WStripe<float> {
  static constexpr TileWeight kKind = TileWeight::kF32;
  static constexpr std::int64_t kCols = 1;
};

template <>
struct WStripe<f16> {
  static constexpr TileWeight kKind = TileWeight::kF16;
  static constexpr std::int64_t kCols = 1;
};

template <>
struct WStripe<BlockQ8_0> {
  static constexpr TileWeight kKind = TileWeight::kQ8_0;
  static constexpr std::int64_t kCols = kQuantBlock;
};

template <>
struct WStripe<BlockQ4_0> {
  static constexpr TileWeight kKind = TileWeight::kQ4_0;
  static constexpr std::int64_t kCols = kQuantBlock;
};

// Shared blocked kernel: y[rb, jt] (+)= x[rb, :] @ w[:, jt] for every
// (kRowBlock rows, kColTile columns) task, each handed whole to gemm_tile.
// The micro-kernel keeps a block of y in registers across the k loop,
// decodes each W element once per row block and software-prefetches W
// ahead of the k loop; per element it runs one reduction in ascending k
// (see SimdOps::gemm_tile for the exact operation per dispatch level), so
// a row's bits never depend on which rows share its block. No sparsity
// branch: on the dense activations this path serves, testing every x
// value poisons the vector inner loop and mispredicts.
template <typename WElem, bool kAccumulate>
void GemmBlocked(std::span<const float> x, std::span<const WElem> w,
                 std::span<float> y, int m, int k, int n,
                 const ComputeContext& ctx) {
  using Stripe = WStripe<WElem>;
  // W row stride in stored elements (blocks for quantized W).
  const auto ldw = static_cast<std::size_t>(CeilDiv(n, Stripe::kCols));
  PUNICA_CHECK(x.size() == static_cast<std::size_t>(m) * k);
  PUNICA_CHECK(w.size() == static_cast<std::size_t>(k) * ldw);
  PUNICA_CHECK(y.size() == static_cast<std::size_t>(m) * n);
  if (m == 0 || n == 0) return;

  const SimdOps& ops = Simd();
  const std::int64_t row_blocks = CeilDiv(m, kRowBlock);
  const std::int64_t col_tiles = CeilDiv(n, kColTile);
  ctx.ParallelFor(row_blocks * col_tiles, 1, [&](std::int64_t lo,
                                                 std::int64_t hi) {
    for (std::int64_t task = lo; task < hi; ++task) {
      const int i_lo = static_cast<int>(task / col_tiles) * kRowBlock;
      const int j_lo = static_cast<int>(task % col_tiles) * kColTile;
      ops.gemm_tile({.x = x.data() + static_cast<std::size_t>(i_lo) * k,
                     .ldx = static_cast<std::size_t>(k),
                     .w = w.data() + j_lo / Stripe::kCols,
                     .ldw = ldw,
                     .wkind = Stripe::kKind,
                     .y = y.data() + static_cast<std::size_t>(i_lo) * n + j_lo,
                     .ldy = static_cast<std::size_t>(n),
                     .rows = std::min(m - i_lo, kRowBlock),
                     .k = static_cast<std::size_t>(k),
                     .n = static_cast<std::size_t>(
                         std::min(n - j_lo, kColTile)),
                     .accumulate = kAccumulate});
    }
  });
}

}  // namespace

void GemmSet(std::span<const float> x, std::span<const float> w,
             std::span<float> y, int m, int k, int n,
             const ComputeContext& ctx) {
  GemmBlocked<float, /*kAccumulate=*/false>(x, w, y, m, k, n, ctx);
}

void GemmSetF16W(std::span<const float> x, std::span<const f16> w,
                 std::span<float> y, int m, int k, int n,
                 const ComputeContext& ctx) {
  GemmBlocked<f16, /*kAccumulate=*/false>(x, w, y, m, k, n, ctx);
}

void GemmAccF16W(std::span<const float> x, std::span<const f16> w,
                 std::span<float> y, int m, int k, int n,
                 const ComputeContext& ctx) {
  GemmBlocked<f16, /*kAccumulate=*/true>(x, w, y, m, k, n, ctx);
}

void GemmSetQW(std::span<const float> x, std::span<const BlockQ8_0> w,
               std::span<float> y, int m, int k, int n,
               const ComputeContext& ctx) {
  GemmBlocked<BlockQ8_0, /*kAccumulate=*/false>(x, w, y, m, k, n, ctx);
}

void GemmSetQW(std::span<const float> x, std::span<const BlockQ4_0> w,
               std::span<float> y, int m, int k, int n,
               const ComputeContext& ctx) {
  GemmBlocked<BlockQ4_0, /*kAccumulate=*/false>(x, w, y, m, k, n, ctx);
}

void GemmAccQW(std::span<const float> x, std::span<const BlockQ8_0> w,
               std::span<float> y, int m, int k, int n,
               const ComputeContext& ctx) {
  GemmBlocked<BlockQ8_0, /*kAccumulate=*/true>(x, w, y, m, k, n, ctx);
}

void GemmAccQW(std::span<const float> x, std::span<const BlockQ4_0> w,
               std::span<float> y, int m, int k, int n,
               const ComputeContext& ctx) {
  GemmBlocked<BlockQ4_0, /*kAccumulate=*/true>(x, w, y, m, k, n, ctx);
}

namespace {

// Shape guard shared by the WeightMatrix dispatch wrappers.
void CheckWShape(const WeightMatrix& w, int k, int n) {
  PUNICA_CHECK(w.rows() == k);
  PUNICA_CHECK(w.cols() == n);
}

}  // namespace

void GemmSetW(std::span<const float> x, const WeightMatrix& w,
              std::span<float> y, int m, int k, int n,
              const ComputeContext& ctx) {
  CheckWShape(w, k, n);
  switch (w.dtype()) {
    case WeightDtype::kF16:
      GemmSetF16W(x, w.f16_data(), y, m, k, n, ctx);
      return;
    case WeightDtype::kQ8_0:
      GemmSetQW(x, w.q8_data(), y, m, k, n, ctx);
      return;
    case WeightDtype::kQ4_0:
      GemmSetQW(x, w.q4_data(), y, m, k, n, ctx);
      return;
  }
}

void GemmAccW(std::span<const float> x, const WeightMatrix& w,
              std::span<float> y, int m, int k, int n,
              const ComputeContext& ctx) {
  CheckWShape(w, k, n);
  switch (w.dtype()) {
    case WeightDtype::kF16:
      GemmAccF16W(x, w.f16_data(), y, m, k, n, ctx);
      return;
    case WeightDtype::kQ8_0:
      GemmAccQW(x, w.q8_data(), y, m, k, n, ctx);
      return;
    case WeightDtype::kQ4_0:
      GemmAccQW(x, w.q4_data(), y, m, k, n, ctx);
      return;
  }
}

void SoftmaxInPlace(std::span<float> row) {
  if (row.empty()) return;
  float mx = *std::max_element(row.begin(), row.end());
  float sum = 0.0f;
  for (auto& v : row) {
    v = ExpF32(v - mx);
    sum += v;
  }
  float inv = 1.0f / sum;
  for (auto& v : row) v *= inv;
}

namespace {

/// Weight columns RmsNormRows decodes at a time.
constexpr std::size_t kNormChunk = 256;

/// R rows of RmsNormRows, interleaved: the R sums of squares are
/// independent add chains, and each weight chunk is decoded once (into
/// `w`, kNormChunk floats) for every row's contiguous scale loop.
template <int R>
void RmsNormBlock(const SimdOps& ops, const float* x, const f16* weight,
                  float* out, std::size_t h, float eps, float* w) {
  double ss[R] = {};
  for (std::size_t i = 0; i < h; ++i) {
    for (int r = 0; r < R; ++r) {
      const float v = x[r * h + i];
      ss[r] += static_cast<double>(v) * v;
    }
  }
  float scale[R];
  for (int r = 0; r < R; ++r) {
    scale[r] = 1.0f / std::sqrt(static_cast<float>(
                          ss[r] / static_cast<double>(h)) +
                      eps);
  }
  for (std::size_t i0 = 0; i0 < h; i0 += kNormChunk) {
    const std::size_t n = std::min(kNormChunk, h - i0);
    ops.half_to_float_n(weight + i0, w, n);
    for (int r = 0; r < R; ++r) {
      const float* xr = x + r * h + i0;
      float* yr = out + r * h + i0;
      for (std::size_t i = 0; i < n; ++i) yr[i] = xr[i] * scale[r] * w[i];
    }
  }
}

}  // namespace

void RmsNormRows(std::span<const float> x, std::span<const f16> weight,
                 std::span<float> out, float eps) {
  const std::size_t h = weight.size();
  PUNICA_CHECK(h > 0 && x.size() % h == 0);
  PUNICA_CHECK(x.size() == out.size());
  const SimdOps& ops = Simd();
  const std::size_t rows = x.size() / h;
  float w[kNormChunk];
  std::size_t r = 0;
  for (; r + 8 <= rows; r += 8) {
    RmsNormBlock<8>(ops, x.data() + r * h, weight.data(), out.data() + r * h,
                    h, eps, w);
  }
  for (; r < rows; ++r) {
    RmsNormBlock<1>(ops, x.data() + r * h, weight.data(), out.data() + r * h,
                    h, eps, w);
  }
}

void RmsNormRow(std::span<const float> x, std::span<const f16> weight,
                std::span<float> out, float eps) {
  PUNICA_CHECK(x.size() == weight.size());
  RmsNormRows(x, weight, out, eps);
}

}  // namespace punica
