#include "tensor/gemm.h"

#include <algorithm>
#include <cmath>

#include "tensor/simd.h"
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

// Per-element-type glue: the tile kind, how the W k-stripe of row p
// starting at column j_lo is addressed, the W row stride in the units the
// tile expects, and the fused single-row axpy the Gemv kernels use. The
// quantized stripes are addressed in blocks (j_lo is always a multiple of
// kColTile, hence block-aligned).
template <typename WElem>
struct WStripe;

template <>
struct WStripe<float> {
  static constexpr TileWeight kKind = TileWeight::kF32;
  static const float* Ptr(const float* w, std::int64_t /*stride*/,
                          std::int64_t p, int j_lo, std::int64_t n) {
    return w + p * n + j_lo;
  }
  static std::size_t Count(int k, int n) {
    return static_cast<std::size_t>(k) * n;
  }
  static std::size_t RowStride(int n) { return static_cast<std::size_t>(n); }
};

template <>
struct WStripe<f16> {
  static constexpr TileWeight kKind = TileWeight::kF16;
  static const f16* Ptr(const f16* w, std::int64_t /*stride*/, std::int64_t p,
                        int j_lo, std::int64_t n) {
    return w + p * n + j_lo;
  }
  static std::size_t Count(int k, int n) {
    return static_cast<std::size_t>(k) * n;
  }
  static std::size_t RowStride(int n) { return static_cast<std::size_t>(n); }
  static void Axpy(const SimdOps& ops, float a, const f16* wp, float* y,
                   std::size_t width) {
    ops.axpy_f16(a, wp, y, width);
  }
};

template <>
struct WStripe<BlockQ8_0> {
  static constexpr TileWeight kKind = TileWeight::kQ8_0;
  static const BlockQ8_0* Ptr(const BlockQ8_0* w, std::int64_t bpr,
                              std::int64_t p, int j_lo, std::int64_t /*n*/) {
    return w + p * bpr + j_lo / kQuantBlock;
  }
  static std::size_t Count(int k, int n) {
    return static_cast<std::size_t>(k) * QuantBlocksPerRow(n);
  }
  static std::size_t RowStride(int n) {
    return static_cast<std::size_t>(QuantBlocksPerRow(n));
  }
  static void Axpy(const SimdOps& ops, float a, const BlockQ8_0* wp, float* y,
                   std::size_t width) {
    ops.axpy_q8(a, wp, y, width);
  }
};

template <>
struct WStripe<BlockQ4_0> {
  static constexpr TileWeight kKind = TileWeight::kQ4_0;
  static const BlockQ4_0* Ptr(const BlockQ4_0* w, std::int64_t bpr,
                              std::int64_t p, int j_lo, std::int64_t /*n*/) {
    return w + p * bpr + j_lo / kQuantBlock;
  }
  static std::size_t Count(int k, int n) {
    return static_cast<std::size_t>(k) * QuantBlocksPerRow(n);
  }
  static std::size_t RowStride(int n) {
    return static_cast<std::size_t>(QuantBlocksPerRow(n));
  }
  static void Axpy(const SimdOps& ops, float a, const BlockQ4_0* wp, float* y,
                   std::size_t width) {
    ops.axpy_q4(a, wp, y, width);
  }
};

// Shared blocked kernel: y[rb, jt] (+)= x[rb, :] @ w[:, jt] for every
// (kRowBlock rows, kColTile columns) task, each handed whole to gemm_tile.
// The micro-kernel keeps a block of y in registers across the k loop,
// decodes each W element once per row block and software-prefetches W
// ahead of the k loop; per element it runs one reduction in ascending k
// (see SimdOps::gemm_tile for the exact operation per dispatch level), so
// a row's bits never depend on which rows share its block. No sparsity
// branch: on the dense activations this path serves, testing every x
// value poisons the vector inner loop and mispredicts — row-granular
// skipping lives in the Gemv kernels where a hit elides a whole stripe.
template <typename WElem, bool kAccumulate>
void GemmBlocked(std::span<const float> x, std::span<const WElem> w,
                 std::span<float> y, int m, int k, int n,
                 const ComputeContext& ctx) {
  using Stripe = WStripe<WElem>;
  PUNICA_CHECK(x.size() == static_cast<std::size_t>(m) * k);
  PUNICA_CHECK(w.size() == Stripe::Count(k, n));
  PUNICA_CHECK(y.size() == static_cast<std::size_t>(m) * n);
  if (m == 0 || n == 0) return;

  const SimdOps& ops = Simd();
  const std::int64_t bpr = QuantBlocksPerRow(n);
  const std::int64_t row_blocks = CeilDiv(m, kRowBlock);
  const std::int64_t col_tiles = CeilDiv(n, kColTile);
  ctx.ParallelFor(row_blocks * col_tiles, 1, [&](std::int64_t lo,
                                                 std::int64_t hi) {
    for (std::int64_t task = lo; task < hi; ++task) {
      const int i_lo = static_cast<int>(task / col_tiles) * kRowBlock;
      const int j_lo = static_cast<int>(task % col_tiles) * kColTile;
      ops.gemm_tile({.x = x.data() + static_cast<std::size_t>(i_lo) * k,
                     .ldx = static_cast<std::size_t>(k),
                     .w = Stripe::Ptr(w.data(), bpr, 0, j_lo, n),
                     .ldw = Stripe::RowStride(n),
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

// Single-row y += x @ W over any decoded element type, parallel over column
// tiles, with the zero-activation stripe skip.
template <typename WElem>
void GemvBlocked(std::span<const float> x, std::span<const WElem> w,
                 std::span<float> y, int k, int n, const ComputeContext& ctx) {
  using Stripe = WStripe<WElem>;
  PUNICA_CHECK(x.size() == static_cast<std::size_t>(k));
  PUNICA_CHECK(w.size() == Stripe::Count(k, n));
  PUNICA_CHECK(y.size() == static_cast<std::size_t>(n));
  if (n == 0) return;
  const SimdOps& ops = Simd();
  const std::int64_t bpr = QuantBlocksPerRow(n);
  // One tile per thread, as wide as possible (block-aligned so quantized
  // stripes stay whole blocks). Narrow tiles re-walk the row-major W with a
  // multi-KB stride between consecutive k rows, which defeats the hardware
  // prefetcher and leaves the single-row kernel latency-bound; a
  // thread-wide tile streams its W columns near-sequentially. The width
  // never affects numerics: each y element's k-reduction runs complete and
  // ascending inside its one tile at any width, so outputs stay
  // bit-identical across thread counts.
  const std::int64_t threads = std::max(1, ctx.num_threads());
  const std::int64_t tile_cols =
      CeilDiv(CeilDiv(static_cast<std::int64_t>(n), threads), kQuantBlock) *
      kQuantBlock;
  const std::int64_t col_tiles = CeilDiv(n, tile_cols);
  ctx.ParallelFor(col_tiles, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t tile = lo; tile < hi; ++tile) {
      const int j_lo = static_cast<int>(tile * tile_cols);
      const int j_hi = static_cast<int>(
          std::min<std::int64_t>(n, j_lo + tile_cols));
      const auto tile_w = static_cast<std::size_t>(j_hi - j_lo);
      for (int p = 0; p < k; ++p) {
        const float xv = x[static_cast<std::size_t>(p)];
        // Row-granular sparsity skip: with one x row, a zero activation
        // elides the decode + FMA of an entire W stripe, which pays (unlike
        // the per-row test inside the dense GEMM block).
        if (xv == 0.0f) continue;
        Stripe::Axpy(ops, xv, Stripe::Ptr(w.data(), bpr, p, j_lo, n),
                     &y[static_cast<std::size_t>(j_lo)], tile_w);
      }
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

void GemvAccF16W(std::span<const float> x, std::span<const f16> w,
                 std::span<float> y, int k, int n,
                 const ComputeContext& ctx) {
  GemvBlocked<f16>(x, w, y, k, n, ctx);
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

void GemvAccQW(std::span<const float> x, std::span<const BlockQ8_0> w,
               std::span<float> y, int k, int n, const ComputeContext& ctx) {
  GemvBlocked<BlockQ8_0>(x, w, y, k, n, ctx);
}

void GemvAccQW(std::span<const float> x, std::span<const BlockQ4_0> w,
               std::span<float> y, int k, int n, const ComputeContext& ctx) {
  GemvBlocked<BlockQ4_0>(x, w, y, k, n, ctx);
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

void GemvAccW(std::span<const float> x, const WeightMatrix& w,
              std::span<float> y, int k, int n, const ComputeContext& ctx) {
  CheckWShape(w, k, n);
  switch (w.dtype()) {
    case WeightDtype::kF16:
      GemvAccF16W(x, w.f16_data(), y, k, n, ctx);
      return;
    case WeightDtype::kQ8_0:
      GemvAccQW(x, w.q8_data(), y, k, n, ctx);
      return;
    case WeightDtype::kQ4_0:
      GemvAccQW(x, w.q4_data(), y, k, n, ctx);
      return;
  }
}

void SoftmaxInPlace(std::span<float> row) {
  if (row.empty()) return;
  float mx = *std::max_element(row.begin(), row.end());
  float sum = 0.0f;
  for (auto& v : row) {
    v = std::exp(v - mx);
    sum += v;
  }
  float inv = 1.0f / sum;
  for (auto& v : row) v *= inv;
}

void RmsNormRow(std::span<const float> x, std::span<const f16> weight,
                std::span<float> out, float eps) {
  PUNICA_CHECK(x.size() == weight.size());
  PUNICA_CHECK(x.size() == out.size());
  double ss = 0.0;
  for (float v : x) ss += static_cast<double>(v) * v;
  float scale = 1.0f / std::sqrt(static_cast<float>(
                           ss / static_cast<double>(x.size())) +
                       eps);
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = x[i] * scale * weight[i].ToFloat();
  }
}

void SiluInPlace(std::span<float> xs) {
  for (auto& v : xs) {
    v = v / (1.0f + std::exp(-v));
  }
}

}  // namespace punica
