#include "core/sgmv.h"

#include <algorithm>
#include <memory>

#include "tensor/simd.h"
#include "util/check.h"

namespace punica {
namespace {

void ValidateArgs(const SgmvArgs& a) {
  PUNICA_CHECK(a.h_in > 0 && a.h_out > 0);
  PUNICA_CHECK(!a.seg.empty());
  PUNICA_CHECK(a.seg.front() == 0);
  PUNICA_CHECK(a.weights.size() + 1 == a.seg.size());
  int rows = a.seg.back();
  PUNICA_CHECK(a.x.size() ==
               static_cast<std::size_t>(rows) * static_cast<std::size_t>(a.h_in));
  PUNICA_CHECK(a.y.size() == static_cast<std::size_t>(rows) *
                                 static_cast<std::size_t>(a.h_out));
  for (std::size_t i = 0; i + 1 < a.seg.size(); ++i) {
    PUNICA_CHECK_MSG(a.seg[i] <= a.seg[i + 1], "segment offsets must be "
                                               "non-decreasing");
  }
}

// The weight pointer covering `row` — the gather the GPU kernel performs
// per thread block. A binary search over the (non-decreasing) offsets so
// parallel tasks can be indexed by row with no allocation: the last
// segment starting at or before `row` is the non-empty one covering it.
const f16* WeightForRow(const SgmvArgs& a, std::int64_t row) {
  auto it = std::upper_bound(a.seg.begin(), a.seg.end(), row);
  auto s = static_cast<std::size_t>(it - a.seg.begin()) - 1;
  return a.weights[s];  // nullptr = backbone-only segment
}

// Row blocks: both schedules tile the batch rows in kRowBlock-aligned
// groups, and a group splits further at every segment boundary inside it,
// so a tile's rows always share one weight matrix. The group index is the
// task index — no per-call list of blocks is built.
constexpr int kRowBlock = kGemmTileRows;

/// Calls fn(row_lo, row_hi, w) for each run of rows in row group `group`
/// that lies inside one segment with a non-null weight.
template <typename Fn>
void ForEachRowBlock(const SgmvArgs& a, std::int64_t group, Fn&& fn) {
  const std::int64_t hi =
      std::min<std::int64_t>(a.seg.back(), (group + 1) * kRowBlock);
  for (std::int64_t row = group * kRowBlock; row < hi;) {
    // The first offset past `row` ends the segment covering it.
    auto it = std::upper_bound(a.seg.begin(), a.seg.end(), row);
    const std::int64_t end = std::min<std::int64_t>(hi, *it);
    const f16* w = a.weights[static_cast<std::size_t>(it - a.seg.begin()) - 1];
    if (w != nullptr) fn(row, end, w);
    row = end;
  }
}

}  // namespace

int SplitKPartitions(int h_in) {
  // Chunk the reduction dimension into ~256-wide slices, capped at 8
  // partitions (the GPU heuristic caps at the SM count budget per segment).
  constexpr int kChunk = 256;
  int parts = (h_in + kChunk - 1) / kChunk;
  return std::clamp(parts, 1, kMaxSplitKPartitions);
}

void SgmvShrink(const SgmvArgs& a, const ComputeContext& ctx,
                std::span<float> scratch) {
  ValidateArgs(a);
  const std::int64_t rows = a.seg.back();
  if (rows == 0) return;
  const int k_parts = SplitKPartitions(a.h_in);
  const int chunk = (a.h_in + k_parts - 1) / k_parts;

  // Phase 1: each (row block, partition) task computes its rows' partials
  // over the partition's k-chunk on whichever worker claims it — the
  // analogue of per-threadblock partial sums before the grid sync. The
  // partial layout depends only on (row, partition), never on the worker
  // or the blocking. Left uninitialized here: each slice has exactly one
  // phase-1 writer, which overwrites it, and phase 2 never reads slices of
  // null-weight rows. Backed by the caller's scratch when it is large
  // enough (the hot-path case).
  const std::size_t partials_size = static_cast<std::size_t>(rows) *
                                    static_cast<std::size_t>(k_parts) *
                                    static_cast<std::size_t>(a.h_out);
  std::unique_ptr<float[]> owned;
  float* partials = scratch.data();
  if (scratch.size() < partials_size) {
    owned = std::make_unique_for_overwrite<float[]>(partials_size);
    partials = owned.get();
  }
  const SimdOps& ops = Simd();
  const auto h_in = static_cast<std::size_t>(a.h_in);
  const auto h_out = static_cast<std::size_t>(a.h_out);
  const std::int64_t groups = (rows + kRowBlock - 1) / kRowBlock;
  ctx.ParallelFor(groups * k_parts, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t task = lo; task < hi; ++task) {
      const int p = static_cast<int>(task % k_parts);
      const int k_lo = p * chunk;
      const int k_hi = std::min(a.h_in, k_lo + chunk);
      // One register tile per row block: its rows' partials for this
      // k-chunk, each started at 0 and reduced in ascending kk. x here is
      // a dense hidden state, so no sparsity test in the inner loop.
      ForEachRowBlock(a, task / k_parts, [&](std::int64_t r0, std::int64_t r1,
                                             const f16* w) {
        const auto row = static_cast<std::size_t>(r0);
        ops.gemm_tile(
            {.x = a.x.data() + row * h_in + static_cast<std::size_t>(k_lo),
             .ldx = h_in,
             .w = w + static_cast<std::size_t>(k_lo) * h_out,
             .ldw = h_out,
             .wkind = TileWeight::kF16,
             .y = partials + (row * static_cast<std::size_t>(k_parts) +
                              static_cast<std::size_t>(p)) *
                                 h_out,
             .ldy = static_cast<std::size_t>(k_parts) * h_out,
             .rows = static_cast<int>(r1 - r0),
             .k = static_cast<std::size_t>(k_hi - k_lo),
             .n = h_out});
      });
    }
  });

  // Phase 2: reduce partials in fixed ascending partition order — one
  // worker per row, so each y element has exactly one writer and one
  // summation order regardless of thread count. Accumulating into the
  // partition-0 slice (scratch, documented clobbered) keeps the per-element
  // order identical to the scalar acc loop; a == 1.0f makes the FMA exact,
  // so this reduction is bit-identical on both dispatch paths.
  ctx.ParallelFor(rows, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t r = lo; r < hi; ++r) {
      const auto row = static_cast<std::size_t>(r);
      if (WeightForRow(a, r) == nullptr) continue;
      float* yr = &a.y[row * static_cast<std::size_t>(a.h_out)];
      const auto h_out = static_cast<std::size_t>(a.h_out);
      float* part0 = &partials[row * static_cast<std::size_t>(k_parts) *
                               h_out];
      for (int p = 1; p < k_parts; ++p) {
        ops.axpy_f32(1.0f, part0 + static_cast<std::size_t>(p) * h_out,
                     part0, h_out);
      }
      ops.axpy_f32(1.0f, part0, yr, h_out);
    }
  });
}

void SgmvExpand(const SgmvArgs& a, const ComputeContext& ctx) {
  ValidateArgs(a);
  const std::int64_t rows = a.seg.back();
  if (rows == 0) return;
  // Column-split schedule: tile the (large) output dimension; each
  // (row block, column tile) is computed independently, exactly like
  // dispatching v·B^(tile) to separate thread blocks whose results
  // concatenate. The register tile accumulates the block's products into a
  // task-local panel from 0 in ascending kk; the final yr add is one
  // rounding per element (a == 1.0f makes the fused add exact), matching
  // the scalar acc-then-add structure bit for bit on the scalar path.
  constexpr int kTile = 128;
  const SimdOps& ops = Simd();
  const auto h_out = static_cast<std::size_t>(a.h_out);
  const std::int64_t groups = (rows + kRowBlock - 1) / kRowBlock;
  const std::int64_t num_tiles = (a.h_out + kTile - 1) / kTile;
  ctx.ParallelFor(groups * num_tiles, 1, [&](std::int64_t lo,
                                             std::int64_t hi) {
    alignas(64) float panel[kRowBlock * kTile];
    for (std::int64_t task = lo; task < hi; ++task) {
      const auto j_lo = static_cast<std::size_t>(task % num_tiles) * kTile;
      const std::size_t tile_w = std::min<std::size_t>(kTile, h_out - j_lo);
      ForEachRowBlock(a, task / num_tiles, [&](std::int64_t r0,
                                               std::int64_t r1,
                                               const f16* w) {
        const auto row = static_cast<std::size_t>(r0);
        const int block_rows = static_cast<int>(r1 - r0);
        ops.gemm_tile({.x = a.x.data() + row * static_cast<std::size_t>(a.h_in),
                       .ldx = static_cast<std::size_t>(a.h_in),
                       .w = w + j_lo,
                       .ldw = h_out,
                       .wkind = TileWeight::kF16,
                       .y = panel,
                       .ldy = kTile,
                       .rows = block_rows,
                       .k = static_cast<std::size_t>(a.h_in),
                       .n = tile_w});
        for (int r = 0; r < block_rows; ++r) {
          ops.axpy_f32(1.0f, panel + r * kTile,
                       &a.y[(row + static_cast<std::size_t>(r)) * h_out + j_lo],
                       tile_w);
        }
      });
    }
  });
}

void SgmvReference(const SgmvArgs& a) {
  ValidateArgs(a);
  const int num_segments = static_cast<int>(a.weights.size());
  for (int s = 0; s < num_segments; ++s) {
    const f16* w = a.weights[static_cast<std::size_t>(s)];
    if (w == nullptr) continue;
    for (std::int32_t row = a.seg[static_cast<std::size_t>(s)];
         row < a.seg[static_cast<std::size_t>(s) + 1]; ++row) {
      for (int j = 0; j < a.h_out; ++j) {
        float acc = 0.0f;
        for (int kk = 0; kk < a.h_in; ++kk) {
          acc += a.x[static_cast<std::size_t>(row) *
                         static_cast<std::size_t>(a.h_in) +
                     static_cast<std::size_t>(kk)] *
                 w[static_cast<std::size_t>(kk) *
                       static_cast<std::size_t>(a.h_out) +
                   static_cast<std::size_t>(j)]
                     .ToFloat();
        }
        a.y[static_cast<std::size_t>(row) * static_cast<std::size_t>(a.h_out) +
            static_cast<std::size_t>(j)] += acc;
      }
    }
  }
}

SgmvCost SgmvCostOf(std::span<const std::int32_t> seg, int h_in, int h_out) {
  PUNICA_CHECK(!seg.empty());
  double sn = seg.back();
  double n = static_cast<double>(seg.size()) - 1.0;
  SgmvCost cost;
  cost.flop = sn * h_in * h_out * 2.0;
  cost.io_bytes = (sn * (h_in + h_out) + n * h_in * h_out) * 2.0;
  return cost;
}

}  // namespace punica
