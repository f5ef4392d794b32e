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

/// Calls fn(r0, r1, w) for each run of at most kRowBlock rows in
/// [row_lo, row_hi) that lies inside one segment with a non-null weight.
/// The schedules pass one row group; SgmvShrinkRows any range.
template <typename Fn>
void ForEachRowBlock(const SgmvArgs& a, std::int64_t row_lo,
                     std::int64_t row_hi, Fn&& fn) {
  for (std::int64_t row = row_lo; row < row_hi;) {
    // The first offset past `row` ends the segment covering it.
    auto it = std::upper_bound(a.seg.begin(), a.seg.end(), row);
    const std::int64_t end =
        std::min<std::int64_t>({row_hi, *it, row + kRowBlock});
    const f16* w = a.weights[static_cast<std::size_t>(it - a.seg.begin()) - 1];
    if (w != nullptr) fn(row, end, w);
    row = end;
  }
}

/// Row group `group`'s rows, [group·kRowBlock, …) clipped to the batch.
template <typename Fn>
void ForEachRowBlock(const SgmvArgs& a, std::int64_t group, Fn&& fn) {
  ForEachRowBlock(a, group * kRowBlock,
                  std::min<std::int64_t>(a.seg.back(),
                                         (group + 1) * kRowBlock),
                  std::forward<Fn>(fn));
}

/// The shrink's split-K geometry for one reduction length.
struct SplitK {
  int parts;
  int chunk;
};
SplitK SplitKOf(int h_in) {
  const int parts = SplitKPartitions(h_in);
  return {parts, (h_in + parts - 1) / parts};
}

/// Output widths up to which SgmvShrinkRows keeps a row block's partials
/// on the stack (8 rows × 8 partitions × 64 floats = 16 KiB).
constexpr std::size_t kShrinkRowsStackRank = 64;

/// Phase 1 of the shrink for rows [r0, r1) (one row block, weight w) and
/// partition p: each row's partial over the partition's k-chunk, started
/// at 0 and reduced in ascending kk, stored at part0 + (row − r0) · ldp +
/// p · h_out.
void ShrinkPartials(const SgmvArgs& a, const SplitK& sk, std::int64_t r0,
                    std::int64_t r1, const f16* w, int p, float* part0,
                    std::size_t ldp) {
  const auto h_in = static_cast<std::size_t>(a.h_in);
  const auto h_out = static_cast<std::size_t>(a.h_out);
  const int k_lo = p * sk.chunk;
  const int k_hi = std::min(a.h_in, k_lo + sk.chunk);
  // One register tile per row block: x here is a dense hidden state, so
  // no sparsity test in the inner loop.
  Simd().gemm_tile(
      {.x = a.x.data() + static_cast<std::size_t>(r0) * h_in +
            static_cast<std::size_t>(k_lo),
       .ldx = h_in,
       .w = w + static_cast<std::size_t>(k_lo) * h_out,
       .ldw = h_out,
       .wkind = TileWeight::kF16,
       .y = part0 + static_cast<std::size_t>(p) * h_out,
       .ldy = ldp,
       .rows = static_cast<int>(r1 - r0),
       .k = static_cast<std::size_t>(k_hi - k_lo),
       .n = h_out});
}

/// Phase 2 for one row: its partials (parts · h_out floats at part0)
/// reduce in fixed ascending partition order into the partition-0 slice
/// (clobbered), which then adds into the row's y. a == 1.0f makes each FMA
/// exact, so the order is the scalar acc loop's on every dispatch path.
void ReduceRow(const SgmvArgs& a, int parts, float* part0, std::int64_t row) {
  const SimdOps& ops = Simd();
  const auto h_out = static_cast<std::size_t>(a.h_out);
  for (int p = 1; p < parts; ++p) {
    ops.axpy_f32(1.0f, part0 + static_cast<std::size_t>(p) * h_out, part0,
                 h_out);
  }
  ops.axpy_f32(1.0f, part0, &a.y[static_cast<std::size_t>(row) * h_out],
               h_out);
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
  const SplitK sk = SplitKOf(a.h_in);
  const auto h_out = static_cast<std::size_t>(a.h_out);
  const std::size_t ldp = static_cast<std::size_t>(sk.parts) * h_out;

  // Phase 1: each (row block, partition) task computes its rows' partials
  // over the partition's k-chunk on whichever worker claims it — the
  // analogue of per-threadblock partial sums before the grid sync. The
  // partial layout depends only on (row, partition), never on the worker
  // or the blocking. Left uninitialized here: each slice has exactly one
  // phase-1 writer, which overwrites it, and phase 2 never reads slices of
  // null-weight rows. Backed by the caller's scratch when it is large
  // enough (the hot-path case).
  const std::size_t partials_size = static_cast<std::size_t>(rows) * ldp;
  std::unique_ptr<float[]> owned;
  float* partials = scratch.data();
  if (scratch.size() < partials_size) {
    owned = std::make_unique_for_overwrite<float[]>(partials_size);
    partials = owned.get();
  }
  const std::int64_t groups = (rows + kRowBlock - 1) / kRowBlock;
  ctx.ParallelFor(groups * sk.parts, 1, [&](std::int64_t lo,
                                            std::int64_t hi) {
    for (std::int64_t task = lo; task < hi; ++task) {
      const int p = static_cast<int>(task % sk.parts);
      ForEachRowBlock(a, task / sk.parts, [&](std::int64_t r0,
                                              std::int64_t r1,
                                              const f16* w) {
        ShrinkPartials(a, sk, r0, r1, w, p,
                       partials + static_cast<std::size_t>(r0) * ldp, ldp);
      });
    }
  });

  // Phase 2: one worker per row, so each y element has exactly one writer
  // and one summation order regardless of thread count.
  ctx.ParallelFor(rows, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t r = lo; r < hi; ++r) {
      if (WeightForRow(a, r) == nullptr) continue;
      ReduceRow(a, sk.parts, partials + static_cast<std::size_t>(r) * ldp,
                r);
    }
  });
}

void SgmvShrinkRows(const SgmvArgs& a, std::int64_t row_lo,
                    std::int64_t row_hi) {
  ValidateArgs(a);
  PUNICA_CHECK(0 <= row_lo && row_lo <= row_hi && row_hi <= a.seg.back());
  const SplitK sk = SplitKOf(a.h_in);
  const auto h_out = static_cast<std::size_t>(a.h_out);
  const std::size_t ldp = static_cast<std::size_t>(sk.parts) * h_out;
  // One row block's partials at a time: phase 1 for every partition, then
  // phase 2 for its rows — per element the same partials and the same
  // reduction order as SgmvShrink.
  constexpr std::size_t kStackFloats =
      kRowBlock * kMaxSplitKPartitions * kShrinkRowsStackRank;
  alignas(64) float stack[kStackFloats];
  std::unique_ptr<float[]> owned;
  float* partials = stack;
  if (kRowBlock * ldp > kStackFloats) {
    owned = std::make_unique_for_overwrite<float[]>(kRowBlock * ldp);
    partials = owned.get();
  }
  ForEachRowBlock(a, row_lo, row_hi, [&](std::int64_t r0, std::int64_t r1,
                                         const f16* w) {
    for (int p = 0; p < sk.parts; ++p) {
      ShrinkPartials(a, sk, r0, r1, w, p, partials, ldp);
    }
    for (std::int64_t r = r0; r < r1; ++r) {
      ReduceRow(a, sk.parts,
                partials + static_cast<std::size_t>(r - r0) * ldp, r);
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
