// SGMV — Segmented Gather Matrix-Vector multiplication (paper §4).
//
// Semantics (Fig. 3):   Y[s[i]:s[i+1], :] += X[s[i]:s[i+1], :] @ W[i]
// where the batch rows are partitioned into contiguous segments and each
// segment multiplies its own weight matrix (gathered by pointer, never
// materialised — this is the IO advantage over Gather-BMM).
//
// Two schedules mirror the CUDA kernel split:
//  * SgmvShrink — h_in large (hidden dim), h_out small (LoRA rank). The GPU
//    kernel uses Split-K: partition the reduction dimension across thread
//    blocks, then reduce partial sums after a grid sync. The CPU
//    implementation reproduces the same two-phase structure (deterministic
//    partials then a tree-order reduction) so numerics match the schedule.
//  * SgmvExpand — h_in small (rank), h_out large. The GPU kernel splits the
//    output-column dimension across thread blocks; each tile is independent.
//
// Row blocks: both schedules walk the batch in 8-row groups (the task
// index), split further at every segment boundary inside a group, and run
// each block through the SIMD layer's register-tiled micro-kernel
// (SimdOps::gemm_tile) — a segment's weight rows are decoded once per
// block instead of once per token, and the block's outputs stay in
// registers across the reduction. A block never crosses a segment
// boundary, null-weight segments are skipped, and no list of blocks is
// allocated per call. Every element's reduction order is fixed by (row,
// partition) alone, so the blocking never changes a bit.
//
// Accumulation is fp32 over fp16 weights, as on tensor cores.
#pragma once

#include <cstdint>
#include <span>

#include "tensor/half.h"
#include "util/compute_context.h"

namespace punica {

/// Per-segment weight pointers: w[i] points at an [h_in, h_out] row-major
/// fp16 matrix (the gather is by pointer indirection).
struct SgmvArgs {
  std::span<float> y;                    ///< [rows, h_out], accumulated into
  std::span<const float> x;              ///< [rows, h_in]
  std::span<const f16* const> weights;   ///< num_segments pointers
  std::span<const std::int32_t> seg;     ///< num_segments+1 offsets
  int h_in = 0;
  int h_out = 0;
};

/// Y += X @ W[seg] with the shrink (Split-K) schedule. Requires h_out to be
/// the small dimension in spirit but works for any shape. The (row block,
/// partition) tasks map onto pool workers; each row's partial for a
/// partition starts at 0 and reduces in ascending k; per-partition partials
/// reduce in fixed partition order, so results are bit-identical for any
/// thread count. `scratch` (optional) backs the partials when it holds at
/// least rows · SplitKPartitions(h_in) · h_out floats — pass a reused
/// buffer on hot paths to avoid the per-call allocation; contents need not
/// be initialized and are clobbered.
void SgmvShrink(const SgmvArgs& args,
                const ComputeContext& ctx = ComputeContext::Default(),
                std::span<float> scratch = {});

/// The shrink of token rows [row_lo, row_hi) alone, run serially on the
/// calling thread — for a caller that already splits the batch rows over
/// workers (the layer's row-parallel norm regions). Each row gets the
/// partials and the partition-order reduction SgmvShrink gives it, so
/// covering the batch in any row ranges is bit-identical to one
/// SgmvShrink. Allocation-free for h_out <= 64.
void SgmvShrinkRows(const SgmvArgs& args, std::int64_t row_lo,
                    std::int64_t row_hi);

/// Y += X @ W[seg] with the expand (column-split) schedule. The (row block,
/// column-tile) tasks are independent and map onto pool workers; each
/// element accumulates from 0 in ascending k, then adds into Y once.
void SgmvExpand(const SgmvArgs& args,
                const ComputeContext& ctx = ComputeContext::Default());

/// Plain reference implementation (naive loops) used as the test oracle.
void SgmvReference(const SgmvArgs& args);

/// FLOP/IO accounting from the paper's roofline analysis (§7.1):
///   FLOP = s_n · h_i · h_o · 2
///   IO   = [s_n · (h_i + h_o) + n · h_i · h_o] · 2 bytes
struct SgmvCost {
  double flop = 0.0;
  double io_bytes = 0.0;
  double arithmetic_intensity() const {
    return io_bytes > 0.0 ? flop / io_bytes : 0.0;
  }
};
SgmvCost SgmvCostOf(std::span<const std::int32_t> seg, int h_in, int h_out);

/// Number of Split-K partitions the shrink schedule uses for a given
/// reduction length (mirrors the GPU heuristic: enough partitions to fill
/// SMs, at least 1, reduction chunks of ~256). Never exceeds
/// kMaxSplitKPartitions — callers sizing shrink scratch can rely on it.
int SplitKPartitions(int h_in);
inline constexpr int kMaxSplitKPartitions = 8;

}  // namespace punica
