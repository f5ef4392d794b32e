// Dense linear-algebra kernels (fp32 accumulate, optionally fp16 weights)
// on the deterministic parallel compute substrate. These are the "regular
// GEMM" substrate the paper's backbone computation uses; SGMV and the
// baselines are validated against them.
//
// Naming contract (do not mix up): *Set kernels OVERWRITE y; *Acc kernels
// ACCUMULATE into y. The blocked implementations assert nothing silently
// double-accumulates by keeping the contract in the name.
//
// Determinism: every output element is produced by exactly one worker with
// the reduction (k) loop in fixed ascending order, so results are
// bit-identical for any thread count and any tile partition. The GEMMs
// hand each (8-row block, 128-column tile) to the SIMD layer's
// register-tiled micro-kernel (SimdOps::gemm_tile in tensor/simd.h): a
// block of outputs stays in registers across the whole k loop, vectorized
// across independent output columns, so each element's reduction order —
// and hence this contract — survives vectorization and tiling on every
// dispatch path. A row's bits never depend on which other rows share its
// block, so batching rows (e.g. the LM head over a step's emitting
// entries) is bit-identical to running them one at a time.
//
// Conventions: row-major; X is [m, k], W is [k, n], Y is [m, n].
#pragma once

#include <span>

#include "tensor/half.h"
#include "tensor/quant.h"
#include "util/compute_context.h"

namespace punica {

/// Y = X @ W  (overwrites Y). Blocked over row blocks × column tiles.
void GemmSet(std::span<const float> x, std::span<const float> w,
             std::span<float> y, int m, int k, int n,
             const ComputeContext& ctx = ComputeContext::Default());

/// Y = X @ W with fp16 weights (overwrites Y; the zeroing happens inside
/// the parallel blocked kernel, not as a separate serial pass).
void GemmSetF16W(std::span<const float> x, std::span<const f16> w,
                 std::span<float> y, int m, int k, int n,
                 const ComputeContext& ctx = ComputeContext::Default());

/// Y += X @ W with fp16 weights (the backbone/LoRA storage format).
/// Each W element is read and decoded once per 8-row block.
void GemmAccF16W(std::span<const float> x, std::span<const f16> w,
                 std::span<float> y, int m, int k, int n,
                 const ComputeContext& ctx = ComputeContext::Default());

// --- Groupwise-quantized weight kernels (tensor/quant.h) ---
// W is k rows of QuantBlocksPerRow(n) blocks; the column-tile width is a
// multiple of kQuantBlock, so every stripe the kernels touch starts
// block-aligned. Same blocking, same one-writer/fixed-k-order determinism
// contract as the f16 kernels: the GEMM tile decodes each weight exactly
// (int code × f16 scale is exact in f32) and then runs the same per-element
// step as the f16 path, so across paths outputs differ by FMA contraction
// only. A single row (m=1, the decode shape) runs the same tile, so every
// quantized product is x·(d·q) on every path and shape.

/// Y = X @ dequant(W)  (overwrites Y).
void GemmSetQW(std::span<const float> x, std::span<const BlockQ8_0> w,
               std::span<float> y, int m, int k, int n,
               const ComputeContext& ctx = ComputeContext::Default());
void GemmSetQW(std::span<const float> x, std::span<const BlockQ4_0> w,
               std::span<float> y, int m, int k, int n,
               const ComputeContext& ctx = ComputeContext::Default());

/// Y += X @ dequant(W).
void GemmAccQW(std::span<const float> x, std::span<const BlockQ8_0> w,
               std::span<float> y, int m, int k, int n,
               const ComputeContext& ctx = ComputeContext::Default());
void GemmAccQW(std::span<const float> x, std::span<const BlockQ4_0> w,
               std::span<float> y, int m, int k, int n,
               const ComputeContext& ctx = ComputeContext::Default());

// --- Dtype dispatch over WeightMatrix ---
// One call site per projection regardless of storage format. Shapes are
// checked against the matrix ([k, n] == [w.rows(), w.cols()]).

/// Y = X @ W (overwrites Y).
void GemmSetW(std::span<const float> x, const WeightMatrix& w,
              std::span<float> y, int m, int k, int n,
              const ComputeContext& ctx = ComputeContext::Default());

/// Y += X @ W.
void GemmAccW(std::span<const float> x, const WeightMatrix& w,
              std::span<float> y, int m, int k, int n,
              const ComputeContext& ctx = ComputeContext::Default());

/// In-place numerically-stable softmax over a contiguous row.
void SoftmaxInPlace(std::span<float> row);

/// Scales a row by 1/sqrt(sum(x^2)/n + eps) * weight — RMSNorm core.
void RmsNormRow(std::span<const float> x, std::span<const f16> weight,
                std::span<float> out, float eps);

/// RmsNormRow over each consecutive weight.size()-element row of x, bit for
/// bit: every row keeps its own ascending double sum of squares, and up to
/// eight rows run interleaved so their add chains overlap.
void RmsNormRows(std::span<const float> x, std::span<const f16> weight,
                 std::span<float> out, float eps);

}  // namespace punica
