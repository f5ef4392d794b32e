// Numeric Megatron-style tensor parallelism (Shoeybi et al.) — the parallel
// scheme the paper uses to serve the 70B model on 8 GPUs (Fig. 12; "Punica
// and vLLM achieve the same performance because their parallel schemes are
// the same").
//
// Sharding per transformer layer over `tp` ranks:
//   * Q/K/V projections: column-parallel, sliced along heads — rank r owns
//     query heads [r·H/tp, (r+1)·H/tp) and KV heads [r·N/tp, (r+1)·N/tp).
//   * O projection: row-parallel (input rows follow the Q slice); partial
//     outputs are summed by an all-reduce.
//   * Gate/Up: column-parallel along the FFN dimension; Down: row-parallel;
//     second all-reduce after Down.
//   * Norm weights replicated: every rank's LayerWeights holds them.
// Each rank writes its own slice of every KvCache entry and attends over
// its own heads, so attention needs no communication.
//
// LoRA adapters shard the same way (ShardLoraModel): on the column-parallel
// seams B is column-sliced and A replicated — the ranks share one address
// space, so the replicated A is one allocation every rank aliases, and the
// layer runs the shrink v = x·A once per row (in the row-split region that
// norms the row) before each rank expands v into its own output slice; on
// the row-parallel seams A is row-sliced to match the dense input rows and
// B replicated (again one shared allocation) — rank r's delta x_r·A_r·B
// lands in its pre-all-reduce partial, and Σ_r x_r·A_r·B = x·A·B by
// linearity, so the existing fixed-rank-order all-reduce folds the adapter
// delta at no extra communication cost. An adapter thus takes the same
// bytes at every tp. The LoRA rank dimension is never sharded, so any
// adapter rank (divisible by tp or not) shards exactly; adapters stay f16,
// so LoRA sharding adds no quantization exemptions at any tp.
//
// Execution: each rank computes its partials into its own slice of a
// TpWorkspace — either sequentially rank-by-rank (serial mode) or
// concurrently, one rank per disjoint ComputeContext worker group. The two
// all-reduce seams (after O and after Down) then sum the per-rank partial
// buffers in **fixed ascending rank order** on the root context — the same
// one-writer/fixed-reduction-order construction the split-K kernels use —
// so the result is bit-identical between serial and concurrent execution
// at any thread count, SIMD level and weight dtype.
//
// This is the one transformer-layer implementation. LayerForward runs it
// with one rank — a full LayerWeights is the one-rank shard — where the
// all-reduce is the plain residual add x += partial, so tp = 1 is this same
// body, bit-exact. tp > 1 differs only at the two seams, where the per-rank
// regrouping changes the fp32 summation order: activations agree with
// tp = 1 numerically, while column-parallel outputs (including the KV
// cache) stay bit-exact.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "model/layer.h"

namespace punica {

/// One layer's weights sharded over tp = ranks.size() ranks. Each rank's
/// LayerWeights holds its projection slices and a copy of the replicated
/// norms; a full LayerWeights is the one-rank shard.
struct TpShardedLayer {
  std::vector<LayerWeights> ranks;
};

/// Slices a full layer into tp shards. Requires num_heads, num_kv_heads and
/// ffn_hidden to be divisible by tp (true for Llama-2 70B at tp=8).
TpShardedLayer ShardLayer(const LlamaConfig& config,
                          const LayerWeights& full, int tp);

/// Per-rank model config (heads and FFN divided by tp) used for the rank's
/// local GEMM shapes.
LlamaConfig RankConfig(const LlamaConfig& config, int tp);

/// A LoRA adapter model sharded over tp ranks, mirroring the dense split.
/// ranks[r].layers[l].proj[p] is rank r's (A, B) slice for that projection:
/// column-parallel seams (Q/K/V/Gate/Up) hold A replicated + B
/// column-sliced; row-parallel seams (O/Down) hold A row-sliced + B
/// replicated. A replicated factor is one allocation that every rank's
/// LoraAB aliases (equal raw() across ranks). `rank` is the (unsharded)
/// LoRA rank dimension.
struct TpShardedLora {
  std::vector<LoraModelWeights> ranks;
  int rank = 0;
  int tp = 1;

  /// Bytes of the distinct factor allocations — the full adapter's bytes
  /// at any tp, since nothing is held twice.
  std::size_t byte_size() const;
};

/// Slices a full adapter model into tp shards along the dense seams. The
/// replicated factors alias `full`'s (no copy); the sliced ones are new
/// tensors, so dropping `full` afterwards frees what they were cut from.
/// Requires the same divisibility as ShardLayer; the LoRA rank itself need
/// not divide tp (it is never split). Adapters are f16, so every slice is
/// exact — no block-alignment constraint, unlike quantized backbone shards.
TpShardedLora ShardLoraModel(const LlamaConfig& config,
                             const LoraModelWeights& full, int tp);

/// Runs one transformer layer under tensor parallelism: each rank computes
/// its partial attention and MLP contributions into `ws`; the two
/// all-reduce seams sum partials across ranks into the residual stream in
/// fixed ascending rank order. The same body as LayerForward, over the
/// per-segment LoRA view: `seg_lora[i]` is the sharded adapter for segment
/// i (nullptr = backbone-only; empty span = all-backbone batch). The
/// column seams' shrinks run once per row for all ranks; each rank runs
/// its expands and its row-parallel addons over its shard, with the
/// batch's segment grouping unchanged.
///
/// `rank_ctxs` empty: the rank loop runs serially, every rank's kernels on
/// `ctx` (models the SPMD schedule without concurrency). `rank_ctxs` with
/// tp group-view contexts (from ctx.Split(tp)): ranks run concurrently,
/// rank r's kernels confined to worker group r. Both modes compute the
/// identical fp32 expression per element, so their outputs — and hence
/// decoded streams — are bit-identical, with or without LoRA segments.
/// `rope` is the step's RoPE table over batch.row_pos, read by every rank
/// (nullptr builds a local one for this call).
void TpLayerForward(const LlamaConfig& config, const TpShardedLayer& layer,
                    const ModelBatch& batch, int layer_idx, PagedKvCache& kv,
                    std::span<float> x, TpWorkspace& ws,
                    const ComputeContext& ctx,
                    std::span<const ComputeContext* const> rank_ctxs = {},
                    std::span<const TpShardedLora* const> seg_lora = {},
                    const RopeTable* rope = nullptr);

/// Convenience overload for tests: serial rank loop, local workspace.
void TpLayerForward(const LlamaConfig& config, const TpShardedLayer& layer,
                    const ModelBatch& batch, int layer_idx, PagedKvCache& kv,
                    std::span<float> x,
                    const ComputeContext& ctx = ComputeContext::Default(),
                    std::span<const TpShardedLora* const> seg_lora = {});

/// Byte count a single rank holds for one layer (the per-GPU memory the
/// cost model's tp division assumes).
std::int64_t RankLayerBytes(const LlamaConfig& config, int tp);

}  // namespace punica
