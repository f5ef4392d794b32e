// A full Llama transformer layer with batched LoRA addons on all seven dense
// projections — the numeric core the paper's runtime invokes per layer.
//
// Batch convention (paper §6): prefill requests first (each contributing its
// chunk of prompt tokens), decode requests after (one token each). Dense
// projections and LoRA addons treat all tokens as one [tokens, h] batch;
// self-attention splits into BatchPrefill / BatchDecode kernels.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/lora.h"
#include "core/segment.h"
#include "kvcache/kvcache.h"
#include "model/config.h"
#include "model/rope.h"
#include "tensor/tensor.h"
#include "util/compute_context.h"

namespace punica {

/// Dense weights of one transformer layer, row-major [h_in, h_out] in the
/// config's weight_dtype (f16 or a tensor/quant.h groupwise format). The
/// norms stay f16 — they are O(hidden) and feed exact per-element scaling.
/// A tensor-parallel rank shard (tensor_parallel.h) is a LayerWeights of
/// the rank's projection slices plus the replicated norms; a full layer is
/// the one-rank shard.
struct LayerWeights {
  WeightMatrix proj[kNumProj];
  Tensor<f16> attn_norm;  ///< [hidden]
  Tensor<f16> mlp_norm;   ///< [hidden]

  /// Draws the same seeded f16 master weights regardless of dtype, then
  /// quantizes per config.weight_dtype — deterministic, and dtype variants
  /// of one (config, seed) share the underlying parameters: Uninitialized,
  /// then Fills drawn from Pcg32(seed), then Quantize.
  static LayerWeights Random(const LlamaConfig& config, std::uint64_t seed);

  /// Random's pieces, so one thread can allocate what others fill
  /// (LlamaModel's parallel construction): Uninitialized allocates unwritten
  /// f16 projections and unit norms; Fills lists the projections in draw
  /// order with their scales, as `stream`; Quantize re-encodes them to
  /// `dtype` (a no-op for f16).
  static LayerWeights Uninitialized(const LlamaConfig& config);
  std::array<GaussianFill, kNumProj> Fills(const LlamaConfig& config,
                                           std::size_t stream);
  void Quantize(WeightDtype dtype);
};

/// LoRA adapters for one layer: one (A, B) pair per projection.
struct LoraLayerWeights {
  LoraAB proj[kNumProj];

  std::size_t byte_size() const;
};

/// A whole LoRA model: adapters for every layer.
struct LoraModelWeights {
  std::vector<LoraLayerWeights> layers;
  int rank = 0;

  /// Deterministic in (config, rank, seed). Every (layer, projection) pair
  /// has its own seeded stream, drawn by FillGaussianF16Parallel on `ctx`
  /// into tensors allocated on the calling thread beforehand, with the
  /// same bits at any thread count.
  static LoraModelWeights Random(
      const LlamaConfig& config, int rank, std::uint64_t seed,
      const ComputeContext& ctx = ComputeContext::Default());
  std::size_t byte_size() const;
};

/// One request's slice of a batched model invocation.
struct BatchEntry {
  SeqId seq = 0;              ///< KvCache sequence
  LoraId lora = -1;           ///< -1 = backbone only
  std::int32_t num_tokens = 0;  ///< chunk length (1 for decode)
  std::int64_t pos_offset = 0;  ///< cache position of the chunk's first token
  bool is_prefill = false;
  /// False for a non-final prefill chunk (chunked prefill): the entry's
  /// last row is mid-prompt, so its next-token logits are meaningless —
  /// the model skips the LM head for it and emits nothing.
  bool emit_logits = true;
};

/// Batch metadata built once per model invocation and reused by every layer
/// (BatchLen) and every projection (SGMV segments) — paper §6.
struct ModelBatch {
  std::vector<BatchEntry> entries;       ///< prefills first, then decodes
  BatchLen batch_len;
  Segments segments;                     ///< over token rows, by LoRA id
  std::vector<SeqId> decode_seqs;        ///< seqs of the decode tail
  std::vector<std::int64_t> row_pos;     ///< cache position per token row
  std::vector<SeqId> row_seq;            ///< sequence per token row

  int total_tokens() const { return batch_len.total_tokens(); }

  /// Validates ordering (prefills first) and derives all metadata.
  static ModelBatch Build(std::vector<BatchEntry> entries);
};

/// Activation buffers for the layer forward over tp rank shards, stacked
/// rank-major so concurrent ranks write disjoint slices. Resize only grows;
/// steady-state forward passes are allocation-free.
struct TpWorkspace {
  std::vector<float> normed;    ///< [tokens, h] — shared, read-only in ranks
  std::vector<float> q;         ///< [tp][tokens, heads_pr·d]
  std::vector<float> k;         ///< [tp][tokens, kv_heads_pr·d]
  std::vector<float> v;         ///< [tp][tokens, kv_heads_pr·d]
  std::vector<float> attn_out;  ///< [tp][tokens, heads_pr·d]
  std::vector<float> gate;      ///< [tp][tokens, ffn_pr]
  std::vector<float> up;        ///< [tp][tokens, ffn_pr]
  std::vector<float> partial;   ///< [tp][tokens, h] — all-reduce inputs
  std::vector<std::vector<float>> attn_scratch;  ///< per-rank split-KV
                                                 ///< partials (disjoint so
                                                 ///< concurrent ranks never
                                                 ///< share scratch)
  std::vector<std::vector<float>> lora_tmp;  ///< per-rank SGMV v rows +
                                             ///< split-K scratch for the
                                             ///< row-parallel seams (see
                                             ///< BatchedLoraAddon's
                                             ///< workspace contract);
                                             ///< disjoint per rank so
                                             ///< concurrent ranks never
                                             ///< share the shrink buffer
  std::vector<float> lora_v;  ///< [3][tokens, max_rank] — the column
                              ///< seams' shared shrink outputs (Q/K/V,
                              ///< then Gate/Up), read by every rank
  void Resize(const LlamaConfig& config, int tp, int tokens,
              int max_rank = 1);
};

/// The workspace of the one-rank LayerForward: a TpWorkspace sized for one
/// rank, reused across layers and invocations to avoid reallocation.
class LayerWorkspace : public TpWorkspace {
 public:
  void Resize(const LlamaConfig& config, int tokens, int max_rank) {
    TpWorkspace::Resize(config, /*tp=*/1, tokens, max_rank);
  }
};

/// Runs one transformer layer in place over activations `x` ([tokens, h]).
/// This is the one-rank entry point to the one layer body, which
/// TpLayerForward (tensor_parallel.h) runs over tp rank shards: `weights`
/// is the only rank's shard and the all-reduce is the residual add itself,
/// so no extra fp32 operation is introduced anywhere. (Defined in
/// tensor_parallel.cc, next to that body.)
/// `seg_lora[i]` is the LoRA model for segment i (nullptr = backbone only);
/// adapters for this layer are taken from seg_lora[i]->layers[layer].
/// K/V for every row is written into the cache at row_pos (the cache must
/// already be extended to cover those positions). `rope` is the step's
/// table over batch.row_pos (LlamaModel::Forward builds one per step);
/// nullptr builds a local one for this call. `ws` grows to fit the batch.
void LayerForward(const LlamaConfig& config, const LayerWeights& weights,
                  std::span<const LoraModelWeights* const> seg_lora,
                  const ModelBatch& batch, int layer, PagedKvCache& kv,
                  std::span<float> x, LayerWorkspace& ws,
                  const ComputeContext& ctx = ComputeContext::Default(),
                  const RopeTable* rope = nullptr);

/// The SwiGLU combine gate[i] = silu(gate[i]) · up[i] (SimdOps::silu_mul:
/// the same bits at every SIMD level), split over ctx's workers.
/// Elementwise with one writer per element, so bit-identical at any worker
/// count.
void SiluMulInPlace(std::span<float> gate, std::span<const float> up,
                    const ComputeContext& ctx);

}  // namespace punica
