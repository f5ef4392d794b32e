// A complete (small-scale) Llama-architecture model runnable on CPU:
// embedding → L transformer layers (with multi-LoRA batched addons) →
// final RMSNorm → LM head. Used by correctness tests, the examples and the
// end-to-end tiny-model serving demos; paper-scale performance numbers come
// from the analytical cost model instead.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "kvcache/kvcache.h"
#include "model/config.h"
#include "model/layer.h"
#include "model/tensor_parallel.h"
#include "tensor/tensor.h"

namespace punica {

class LlamaModel {
 public:
  /// Builds a model with random weights (deterministic in `seed`). All
  /// forward passes run on `ctx` (nullptr = the process-wide default
  /// context), so every Engine sharing this model shares one thread pool.
  ///
  /// Every layer is stored as tp rank shards and runs through
  /// TpLayerForward, the one layer implementation, at every tp. At tp = 1
  /// the drawn layer itself is the one rank shard (nothing is sliced or
  /// copied). `tp` > 1 stores each layer Megatron-sharded over tp ranks,
  /// run concurrently by default (rank r's kernels pinned to worker group
  /// r of ctx's pool via ctx->Split(tp)), or — with tp_concurrent=false —
  /// as the serial rank loop, which is bit-identical to concurrent
  /// execution by the fixed-rank-order all-reduce construction. The same
  /// seed draws the same f16 master weights at every tp, so tp changes
  /// only the execution schedule. The embedding and the layers are drawn
  /// as parallel tasks on `ctx`, each from its own seeded stream, so the
  /// weights are the same bits at any thread count. The LM head is the
  /// embedding shifted by one token, so the model keeps one f16
  /// [hidden, vocab] table for both (see Embed).
  /// LoRA batches run at any tp: AddLora stores each adapter as its rank
  /// shards (ShardLoraModel at tp > 1, replicated factors held once), the
  /// column seams shrink once per row for all ranks, every rank runs its
  /// own expands, and the row-parallel deltas fold through the existing
  /// all-reduce.
  LlamaModel(const LlamaConfig& config, std::uint64_t seed,
             const ComputeContext* ctx = nullptr, int tp = 1,
             bool tp_concurrent = true);

  const LlamaConfig& config() const { return config_; }
  const ComputeContext& context() const { return *ctx_; }
  /// Tensor-parallel degree (1 = single-GPU execution).
  int tp() const { return tp_; }
  /// True when TP ranks execute concurrently on disjoint worker groups.
  bool tp_concurrent() const { return !rank_ctx_ptrs_.empty(); }
  /// Rank r's worker-group view context (nullptr unless tp-concurrent).
  const ComputeContext* rank_context(int r) const {
    return r >= 0 && r < static_cast<int>(rank_ctx_ptrs_.size())
               ? rank_ctx_ptrs_[static_cast<std::size_t>(r)]
               : nullptr;
  }

  /// Read-only views of the stored weights (tests and introspection).
  const WeightMatrix& lm_head() const { return lm_head_; }
  /// Resident bytes of the backbone: every layer shard, the LM head (with
  /// its f16 master at quantized dtypes, which is the embedding table) and
  /// the final norm. Unlike LlamaConfig::total_weight_bytes — the untied
  /// account that prices the simulated GPU models — the shift-tied table
  /// counts once.
  std::size_t weight_bytes() const;

  /// The embedding lookup Forward runs: row t of `x` ([tokens, hidden])
  /// becomes token_ids[t]'s embedding, exactly its f16 values widened.
  /// Token u's embedding row is head column (u + 1) mod vocab (the shift
  /// tie), gathered from the one f16 [hidden, vocab] table.
  void Embed(std::span<const std::int32_t> token_ids,
             std::span<float> x) const;
  /// Layer l's per-rank weights: ranks[r] is rank r's shard, and at tp = 1
  /// ranks[0] is the whole layer.
  const TpShardedLayer& layer(int l) const {
    return layers_.at(static_cast<std::size_t>(l));
  }

  /// Registers a random LoRA model under `id`. Deterministic in (seed);
  /// its (layer, projection) streams are drawn in parallel on the model's
  /// context. Like every registration, AddLora mutates the adapter tables
  /// Forward reads: it must not run concurrently with Forward.
  void AddLora(LoraId id, int rank, std::uint64_t seed);
  /// Stores `weights` as its rank shards: the adapter itself at tp = 1,
  /// its ShardLoraModel shards at tp > 1 (the full tensors the slices were
  /// cut from are not kept), so an adapter takes the same bytes at every
  /// tp.
  void AddLora(LoraId id, LoraModelWeights weights);
  /// The adapter registered under `id` (nullptr when tp > 1 — only its
  /// shards are stored, see GetLoraShards — or unknown).
  const LoraModelWeights* GetLora(LoraId id) const;
  /// Per-rank adapter shards for `id` (nullptr when tp == 1 — see GetLora —
  /// or unknown).
  const TpShardedLora* GetLoraShards(LoraId id) const;
  std::size_t num_loras() const { return loras_.size(); }

  /// Runs one batched invocation. `token_ids` has one id per token row
  /// (prompt tokens for prefill entries, the previous output token for
  /// decode entries). The KvCache must already be extended so that every
  /// row position is in range. Returns next-token logits, one row per batch
  /// entry (the logits at each entry's final token). Entries with
  /// emit_logits=false (non-final chunks of a chunked prefill) still write
  /// K/V but skip the LM head; their logits row stays zero.
  ///
  /// Not reentrant: Forward mutates the model's shared workspace, so a
  /// model (and hence the engines over it) must be stepped by one caller
  /// thread at a time — the shared ComputeContext only serializes the
  /// parallel regions themselves, not whole forward passes.
  Tensor<float> Forward(const ModelBatch& batch,
                        std::span<const std::int32_t> token_ids,
                        PagedKvCache& kv);

  /// Greedy decoding helper: Forward + per-entry argmax.
  std::vector<std::int32_t> ForwardGreedy(
      const ModelBatch& batch, std::span<const std::int32_t> token_ids,
      PagedKvCache& kv);

  /// A KvCacheConfig matching this model's geometry.
  KvCacheConfig MakeKvConfig(std::int32_t num_pages, int page_size = 16) const;

  static std::int32_t ArgMax(std::span<const float> logits);

 private:
  LlamaConfig config_;
  const ComputeContext* ctx_;  ///< never null after construction
  int tp_ = 1;
  WeightMatrix lm_head_;   ///< [hidden, vocab] in config.weight_dtype
  /// [hidden, vocab] f16 head master, kept only when lm_head_ is quantized:
  /// the embedding must stay the drawn f16 bits, which dequantizing the
  /// head would not give back.
  Tensor<f16> head_master_;
  Tensor<f16> final_norm_; ///< [hidden]
  std::vector<TpShardedLayer> layers_;  ///< tp rank shards per layer
  /// Each registered adapter as its tp rank shards.
  std::unordered_map<LoraId, std::unique_ptr<TpShardedLora>> loras_;
  TpWorkspace ws_;
  RopeTable rope_;  ///< the current step's RoPE table (every layer reads it)
  std::vector<float> x_;  ///< [tokens, hidden] — the step's residual stream
  std::vector<const TpShardedLora*> seg_lora_;  ///< per segment, this step
  std::vector<float> head_in_;   ///< [emitting entries, hidden] — LM head in
  std::vector<float> head_out_;  ///< [emitting entries, vocab] — LM head out
  /// Worker-group views from ctx_->Split(tp) (empty = serial rank loop).
  std::vector<std::unique_ptr<ComputeContext>> rank_ctxs_;
  std::vector<const ComputeContext*> rank_ctx_ptrs_;
};

}  // namespace punica
