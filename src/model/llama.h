// A complete (small-scale) Llama-architecture model runnable on CPU:
// embedding → L transformer layers (with multi-LoRA batched addons) →
// final RMSNorm → LM head. Used by correctness tests, the examples and the
// end-to-end tiny-model serving demos; paper-scale performance numbers come
// from the analytical cost model instead.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
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
  /// LoRA batches run at any tp: each adapter is held as its rank shards
  /// (ShardLoraModel at tp > 1, replicated factors held once), the
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

  /// Registers a random LoRA model under `id`, replacing (and freeing) any
  /// adapter registered under it before. Only the recipe (rank, seed) is
  /// recorded: the adapter is drawn on first use — the first Forward whose
  /// batch names it, or the first GetLora/GetLoraShards call — exactly
  /// once, on the calling thread, and then kept. The draw is
  /// LoraModelWeights::Random on the model's context (sharded by
  /// ShardLoraModel at tp > 1), so the weights are the same bits at every
  /// tp, thread count and order of first use. Like every registration,
  /// AddLora changes the adapter table Forward reads: it must not run
  /// concurrently with Forward or with the const accessors below.
  void AddLora(LoraId id, int rank, std::uint64_t seed);
  /// Stores `weights` as its rank shards at once: the adapter itself at
  /// tp = 1, its ShardLoraModel shards at tp > 1 (the full tensors the
  /// slices were cut from are not kept), so an adapter takes the same
  /// bytes at every tp.
  void AddLora(LoraId id, LoraModelWeights weights);
  /// True when an adapter is registered under `id`, resident or not.
  bool HasLora(LoraId id) const { return loras_.contains(id); }
  /// The adapter registered under `id` (nullptr when tp > 1 — only its
  /// shards are stored, see GetLoraShards — or unknown). At tp = 1 the
  /// first call for a registered adapter draws it, as Forward would.
  const LoraModelWeights* GetLora(LoraId id) const;
  /// Per-rank adapter shards for `id` (nullptr when tp == 1 — see GetLora —
  /// or unknown). The first call for a registered adapter draws and shards
  /// it. Safe from concurrent callers (e.g. TP rank tasks): one draws, the
  /// others wait for it; a call from inside a rank task draws on that
  /// rank's worker group and allocates on the calling worker.
  const TpShardedLora* GetLoraShards(LoraId id) const;
  /// Registered adapters, resident or not.
  std::size_t num_loras() const { return loras_.size(); }
  /// Bytes of the adapters drawn so far (TpShardedLora::byte_size each).
  std::size_t lora_bytes() const;

  /// Runs one batched invocation. `token_ids` has one id per token row
  /// (prompt tokens for prefill entries, the previous output token for
  /// decode entries). The KvCache must already be extended so that every
  /// row position is in range. Returns next-token logits, one row per batch
  /// entry (the logits at each entry's final token). Entries with
  /// emit_logits=false (non-final chunks of a chunked prefill) still write
  /// K/V but skip the LM head; their logits row stays zero.
  ///
  /// A batch naming an adapter that is registered but not yet resident
  /// draws it first (see AddLora): a one-time cost of one adapter draw
  /// (plus its sharding at tp > 1) inside this call, with the adapter's
  /// tensors allocated on the calling thread. Naming an unregistered
  /// adapter or passing a token id outside [0, vocab) is a programmer
  /// error and aborts; Engine refuses such requests at admission.
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
  /// One registered adapter: its recipe, and its tp rank shards once
  /// drawn. `drawn` makes the draw happen once under concurrent const
  /// callers; `resident` publishes it to lora_bytes.
  struct LoraSlot {
    int rank = 0;
    std::uint64_t seed = 0;
    std::once_flag drawn;
    std::atomic<bool> resident{false};
    TpShardedLora shards;
  };
  /// The shards of the adapter registered under `id`, drawn on the first
  /// call (nullptr when unregistered).
  const TpShardedLora* Resident(LoraId id) const;
  /// Fills `slot.shards` from the full adapter; runs under slot.drawn.
  void Place(LoraSlot& slot, LoraModelWeights weights) const;
  std::unordered_map<LoraId, std::unique_ptr<LoraSlot>> loras_;
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
