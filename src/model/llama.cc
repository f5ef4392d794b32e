#include "model/llama.h"

#include <algorithm>
#include <cmath>

#include "tensor/gemm.h"
#include "util/check.h"
#include "util/rng.h"

namespace punica {

LlamaModel::LlamaModel(const LlamaConfig& config, std::uint64_t seed,
                       const ComputeContext* ctx, int tp, bool tp_concurrent)
    : config_(config),
      ctx_(ctx != nullptr ? ctx : &ComputeContext::Default()),
      tp_(tp) {
  PUNICA_CHECK(tp >= 1);
  // The embedding (stream `seed`) and every layer (stream
  // seed·7919 + l + 1, its projections in order) are drawn by
  // FillGaussianF16Parallel in balanced tasks, with the same bits at any
  // thread count. Every destination is allocated here, on the calling
  // thread, unwritten, so the workers only fill: memory a worker allocates
  // lands in its own malloc arena and raises peak RSS.
  embedding_ =
      Tensor<f16>::Uninitialized({config.vocab_size, config.hidden_size});
  // Each layer is drawn into its one-rank shard, which at tp = 1 is the
  // stored layer. tp > 1 draws the same f16 masters (quantization
  // deferred) and replaces them by their Megatron rank shards in the
  // layer's own task below, quantizing to config.weight_dtype after the
  // slice — so tp changes the execution schedule, never the parameters.
  layers_.resize(static_cast<std::size_t>(config.num_layers));
  std::vector<Pcg32> streams = {Pcg32(seed)};
  std::vector<GaussianFill> fills = {
      {0, 1.0f / std::sqrt(static_cast<float>(config.hidden_size)),
       embedding_.data()}};
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    LayerWeights& layer = layers_[l].ranks.emplace_back(
        LayerWeights::Uninitialized(config));
    for (const GaussianFill& f : layer.Fills(config, streams.size())) {
      fills.push_back(f);
    }
    streams.emplace_back(seed * 7919 + l + 1);
  }
  FillGaussianF16Parallel(streams, fills, *ctx_);
  // Shift-tied LM head (weight tying à la GPT-2/Gemma, shifted by one):
  // head column v is the embedding row of token v-1, so the residual
  // stream's embedding component makes "input token + 1" the well-separated
  // greedy argmax. An untied random head scores a random hidden state
  // against random directions — near-uniform logits whose argmax flips
  // under any perturbation, so stream comparisons (the quant quality gate,
  // the determinism suites) would measure tie-breaking luck instead of
  // model numerics. The head stays its own tensor: it is stored — and
  // quantized — separately, so shapes and byte accounting are unchanged.
  Tensor<f16> lm_head =
      Tensor<f16>::Uninitialized({config.hidden_size, config.vocab_size});
  // One parallel region: the head as a blocked transpose, kTile head rows
  // per task (each 32×32 tile writes head rows contiguously and reads 32
  // embedding rows, all cache resident), then each layer's quantization
  // (tp = 1) or rank sharding (tp > 1).
  constexpr std::size_t kTile = 32;
  const auto vocab = static_cast<std::size_t>(config.vocab_size);
  const auto hidden = static_cast<std::size_t>(config.hidden_size);
  const auto tiles = static_cast<std::int64_t>((hidden + kTile - 1) / kTile);
  const bool reshape = tp > 1 || config.weight_dtype != WeightDtype::kF16;
  const f16* emb = embedding_.raw();
  f16* head = lm_head.raw();
  const auto task = [&](std::int64_t t) {
    if (t >= tiles) {
      TpShardedLayer& layer = layers_[static_cast<std::size_t>(t - tiles)];
      if (tp > 1) {
        layer = ShardLayer(config_, layer.ranks[0], tp);
      } else {
        layer.ranks[0].Quantize(config.weight_dtype);
      }
      return;
    }
    const std::size_t i0 = static_cast<std::size_t>(t) * kTile;
    const std::size_t i1 = std::min(hidden, i0 + kTile);
    for (std::size_t v0 = 0; v0 < vocab; v0 += kTile) {
      const std::size_t v1 = std::min(vocab, v0 + kTile);
      for (std::size_t i = i0; i < i1; ++i) {
        for (std::size_t v = v0; v < v1; ++v) {
          const std::size_t src = v == 0 ? vocab - 1 : v - 1;
          head[i * vocab + v] = emb[src * hidden + i];
        }
      }
    }
  };
  ctx_->ParallelFor(tiles + (reshape ? config.num_layers : 0), 1,
                    [&](std::int64_t lo, std::int64_t hi) {
                      for (std::int64_t t = lo; t < hi; ++t) task(t);
                    });
  // Same f16 draw at every dtype; quantization only changes the storage.
  // The embedding stays f16 — it is a per-row gather, not a GEMM operand.
  lm_head_ = WeightMatrix::FromF16(std::move(lm_head), config.weight_dtype);
  final_norm_ = Tensor<f16>({config.hidden_size});
  for (auto& v : final_norm_.data()) v = f16(1.0f);
  if (tp > 1 && tp_concurrent) {
    rank_ctxs_ = ctx_->Split(tp);
    rank_ctx_ptrs_.reserve(rank_ctxs_.size());
    for (const auto& view : rank_ctxs_) {
      rank_ctx_ptrs_.push_back(view.get());
    }
  }
}

void LlamaModel::AddLora(LoraId id, int rank, std::uint64_t seed) {
  AddLora(id, LoraModelWeights::Random(config_, rank, seed, *ctx_));
}

void LlamaModel::AddLora(LoraId id, LoraModelWeights weights) {
  PUNICA_CHECK(weights.layers.size() ==
               static_cast<std::size_t>(config_.num_layers));
  // Distribute the adapter over the ranks up front (the per-GPU load
  // step), so Forward only gathers pointers. At tp = 1 the adapter itself
  // is the one rank shard; at tp > 1 the shards alias its replicated
  // factors, and the tensors the slices were cut from go with `weights`.
  auto shards = std::make_unique<TpShardedLora>();
  if (tp_ == 1) {
    shards->rank = weights.rank;
    shards->ranks.push_back(std::move(weights));
  } else {
    *shards = ShardLoraModel(config_, weights, tp_);
  }
  loras_[id] = std::move(shards);
}

const LoraModelWeights* LlamaModel::GetLora(LoraId id) const {
  auto it = loras_.find(id);
  return tp_ > 1 || it == loras_.end() ? nullptr : &it->second->ranks[0];
}

const TpShardedLora* LlamaModel::GetLoraShards(LoraId id) const {
  auto it = loras_.find(id);
  return tp_ == 1 || it == loras_.end() ? nullptr : it->second.get();
}

Tensor<float> LlamaModel::Forward(const ModelBatch& batch,
                                  std::span<const std::int32_t> token_ids,
                                  PagedKvCache& kv) {
  const int tokens = batch.total_tokens();
  PUNICA_CHECK(token_ids.size() == static_cast<std::size_t>(tokens));
  const auto h = static_cast<std::size_t>(config_.hidden_size);

  // Resolve each segment's adapter shards once per invocation.
  seg_lora_.clear();
  for (LoraId id : batch.segments.lora_ids) {
    const TpShardedLora* s = nullptr;
    if (id >= 0) {
      auto it = loras_.find(id);
      PUNICA_CHECK_MSG(it != loras_.end(),
                       "batch references an unloaded LoRA model");
      s = it->second.get();
    }
    seg_lora_.push_back(s);
  }

  // Embedding lookup: one writer per token row.
  if (x_.size() < static_cast<std::size_t>(tokens) * h) {
    x_.resize(static_cast<std::size_t>(tokens) * h);
  }
  const std::span<float> x(x_.data(), static_cast<std::size_t>(tokens) * h);
  for (int t = 0; t < tokens; ++t) {
    std::int32_t id = token_ids[static_cast<std::size_t>(t)];
    PUNICA_CHECK(id >= 0 && id < config_.vocab_size);
  }
  ctx_->ParallelFor(tokens, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t t = lo; t < hi; ++t) {
      auto row = embedding_.row(token_ids[static_cast<std::size_t>(t)]);
      HalfToFloatN(row, x.subspan(static_cast<std::size_t>(t) * h, h));
    }
  });

  // One RoPE table per step: every layer and TP rank rotates from it.
  rope_.Build(batch.row_pos, config_.head_dim(), config_.rope_theta, *ctx_);
  for (int l = 0; l < config_.num_layers; ++l) {
    TpLayerForward(config_, layers_[static_cast<std::size_t>(l)], batch, l,
                   kv, x, ws_, *ctx_,
                   std::span<const ComputeContext* const>(rank_ctx_ptrs_),
                   seg_lora_, &rope_);
  }

  // Final norm + LM head on the emitting entries' last token rows, as one
  // [emitting, hidden] × [hidden, vocab] GEMM: the head streams once per
  // step instead of once per entry, and each logit keeps the reduction it
  // has as a single-row product (the GEMM's per-element sequence does not
  // depend on which rows share a block). Non-emitting entries (a chunked
  // prefill's non-final chunks) skip the head — their last row is
  // mid-prompt — and keep a zeroed logits row.
  const auto num_entries = batch.entries.size();
  const auto vocab = static_cast<std::size_t>(config_.vocab_size);
  Tensor<float> logits(
      {static_cast<std::int64_t>(num_entries), config_.vocab_size});
  if (head_in_.size() < num_entries * h) head_in_.resize(num_entries * h);
  std::size_t emitting = 0;
  std::size_t row = 0;
  for (const BatchEntry& e : batch.entries) {
    row += static_cast<std::size_t>(e.num_tokens);
    if (!e.emit_logits) continue;
    RmsNormRow(x.subspan((row - 1) * h, h),
               final_norm_.data(),
               std::span<float>(head_in_).subspan(emitting * h, h),
               config_.rms_eps);
    ++emitting;
  }
  if (emitting == 0) return logits;
  if (head_out_.size() < emitting * vocab) head_out_.resize(emitting * vocab);
  GemmSetW(std::span<const float>(head_in_).first(emitting * h), lm_head_,
           std::span<float>(head_out_).first(emitting * vocab),
           static_cast<int>(emitting), config_.hidden_size, config_.vocab_size,
           *ctx_);
  std::size_t i = 0;
  for (std::size_t e = 0; e < num_entries; ++e) {
    if (!batch.entries[e].emit_logits) continue;
    std::copy_n(head_out_.begin() + static_cast<std::ptrdiff_t>(i++ * vocab),
                vocab, logits.row(static_cast<std::int64_t>(e)).begin());
  }
  return logits;
}

std::vector<std::int32_t> LlamaModel::ForwardGreedy(
    const ModelBatch& batch, std::span<const std::int32_t> token_ids,
    PagedKvCache& kv) {
  Tensor<float> logits = Forward(batch, token_ids, kv);
  std::vector<std::int32_t> out;
  out.reserve(batch.entries.size());
  for (std::int64_t e = 0; e < logits.dim(0); ++e) {
    // -1 for non-emitting entries: using a partial chunk's "token" is a
    // caller bug, and -1 fails the embedding range check loudly.
    out.push_back(batch.entries[static_cast<std::size_t>(e)].emit_logits
                      ? ArgMax(logits.row(e))
                      : -1);
  }
  return out;
}

KvCacheConfig LlamaModel::MakeKvConfig(std::int32_t num_pages,
                                       int page_size) const {
  return {.num_layers = config_.num_layers,
          .num_kv_heads = config_.num_kv_heads,
          .head_dim = config_.head_dim(),
          .page_size = page_size,
          .num_pages = num_pages};
}

std::int32_t LlamaModel::ArgMax(std::span<const float> logits) {
  PUNICA_CHECK(!logits.empty());
  return static_cast<std::int32_t>(
      std::max_element(logits.begin(), logits.end()) - logits.begin());
}

}  // namespace punica
