#include "model/layer.h"

#include <algorithm>
#include <cmath>

#include "model/attention.h"
#include "model/rope.h"
#include "tensor/gemm.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/small_buffer.h"

namespace punica {

LayerWeights LayerWeights::Random(const LlamaConfig& config,
                                  std::uint64_t seed) {
  LayerWeights w = Zeros(config);
  w.Draw(config, seed);
  return w;
}

LayerWeights LayerWeights::Zeros(const LlamaConfig& config) {
  LayerWeights w;
  for (int p = 0; p < kNumProj; ++p) {
    ProjShape s = ShapeOf(config, static_cast<Proj>(p));
    w.proj[p] = WeightMatrix::FromF16(Tensor<f16>({s.h_in, s.h_out}),
                                      WeightDtype::kF16);
  }
  w.attn_norm = Tensor<f16>({config.hidden_size});
  w.mlp_norm = Tensor<f16>({config.hidden_size});
  for (auto& v : w.attn_norm.data()) v = f16(1.0f);
  for (auto& v : w.mlp_norm.data()) v = f16(1.0f);
  return w;
}

void LayerWeights::Draw(const LlamaConfig& config, std::uint64_t seed) {
  Pcg32 rng(seed);
  for (int p = 0; p < kNumProj; ++p) {
    ProjShape s = ShapeOf(config, static_cast<Proj>(p));
    float scale = 1.0f / std::sqrt(static_cast<float>(s.h_in));
    // Residual scaling (GPT-2-style, depth-linear): the two projections
    // that write into the residual stream shrink by 1/(2·num_layers), so
    // with random weights the stream stays dominated by the token
    // embedding instead of accumulated layer noise. Without it the final
    // hidden state is mostly noise and greedy argmax sits on razor-thin
    // margins — every downstream stream comparison then measures
    // tie-breaking luck instead of numerics.
    if (static_cast<Proj>(p) == Proj::kO || static_cast<Proj>(p) == Proj::kDown) {
      scale /= 2.0f * static_cast<float>(config.num_layers);
    }
    // Draw the f16 master weights from the same RNG stream at every dtype,
    // then quantize: the dtype selects the storage, never the parameters.
    FillGaussianF16(rng, scale, proj[p].mutable_f16_data());
    if (config.weight_dtype != WeightDtype::kF16) {
      proj[p] = proj[p].Requantize(config.weight_dtype);
    }
  }
}

std::size_t LoraLayerWeights::byte_size() const {
  std::size_t total = 0;
  for (const auto& p : proj) total += p.byte_size();
  return total;
}

LoraModelWeights LoraModelWeights::Random(const LlamaConfig& config,
                                          int rank, std::uint64_t seed,
                                          const ComputeContext& ctx) {
  LoraModelWeights w;
  w.rank = rank;
  w.layers.resize(static_cast<std::size_t>(config.num_layers));
  for (auto& layer : w.layers) {
    for (int p = 0; p < kNumProj; ++p) {
      ProjShape s = ShapeOf(config, static_cast<Proj>(p));
      layer.proj[p] = LoraAB::Zeros(s.h_in, s.h_out, rank);
    }
  }
  ctx.ParallelFor(config.num_layers * kNumProj, 1,
                  [&](std::int64_t lo, std::int64_t hi) {
                    for (std::int64_t i = lo; i < hi; ++i) {
                      const auto l = static_cast<std::uint64_t>(i / kNumProj);
                      const auto p = static_cast<std::uint64_t>(i % kNumProj);
                      const std::uint64_t layer_seed = seed * 1000003 + l;
                      w.layers[l].proj[p].Draw(layer_seed * 31 + p);
                    }
                  });
  return w;
}

std::size_t LoraModelWeights::byte_size() const {
  std::size_t total = 0;
  for (const auto& l : layers) total += l.byte_size();
  return total;
}

ModelBatch ModelBatch::Build(std::vector<BatchEntry> entries) {
  ModelBatch batch;
  batch.entries = std::move(entries);

  bool seen_decode = false;
  std::vector<std::int32_t> prefill_lengths;
  std::vector<LoraId> row_lora;
  for (const auto& e : batch.entries) {
    PUNICA_CHECK_MSG(e.num_tokens > 0, "entry must contribute tokens");
    if (e.is_prefill) {
      PUNICA_CHECK_MSG(!seen_decode, "prefills must precede decodes");
      prefill_lengths.push_back(e.num_tokens);
    } else {
      PUNICA_CHECK_MSG(e.num_tokens == 1, "decode entries are single-token");
      PUNICA_CHECK_MSG(e.emit_logits, "decode entries always emit");
      seen_decode = true;
      batch.decode_seqs.push_back(e.seq);
    }
    for (std::int32_t j = 0; j < e.num_tokens; ++j) {
      row_lora.push_back(e.lora);
      batch.row_pos.push_back(e.pos_offset + j);
      batch.row_seq.push_back(e.seq);
    }
  }
  batch.batch_len = BuildBatchLen(prefill_lengths,
                                  static_cast<int>(batch.decode_seqs.size()));
  batch.segments = BuildSegments(row_lora);
  return batch;
}

void LayerWorkspace::Resize(const LlamaConfig& config, int tokens,
                            int max_rank) {
  auto t = static_cast<std::size_t>(tokens);
  normed.assign(t * static_cast<std::size_t>(config.hidden_size), 0.0f);
  q.assign(t * static_cast<std::size_t>(config.hidden_size), 0.0f);
  k.assign(t * static_cast<std::size_t>(config.kv_dim()), 0.0f);
  v.assign(t * static_cast<std::size_t>(config.kv_dim()), 0.0f);
  attn_out.assign(t * static_cast<std::size_t>(config.hidden_size), 0.0f);
  gate.assign(t * static_cast<std::size_t>(config.ffn_hidden), 0.0f);
  up.assign(t * static_cast<std::size_t>(config.ffn_hidden), 0.0f);
  // v rows plus room for the SGMV shrink's split-K partials, so the LoRA
  // addon never allocates inside Step (see BatchedLoraAddon's contract).
  // resize, not assign: the addon zeroes the v prefix itself and the
  // partials tail is documented as clobbered-uninitialized.
  lora_tmp.resize(t * static_cast<std::size_t>(std::max(max_rank, 1)) *
                  (1 + static_cast<std::size_t>(kMaxSplitKPartitions)));
}

namespace {

/// Grain for elementwise ParallelFor loops (residual adds, SiLU·up): small
/// enough to split across workers on big FFN buffers, large enough that a
/// tiny decode batch runs inline.
constexpr std::int64_t kElemGrain = 4096;

/// Dense projection + batched LoRA addon for all token rows.
void ProjectWithLora(const LlamaConfig& config, const LayerWeights& weights,
                     std::span<const LoraModelWeights* const> seg_lora,
                     const ModelBatch& batch, int layer, Proj proj,
                     std::span<const float> in, std::span<float> out,
                     std::span<float> lora_tmp, const ComputeContext& ctx) {
  ProjShape shape = ShapeOf(config, proj);
  int tokens = batch.total_tokens();
  GemmSetW(in, weights.proj[static_cast<int>(proj)], out, tokens, shape.h_in,
           shape.h_out, ctx);

  SmallBuffer<const LoraAB*, kInlineLoraSegments> adapters(seg_lora.size());
  bool any = false;
  for (std::size_t i = 0; i < seg_lora.size(); ++i) {
    adapters[i] = nullptr;
    if (seg_lora[i] != nullptr) {
      adapters[i] =
          &seg_lora[i]->layers[static_cast<std::size_t>(layer)]
               .proj[static_cast<int>(proj)];
      any = true;
    }
  }
  if (any) {
    BatchedLoraAddon(out, in, {adapters.data(), adapters.size()},
                     batch.segments.offsets, shape.h_in, shape.h_out,
                     lora_tmp, ctx);
  }
}

}  // namespace

void SiluMulInPlace(std::span<float> gate, std::span<const float> up,
                    const ComputeContext& ctx) {
  PUNICA_CHECK(up.size() >= gate.size());
  ctx.ParallelFor(static_cast<std::int64_t>(gate.size()), kElemGrain,
                  [&](std::int64_t lo, std::int64_t hi) {
    const auto b = static_cast<std::size_t>(lo);
    const auto e = static_cast<std::size_t>(hi);
    SiluInPlace(gate.subspan(b, e - b));
    for (std::size_t i = b; i < e; ++i) gate[i] *= up[i];
  });
}

void LayerForward(const LlamaConfig& config, const LayerWeights& weights,
                  std::span<const LoraModelWeights* const> seg_lora,
                  const ModelBatch& batch, int layer, PagedKvCache& kv,
                  std::span<float> x, LayerWorkspace& ws,
                  const ComputeContext& ctx, const RopeTable* rope) {
  const int tokens = batch.total_tokens();
  const auto h = static_cast<std::size_t>(config.hidden_size);
  const auto kvd = static_cast<std::size_t>(config.kv_dim());
  PUNICA_CHECK(x.size() == static_cast<std::size_t>(tokens) * h);
  PUNICA_CHECK(seg_lora.size() ==
               static_cast<std::size_t>(batch.segments.num_segments()));

  // --- Attention block ---
  // Token rows are independent in every non-attention op of the layer, so
  // they parallelize with one writer per row.
  ctx.ParallelFor(tokens, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t t = lo; t < hi; ++t) {
      RmsNormRow(x.subspan(static_cast<std::size_t>(t) * h, h),
                 weights.attn_norm.data(),
                 std::span<float>(ws.normed).subspan(
                     static_cast<std::size_t>(t) * h, h),
                 config.rms_eps);
    }
  });

  ProjectWithLora(config, weights, seg_lora, batch, layer, Proj::kQ,
                  ws.normed, ws.q, ws.lora_tmp, ctx);
  ProjectWithLora(config, weights, seg_lora, batch, layer, Proj::kK,
                  ws.normed, ws.k, ws.lora_tmp, ctx);
  ProjectWithLora(config, weights, seg_lora, batch, layer, Proj::kV,
                  ws.normed, ws.v, ws.lora_tmp, ctx);

  // RoPE on Q (all query heads) and K (KV heads), then write K/V into the
  // paged cache at each row's absolute position (distinct positions, so
  // rows write disjoint cache entries).
  RopeTable local_rope;
  if (rope == nullptr) {
    local_rope.Build(batch.row_pos, config.head_dim(), config.rope_theta, ctx);
    rope = &local_rope;
  }
  ctx.ParallelFor(tokens, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t t = lo; t < hi; ++t) {
      const auto row = static_cast<std::size_t>(t);
      std::int64_t pos = batch.row_pos[row];
      rope->Apply(row, std::span<float>(ws.q).subspan(row * h, h),
                  config.num_heads);
      rope->Apply(row, std::span<float>(ws.k).subspan(row * kvd, kvd),
                  config.num_kv_heads);
      SeqId seq = batch.row_seq[static_cast<std::size_t>(t)];
      FloatToHalfN(std::span<const float>(ws.k).subspan(
                       static_cast<std::size_t>(t) * kvd, kvd),
                   kv.Entry(seq, layer, pos, KvSlot::kKey));
      FloatToHalfN(std::span<const float>(ws.v).subspan(
                       static_cast<std::size_t>(t) * kvd, kvd),
                   kv.Entry(seq, layer, pos, KvSlot::kValue));
    }
  });

  // BatchPrefill over the leading prefill chunks, BatchDecode over the tail.
  std::size_t row = 0;
  for (const auto& e : batch.entries) {
    if (!e.is_prefill) break;
    auto chunk = static_cast<std::size_t>(e.num_tokens);
    BatchPrefillAttention(
        config, kv, e.seq, layer, e.pos_offset,
        std::span<const float>(ws.q).subspan(row * h, chunk * h),
        std::span<float>(ws.attn_out).subspan(row * h, chunk * h), ctx,
        &ws.attn_scratch);
    row += chunk;
  }
  if (!batch.decode_seqs.empty()) {
    auto n_dec = batch.decode_seqs.size();
    BatchDecodeAttention(
        config, kv, batch.decode_seqs, layer,
        std::span<const float>(ws.q).subspan(row * h, n_dec * h),
        std::span<float>(ws.attn_out).subspan(row * h, n_dec * h), ctx,
        &ws.attn_scratch);
  }

  // Output projection (+LoRA) and residual. ws.normed is reused as the
  // projection result buffer.
  ProjectWithLora(config, weights, seg_lora, batch, layer, Proj::kO,
                  ws.attn_out, ws.normed, ws.lora_tmp, ctx);
  ctx.ParallelFor(static_cast<std::int64_t>(x.size()), kElemGrain,
                  [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      x[static_cast<std::size_t>(i)] += ws.normed[static_cast<std::size_t>(i)];
    }
  });

  // --- MLP block (SwiGLU) ---
  ctx.ParallelFor(tokens, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t t = lo; t < hi; ++t) {
      RmsNormRow(x.subspan(static_cast<std::size_t>(t) * h, h),
                 weights.mlp_norm.data(),
                 std::span<float>(ws.normed).subspan(
                     static_cast<std::size_t>(t) * h, h),
                 config.rms_eps);
    }
  });
  ProjectWithLora(config, weights, seg_lora, batch, layer, Proj::kGate,
                  ws.normed, ws.gate, ws.lora_tmp, ctx);
  ProjectWithLora(config, weights, seg_lora, batch, layer, Proj::kUp,
                  ws.normed, ws.up, ws.lora_tmp, ctx);
  SiluMulInPlace(ws.gate, ws.up, ctx);
  ProjectWithLora(config, weights, seg_lora, batch, layer, Proj::kDown,
                  ws.gate, ws.attn_out, ws.lora_tmp, ctx);
  ctx.ParallelFor(static_cast<std::int64_t>(x.size()), kElemGrain,
                  [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      x[static_cast<std::size_t>(i)] +=
          ws.attn_out[static_cast<std::size_t>(i)];
    }
  });
}

}  // namespace punica
