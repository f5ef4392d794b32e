#include "model/layer.h"

#include <cmath>

#include "tensor/gemm.h"
#include "util/check.h"
#include "util/rng.h"

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

namespace {

/// Grain for the elementwise SiLU·up loop: small enough to split across
/// workers on big FFN buffers, large enough that a tiny decode batch runs
/// inline.
constexpr std::int64_t kElemGrain = 4096;

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

}  // namespace punica
