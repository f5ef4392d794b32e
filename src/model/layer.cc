#include "model/layer.h"

#include <cmath>

#include "tensor/gemm.h"
#include "tensor/simd.h"
#include "util/check.h"
#include "util/rng.h"

namespace punica {

LayerWeights LayerWeights::Random(const LlamaConfig& config,
                                  std::uint64_t seed) {
  LayerWeights w = Uninitialized(config);
  Pcg32 rng(seed);
  for (const GaussianFill& f : w.Fills(config, 0)) {
    FillGaussianF16(rng, f.scale, f.dst);
  }
  w.Quantize(config.weight_dtype);
  return w;
}

LayerWeights LayerWeights::Uninitialized(const LlamaConfig& config) {
  LayerWeights w;
  for (int p = 0; p < kNumProj; ++p) {
    ProjShape s = ShapeOf(config, static_cast<Proj>(p));
    w.proj[p] = WeightMatrix::FromF16(
        Tensor<f16>::Uninitialized({s.h_in, s.h_out}), WeightDtype::kF16);
  }
  w.attn_norm = Tensor<f16>({config.hidden_size});
  w.mlp_norm = Tensor<f16>({config.hidden_size});
  for (auto& v : w.attn_norm.data()) v = f16(1.0f);
  for (auto& v : w.mlp_norm.data()) v = f16(1.0f);
  return w;
}

std::array<GaussianFill, kNumProj> LayerWeights::Fills(
    const LlamaConfig& config, std::size_t stream) {
  std::array<GaussianFill, kNumProj> fills;
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
    fills[static_cast<std::size_t>(p)] = {stream, scale,
                                          proj[p].mutable_f16_data()};
  }
  return fills;
}

void LayerWeights::Quantize(WeightDtype dtype) {
  // The f16 masters are drawn the same at every dtype; the dtype selects
  // the storage, never the parameters.
  if (dtype == WeightDtype::kF16) return;
  for (WeightMatrix& m : proj) m = m.Requantize(dtype);
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
  std::vector<Pcg32> streams;
  std::vector<GaussianFill> fills;
  for (std::size_t l = 0; l < w.layers.size(); ++l) {
    for (int p = 0; p < kNumProj; ++p) {
      ProjShape s = ShapeOf(config, static_cast<Proj>(p));
      LoraAB& ab = w.layers[l].proj[p];
      ab = LoraAB::Uninitialized(s.h_in, s.h_out, rank);
      for (const GaussianFill& f : ab.Fills(streams.size())) {
        fills.push_back(f);
      }
      streams.emplace_back((seed * 1000003 + l) * 31 +
                           static_cast<std::uint64_t>(p));
    }
  }
  FillGaussianF16Parallel(streams, fills, ctx);
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
    Simd().silu_mul(gate.data() + lo, up.data() + lo,
                    static_cast<std::size_t>(hi - lo));
  });
}

}  // namespace punica
