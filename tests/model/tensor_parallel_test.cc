#include "model/tensor_parallel.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "model/attention.h"
#include "model/llama.h"
#include "util/rng.h"

namespace punica {
namespace {

KvCacheConfig KvCfg(const LlamaConfig& c) {
  return {.num_layers = c.num_layers,
          .num_kv_heads = c.num_kv_heads,
          .head_dim = c.head_dim(),
          .page_size = 4,
          .num_pages = 128};
}

// The mixed LoRA batch (6 token rows): lora 0 prefill, backbone prefill,
// lora 1 decode over 2 positions of random history.
ModelBatch MixedLoraBatch(PagedKvCache& kv) {
  SeqId sa = kv.CreateSequence();
  EXPECT_TRUE(kv.Extend(sa, 3));
  SeqId sb = kv.CreateSequence();
  EXPECT_TRUE(kv.Extend(sb, 2));
  SeqId sc = kv.CreateSequence();
  EXPECT_TRUE(kv.Extend(sc, 3));
  Pcg32 kv_rng(70);
  for (std::int64_t p = 0; p < 2; ++p) {
    auto ke = kv.Entry(sc, 0, p, KvSlot::kKey);
    auto ve = kv.Entry(sc, 0, p, KvSlot::kValue);
    for (std::size_t d = 0; d < ke.size(); ++d) {
      ke[d] = f16(static_cast<float>(kv_rng.NextGaussian()) * 0.3f);
      ve[d] = f16(static_cast<float>(kv_rng.NextGaussian()) * 0.3f);
    }
  }
  return ModelBatch::Build(
      {{.seq = sa, .lora = 0, .num_tokens = 3, .pos_offset = 0,
        .is_prefill = true},
       {.seq = sb, .lora = -1, .num_tokens = 2, .pos_offset = 0,
        .is_prefill = true},
       {.seq = sc, .lora = 1, .num_tokens = 1, .pos_offset = 2,
        .is_prefill = false}});
}

// --- Plain-loop oracle -----------------------------------------------------
// One transformer layer written from the math alone: naive matmuls, naive
// x·A·B LoRA, RoPE from the RopeTable, naive causal softmax over the cache
// and SwiGLU, accumulating in double. It shares no code with the layer body
// beyond RoPE and the cache accessors. Dense weights are read back from the
// rank shards through DequantRow — the values the kernels compute with —
// so quantized shards are checked without a quantization-noise tolerance.

/// The rank shards of projection p reassembled into one [h_in, h_out]
/// matrix: column-parallel seams concatenate columns, row-parallel rows.
std::vector<float> DenseWeight(const TpShardedLayer& layer, Proj p) {
  const bool row_parallel = p == Proj::kO || p == Proj::kDown;
  const auto tp = static_cast<std::int64_t>(layer.ranks.size());
  const WeightMatrix& w0 = layer.ranks[0].proj[static_cast<int>(p)];
  const std::int64_t rows = w0.dim(0) * (row_parallel ? tp : 1);
  const std::int64_t cols = w0.dim(1) * (row_parallel ? 1 : tp);
  std::vector<float> dense(static_cast<std::size_t>(rows * cols));
  for (std::int64_t r = 0; r < tp; ++r) {
    const WeightMatrix& w =
        layer.ranks[static_cast<std::size_t>(r)].proj[static_cast<int>(p)];
    std::vector<float> row(static_cast<std::size_t>(w.dim(1)));
    for (std::int64_t i = 0; i < w.dim(0); ++i) {
      w.DequantRow(i, row);
      const std::int64_t out_row = row_parallel ? r * w.dim(0) + i : i;
      const std::int64_t col0 = row_parallel ? 0 : r * w.dim(1);
      std::copy(row.begin(), row.end(),
                dense.begin() + out_row * cols + col0);
    }
  }
  return dense;
}

/// Runs layer `l` over x ([tokens, h]) in place. `row_lora[t]` is token
/// row t's full (unsharded) adapter model, nullptr for backbone rows. Each
/// row's K/V goes into `kv` rounded to f16, as the cache stores it.
void ReferenceLayer(const LlamaConfig& c, const TpShardedLayer& layer,
                    std::span<const LoraModelWeights* const> row_lora,
                    const ModelBatch& batch, int l, PagedKvCache& kv,
                    std::vector<float>& x) {
  const int tokens = batch.total_tokens();
  const int h = c.hidden_size;
  const int d = c.head_dim();
  const auto at = [](int row, int width, int col) {
    return static_cast<std::size_t>(row) * static_cast<std::size_t>(width) +
           static_cast<std::size_t>(col);
  };
  const auto project = [&](const std::vector<float>& in, Proj p) {
    const ProjShape s = ShapeOf(c, p);
    const std::vector<float> w = DenseWeight(layer, p);
    std::vector<float> out(static_cast<std::size_t>(tokens * s.h_out));
    for (int t = 0; t < tokens; ++t) {
      for (int j = 0; j < s.h_out; ++j) {
        double acc = 0.0;
        for (int i = 0; i < s.h_in; ++i) {
          acc += static_cast<double>(in[at(t, s.h_in, i)]) *
                 w[at(i, s.h_out, j)];
        }
        out[at(t, s.h_out, j)] = static_cast<float>(acc);
      }
      const LoraModelWeights* lora = row_lora[static_cast<std::size_t>(t)];
      if (lora == nullptr) continue;
      const LoraAB& ab = lora->layers[static_cast<std::size_t>(l)]
                             .proj[static_cast<int>(p)];
      std::vector<double> v(static_cast<std::size_t>(ab.rank), 0.0);
      for (int k = 0; k < ab.rank; ++k) {
        for (int i = 0; i < s.h_in; ++i) {
          v[static_cast<std::size_t>(k)] +=
              static_cast<double>(in[at(t, s.h_in, i)]) *
              ab.a.at({i, k}).ToFloat();
        }
      }
      for (int j = 0; j < s.h_out; ++j) {
        double acc = 0.0;
        for (int k = 0; k < ab.rank; ++k) {
          acc += v[static_cast<std::size_t>(k)] * ab.b.at({k, j}).ToFloat();
        }
        out[at(t, s.h_out, j)] += static_cast<float>(acc);
      }
    }
    return out;
  };
  const auto rms_norm = [&](const Tensor<f16>& weight) {
    std::vector<float> out(x.size());
    for (int t = 0; t < tokens; ++t) {
      double ss = 0.0;
      for (int i = 0; i < h; ++i) ss += double{x[at(t, h, i)]} * x[at(t, h, i)];
      const double inv = 1.0 / std::sqrt(ss / h + c.rms_eps);
      for (int i = 0; i < h; ++i) {
        out[at(t, h, i)] = static_cast<float>(
            x[at(t, h, i)] * inv * weight.data()[static_cast<std::size_t>(i)]
                                       .ToFloat());
      }
    }
    return out;
  };

  // Attention block.
  std::vector<float> normed = rms_norm(layer.ranks[0].attn_norm);
  std::vector<float> q = project(normed, Proj::kQ);
  std::vector<float> k = project(normed, Proj::kK);
  std::vector<float> v = project(normed, Proj::kV);
  RopeTable rope;
  rope.Build(batch.row_pos, d, c.rope_theta, ComputeContext::Default());
  const int kvd = c.kv_dim();
  for (int t = 0; t < tokens; ++t) {
    const auto row = static_cast<std::size_t>(t);
    rope.Apply(row, std::span<float>(q).subspan(at(t, h, 0), h), c.num_heads);
    rope.Apply(row, std::span<float>(k).subspan(at(t, kvd, 0), kvd),
               c.num_kv_heads);
    const SeqId seq = batch.row_seq[row];
    const std::int64_t pos = batch.row_pos[row];
    auto ke = kv.Entry(seq, l, pos, KvSlot::kKey);
    auto ve = kv.Entry(seq, l, pos, KvSlot::kValue);
    for (int i = 0; i < kvd; ++i) {
      ke[static_cast<std::size_t>(i)] = f16(k[at(t, kvd, i)]);
      ve[static_cast<std::size_t>(i)] = f16(v[at(t, kvd, i)]);
    }
  }
  std::vector<float> attn(x.size());
  const int group = c.num_heads / c.num_kv_heads;
  for (int t = 0; t < tokens; ++t) {
    const SeqId seq = batch.row_seq[static_cast<std::size_t>(t)];
    const std::int64_t pos = batch.row_pos[static_cast<std::size_t>(t)];
    for (int head = 0; head < c.num_heads; ++head) {
      const int kv_off = (head / group) * d;
      std::vector<double> score;
      for (std::int64_t p = 0; p <= pos; ++p) {  // causal
        auto ke = kv.Entry(seq, l, p, KvSlot::kKey);
        double dot = 0.0;
        for (int i = 0; i < d; ++i) {
          dot += double{q[at(t, h, head * d + i)]} *
                 ke[static_cast<std::size_t>(kv_off + i)].ToFloat();
        }
        score.push_back(dot / std::sqrt(static_cast<double>(d)));
      }
      const double m = *std::max_element(score.begin(), score.end());
      double denom = 0.0;
      for (double& sc : score) denom += (sc = std::exp(sc - m));
      for (int i = 0; i < d; ++i) {
        double acc = 0.0;
        for (std::int64_t p = 0; p <= pos; ++p) {
          acc += score[static_cast<std::size_t>(p)] *
                 kv.Entry(seq, l, p, KvSlot::kValue)[
                       static_cast<std::size_t>(kv_off + i)].ToFloat();
        }
        attn[at(t, h, head * d + i)] = static_cast<float>(acc / denom);
      }
    }
  }
  std::vector<float> o = project(attn, Proj::kO);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += o[i];

  // MLP block (SwiGLU).
  normed = rms_norm(layer.ranks[0].mlp_norm);
  std::vector<float> gate = project(normed, Proj::kGate);
  const std::vector<float> up = project(normed, Proj::kUp);
  for (std::size_t i = 0; i < gate.size(); ++i) {
    const double g = gate[i];
    gate[i] = static_cast<float>(g / (1.0 + std::exp(-g)) * up[i]);
  }
  std::vector<float> down = project(gate, Proj::kDown);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += down[i];
}

// The layer body against the oracle at tp 1 (LayerForward) and 2
// (TpLayerForward over sharded weights and adapters), f16 and q8_0, on the
// mixed prefill/decode batch with two LoRA segments of different ranks.
TEST(TpLayerOracleTest, BodyMatchesPlainLoopReference) {
  for (WeightDtype dtype : {WeightDtype::kF16, WeightDtype::kQ8_0}) {
    for (int tp : {1, 2}) {
      SCOPED_TRACE(std::string(WeightDtypeName(dtype)) + " tp " +
                   std::to_string(tp));
      LlamaConfig c = TinyLlama();
      c.weight_dtype = dtype;
      TpShardedLayer layer;
      if (tp == 1) {
        layer.ranks.push_back(LayerWeights::Random(c, 17));
      } else {
        layer = ShardLayer(c, LayerWeights::Random(TinyLlama(), 17), tp);
      }
      const LoraModelWeights lora_a = LoraModelWeights::Random(c, 5, 21);
      const LoraModelWeights lora_b = LoraModelWeights::Random(c, 8, 22);

      Pcg32 rng(9);
      const auto x0 = RandomGaussianVector(
          6 * static_cast<std::size_t>(c.hidden_size), 1.0f, rng);

      PagedKvCache kv_ref(KvCfg(c));
      const ModelBatch b_ref = MixedLoraBatch(kv_ref);
      std::vector<const LoraModelWeights*> row_lora;
      for (const BatchEntry& e : b_ref.entries) {
        for (int j = 0; j < e.num_tokens; ++j) {
          row_lora.push_back(e.lora == 0   ? &lora_a
                             : e.lora == 1 ? &lora_b
                                           : nullptr);
        }
      }
      auto x_ref = x0;
      ReferenceLayer(c, layer, row_lora, b_ref, 0, kv_ref, x_ref);

      PagedKvCache kv(KvCfg(c));
      const ModelBatch b = MixedLoraBatch(kv);
      auto x = x0;
      if (tp == 1) {
        std::vector<const LoraModelWeights*> seg;
        for (LoraId id : b.segments.lora_ids) {
          seg.push_back(id == 0 ? &lora_a : id == 1 ? &lora_b : nullptr);
        }
        LayerWorkspace ws;
        LayerForward(c, layer.ranks[0], seg, b, 0, kv, x, ws);
      } else {
        const TpShardedLora lora_a_tp = ShardLoraModel(c, lora_a, tp);
        const TpShardedLora lora_b_tp = ShardLoraModel(c, lora_b, tp);
        std::vector<const TpShardedLora*> seg;
        for (LoraId id : b.segments.lora_ids) {
          seg.push_back(id == 0 ? &lora_a_tp : id == 1 ? &lora_b_tp : nullptr);
        }
        TpLayerForward(c, layer, b, 0, kv, x, ComputeContext::Default(), seg);
      }

      // Only the fp32-vs-double accumulation order differs (~3e-6 seen);
      // the cache may differ by one f16 rounding step.
      for (std::size_t i = 0; i < x.size(); ++i) {
        ASSERT_NEAR(x[i], x_ref[i], 1e-4f) << "activation " << i;
      }
      for (std::size_t e = 0; e < b.entries.size(); ++e) {
        const SeqId s = b.entries[e].seq;
        const SeqId s_ref = b_ref.entries[e].seq;
        for (std::int64_t pos = 0; pos < kv.SeqLen(s); ++pos) {
          for (auto slot : {KvSlot::kKey, KvSlot::kValue}) {
            auto got = kv.Entry(s, 0, pos, slot);
            auto want = kv_ref.Entry(s_ref, 0, pos, slot);
            for (std::size_t i = 0; i < got.size(); ++i) {
              ASSERT_NEAR(got[i].ToFloat(), want[i].ToFloat(), 2e-3f)
                  << "kv entry " << e << " pos " << pos;
            }
          }
        }
      }
    }
  }
}

TEST(RankConfigTest, DividesHeadsAndFfn) {
  LlamaConfig c = TinyLlama();  // H=4, N=2, F=128
  LlamaConfig r = RankConfig(c, 2);
  EXPECT_EQ(r.num_heads, 2);
  EXPECT_EQ(r.num_kv_heads, 1);
  EXPECT_EQ(r.ffn_hidden, 64);
  EXPECT_EQ(r.hidden_size, c.hidden_size);  // replicated activations
}

TEST(RankConfigDeathTest, IndivisibleAborts) {
  LlamaConfig c = TinyLlama();
  EXPECT_DEATH(RankConfig(c, 3), "divide");
}

TEST(ShardLayerTest, ShapesAndMemory) {
  LlamaConfig c = TinyLlama();
  LayerWeights full = LayerWeights::Random(c, 5);
  TpShardedLayer sharded = ShardLayer(c, full, 2);
  ASSERT_EQ(sharded.ranks.size(), 2u);
  const auto& r0 = sharded.ranks[0];
  EXPECT_EQ(r0.proj[static_cast<int>(Proj::kQ)].dim(1),
            c.hidden_size / 2);                              // head columns
  EXPECT_EQ(r0.proj[static_cast<int>(Proj::kK)].dim(1), c.kv_dim() / 2);
  EXPECT_EQ(r0.proj[static_cast<int>(Proj::kO)].dim(0), c.hidden_size / 2);
  EXPECT_EQ(r0.proj[static_cast<int>(Proj::kGate)].dim(1),
            c.ffn_hidden / 2);
  EXPECT_EQ(r0.proj[static_cast<int>(Proj::kDown)].dim(0),
            c.ffn_hidden / 2);
  // Per-rank memory is 1/tp of the layer (plus replicated norms).
  EXPECT_EQ(RankLayerBytes(c, 2),
            c.layer_weight_bytes() / 2 + c.hidden_size * 4);
}

TEST(ShardLayerTest, ShardsPartitionTheFullMatrix) {
  LlamaConfig c = TinyLlama();
  LayerWeights full = LayerWeights::Random(c, 6);
  TpShardedLayer sharded = ShardLayer(c, full, 2);
  // Column slices of Q reassemble the original.
  const auto& wq = full.proj[static_cast<int>(Proj::kQ)];
  std::int64_t half = wq.dim(1) / 2;
  for (std::int64_t i = 0; i < wq.dim(0); ++i) {
    for (std::int64_t j = 0; j < wq.dim(1); ++j) {
      const auto& shard =
          sharded.ranks[static_cast<std::size_t>(j / half)]
              .proj[static_cast<int>(Proj::kQ)];
      EXPECT_TRUE(wq.at({i, j}) == shard.at({i, j % half}));
    }
  }
}

TEST(ShardLayerTest, QuantizedShardsKeepDtypeAndScaledBytes) {
  // The master weights stay f16; ShardLayer slices the f16 tensor and
  // quantizes each shard to config.weight_dtype (shard-local blocks).
  LlamaConfig c = TinyLlama();
  c.weight_dtype = WeightDtype::kQ8_0;
  LayerWeights full = LayerWeights::Random(TinyLlama(), 5);
  TpShardedLayer sharded = ShardLayer(c, full, 2);
  ASSERT_EQ(sharded.ranks.size(), 2u);
  for (const auto& rank : sharded.ranks) {
    for (int p = 0; p < kNumProj; ++p) {
      EXPECT_EQ(rank.proj[p].dtype(), WeightDtype::kQ8_0);
    }
    // Column-sharded Gate keeps block-multiple rows: bytes halve exactly.
    const auto& gate = rank.proj[static_cast<int>(Proj::kGate)];
    EXPECT_EQ(gate.byte_size(),
              WeightBytesFor(c.hidden_size * c.ffn_hidden / 2,
                             WeightDtype::kQ8_0));
  }
  // The per-rank accounting helper scales with the dtype too.
  EXPECT_LT(RankLayerBytes(c, 2), RankLayerBytes(TinyLlama(), 2));
}

TEST(TpEquivalenceTest, QuantizedShardsMatchF16WithinQuantTolerance) {
  // Shards quantize their own column/row slices (block boundaries differ
  // from the full matrix), so the TP forward is only close to — not
  // bit-equal with — the single-GPU f16 forward. The gap must stay at the
  // q8 quantization noise floor.
  LlamaConfig f16c = TinyLlama();
  LlamaConfig qc = TinyLlama();
  qc.weight_dtype = WeightDtype::kQ8_0;
  LayerWeights full_f16 = LayerWeights::Random(f16c, 17);
  TpShardedLayer sharded = ShardLayer(qc, full_f16, 2);

  auto setup = [&](PagedKvCache& kv, ModelBatch* batch) {
    SeqId s = kv.CreateSequence();
    EXPECT_TRUE(kv.Extend(s, 3));
    *batch = ModelBatch::Build({{.seq = s, .lora = -1, .num_tokens = 3,
                                 .pos_offset = 0, .is_prefill = true}});
  };
  Pcg32 rng(9);
  auto h = static_cast<std::size_t>(f16c.hidden_size);
  auto x0 = RandomGaussianVector(3 * h, 1.0f, rng);

  PagedKvCache kv_ref(KvCfg(f16c));
  ModelBatch batch_ref;
  setup(kv_ref, &batch_ref);
  auto x_ref = x0;
  std::vector<const LoraModelWeights*> no_lora(
      static_cast<std::size_t>(batch_ref.segments.num_segments()), nullptr);
  LayerWorkspace ws;
  ws.Resize(f16c, 3, 1);
  LayerForward(f16c, full_f16, no_lora, batch_ref, 0, kv_ref, x_ref, ws);

  PagedKvCache kv_tp(KvCfg(qc));
  ModelBatch batch_tp;
  setup(kv_tp, &batch_tp);
  auto x_tp = x0;
  TpLayerForward(qc, sharded, batch_tp, 0, kv_tp, x_tp);

  for (std::size_t i = 0; i < x_ref.size(); ++i) {
    ASSERT_NEAR(x_tp[i], x_ref[i], 5e-2f) << "activation " << i;
  }
}

struct TpCase {
  LlamaConfig config;
  int tp;
};

class TpEquivalenceSweep : public ::testing::TestWithParam<int> {};

// The core property: a tensor-parallel layer produces the same activations
// and the same KvCache contents as the single-GPU layer (up to fp32
// reduction-order error).
TEST_P(TpEquivalenceSweep, MatchesSingleGpuLayer) {
  int tp = GetParam();
  LlamaConfig c = tp == 3 ? TinyLlama4L() : TinyLlama();
  LayerWeights full = LayerWeights::Random(c, 17);
  TpShardedLayer sharded = ShardLayer(c, full, tp);

  // Mixed batch: one 3-token prefill + one decode with 2 tokens of history.
  auto setup = [&](PagedKvCache& kv, ModelBatch* batch) {
    SeqId sa = kv.CreateSequence();
    EXPECT_TRUE(kv.Extend(sa, 3));
    SeqId sb = kv.CreateSequence();
    EXPECT_TRUE(kv.Extend(sb, 3));
    Pcg32 kv_rng(70);
    for (std::int64_t p = 0; p < 2; ++p) {
      auto ke = kv.Entry(sb, 0, p, KvSlot::kKey);
      auto ve = kv.Entry(sb, 0, p, KvSlot::kValue);
      for (std::size_t d = 0; d < ke.size(); ++d) {
        ke[d] = f16(static_cast<float>(kv_rng.NextGaussian()) * 0.3f);
        ve[d] = f16(static_cast<float>(kv_rng.NextGaussian()) * 0.3f);
      }
    }
    *batch = ModelBatch::Build(
        {{.seq = sa, .lora = -1, .num_tokens = 3, .pos_offset = 0,
          .is_prefill = true},
         {.seq = sb, .lora = -1, .num_tokens = 1, .pos_offset = 2,
          .is_prefill = false}});
  };

  Pcg32 rng(9);
  auto h = static_cast<std::size_t>(c.hidden_size);
  auto x0 = RandomGaussianVector(4 * h, 1.0f, rng);

  PagedKvCache kv_ref(KvCfg(c));
  ModelBatch batch_ref;
  setup(kv_ref, &batch_ref);
  auto x_ref = x0;
  std::vector<const LoraModelWeights*> no_lora(
      static_cast<std::size_t>(batch_ref.segments.num_segments()), nullptr);
  LayerWorkspace ws;
  ws.Resize(c, 4, 1);
  LayerForward(c, full, no_lora, batch_ref, 0, kv_ref, x_ref, ws);

  PagedKvCache kv_tp(KvCfg(c));
  ModelBatch batch_tp;
  setup(kv_tp, &batch_tp);
  auto x_tp = x0;
  TpLayerForward(c, sharded, batch_tp, 0, kv_tp, x_tp);

  for (std::size_t i = 0; i < x_ref.size(); ++i) {
    ASSERT_NEAR(x_tp[i], x_ref[i], 2e-3f) << "activation " << i;
  }
  // KvCache contents written by the sharded ranks must equal the reference.
  for (SeqId s : {batch_ref.entries[0].seq, batch_ref.entries[1].seq}) {
    for (std::int64_t pos = 0; pos < kv_ref.SeqLen(s); ++pos) {
      auto ref_k = kv_ref.Entry(s, 0, pos, KvSlot::kKey);
      auto tp_k = kv_tp.Entry(s, 0, pos, KvSlot::kValue);
      auto ref_k2 = kv_ref.Entry(s, 0, pos, KvSlot::kKey);
      auto tp_k2 = kv_tp.Entry(s, 0, pos, KvSlot::kKey);
      for (std::size_t d = 0; d < ref_k.size(); ++d) {
        ASSERT_NEAR(tp_k2[d].ToFloat(), ref_k2[d].ToFloat(), 2e-3f);
      }
      (void)tp_k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Degrees, TpEquivalenceSweep,
                         ::testing::Values(1, 2, 3));

TEST(TpEquivalenceTest, MultiLayerStackMatches) {
  // Chain all layers of the tiny model through TP and compare final
  // activations with the single-GPU chain.
  LlamaConfig c = TinyLlama();
  const int tp = 2;
  std::vector<LayerWeights> layers;
  std::vector<TpShardedLayer> sharded;
  for (int l = 0; l < c.num_layers; ++l) {
    layers.push_back(LayerWeights::Random(
        c, 100 + static_cast<std::uint64_t>(l)));
    sharded.push_back(ShardLayer(c, layers.back(), tp));
  }

  Pcg32 rng(3);
  auto h = static_cast<std::size_t>(c.hidden_size);
  const int tokens = 5;
  auto x0 = RandomGaussianVector(static_cast<std::size_t>(tokens) * h, 1.0f,
                                 rng);

  PagedKvCache kv_ref(KvCfg(c));
  SeqId s_ref = kv_ref.CreateSequence();
  ASSERT_TRUE(kv_ref.Extend(s_ref, tokens));
  ModelBatch b_ref = ModelBatch::Build({{.seq = s_ref, .lora = -1,
                                         .num_tokens = tokens,
                                         .pos_offset = 0,
                                         .is_prefill = true}});
  auto x_ref = x0;
  std::vector<const LoraModelWeights*> no_lora(1, nullptr);
  LayerWorkspace ws;
  ws.Resize(c, tokens, 1);
  for (int l = 0; l < c.num_layers; ++l) {
    LayerForward(c, layers[static_cast<std::size_t>(l)], no_lora, b_ref, l,
                 kv_ref, x_ref, ws);
  }

  PagedKvCache kv_tp(KvCfg(c));
  SeqId s_tp = kv_tp.CreateSequence();
  ASSERT_TRUE(kv_tp.Extend(s_tp, tokens));
  ModelBatch b_tp = ModelBatch::Build({{.seq = s_tp, .lora = -1,
                                        .num_tokens = tokens,
                                        .pos_offset = 0,
                                        .is_prefill = true}});
  auto x_tp = x0;
  for (int l = 0; l < c.num_layers; ++l) {
    TpLayerForward(c, sharded[static_cast<std::size_t>(l)], b_tp, l, kv_tp,
                   x_tp);
  }

  // Error compounds across layers; scale tolerance with activation size.
  float scale = 0.0f;
  for (float v : x_ref) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < x_ref.size(); ++i) {
    ASSERT_NEAR(x_tp[i], x_ref[i], scale * 5e-3f + 1e-3f) << i;
  }
}

// The tentpole contract: concurrent rank execution (one rank per disjoint
// worker group) is BIT-identical to the serial rank loop — same activations,
// same KvCache bytes — at any thread count, because both modes compute the
// identical fp32 expression per element and meet only at the
// fixed-rank-order all-reduce.
class TpConcurrencySweep : public ::testing::TestWithParam<int> {};

TEST_P(TpConcurrencySweep, ConcurrentMatchesSerialBitExact) {
  const int tp = GetParam();
  LlamaConfig c = tp == 3 ? TinyLlama4L() : TinyLlama();
  LayerWeights full = LayerWeights::Random(c, 17);
  TpShardedLayer sharded = ShardLayer(c, full, tp);

  auto setup = [&](PagedKvCache& kv, ModelBatch* batch) {
    SeqId sa = kv.CreateSequence();
    EXPECT_TRUE(kv.Extend(sa, 3));
    SeqId sb = kv.CreateSequence();
    EXPECT_TRUE(kv.Extend(sb, 3));
    Pcg32 kv_rng(70);
    for (std::int64_t p = 0; p < 2; ++p) {
      auto ke = kv.Entry(sb, 0, p, KvSlot::kKey);
      auto ve = kv.Entry(sb, 0, p, KvSlot::kValue);
      for (std::size_t d = 0; d < ke.size(); ++d) {
        ke[d] = f16(static_cast<float>(kv_rng.NextGaussian()) * 0.3f);
        ve[d] = f16(static_cast<float>(kv_rng.NextGaussian()) * 0.3f);
      }
    }
    *batch = ModelBatch::Build(
        {{.seq = sa, .lora = -1, .num_tokens = 3, .pos_offset = 0,
          .is_prefill = true},
         {.seq = sb, .lora = -1, .num_tokens = 1, .pos_offset = 2,
          .is_prefill = false}});
  };

  Pcg32 rng(9);
  auto h = static_cast<std::size_t>(c.hidden_size);
  auto x0 = RandomGaussianVector(4 * h, 1.0f, rng);

  auto bits = [](float v) {
    std::uint32_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
  };

  // Reference: serial rank loop on a width-1 context.
  ComputeContext ctx1({.num_threads = 1});
  PagedKvCache kv_ref(KvCfg(c));
  ModelBatch b_ref;
  setup(kv_ref, &b_ref);
  auto x_ref = x0;
  TpWorkspace ws_ref;
  TpLayerForward(c, sharded, b_ref, 0, kv_ref, x_ref, ws_ref, ctx1, {});

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ComputeContext ctx({.num_threads = threads});
    for (bool concurrent : {false, true}) {
      SCOPED_TRACE(concurrent ? "concurrent" : "serial");
      std::vector<std::unique_ptr<ComputeContext>> views;
      std::vector<const ComputeContext*> ptrs;
      if (concurrent) {
        views = ctx.Split(tp);
        for (const auto& v : views) ptrs.push_back(v.get());
      }
      PagedKvCache kv(KvCfg(c));
      ModelBatch b;
      setup(kv, &b);
      auto x = x0;
      TpWorkspace ws;
      TpLayerForward(c, sharded, b, 0, kv, x, ws, ctx,
                     std::span<const ComputeContext* const>(ptrs));
      for (std::size_t i = 0; i < x.size(); ++i) {
        ASSERT_EQ(bits(x[i]), bits(x_ref[i])) << "activation " << i;
      }
      for (std::size_t e = 0; e < b.entries.size(); ++e) {
        SeqId s = b.entries[e].seq;
        SeqId s_ref = b_ref.entries[e].seq;
        for (std::int64_t pos = 0; pos < kv.SeqLen(s); ++pos) {
          for (auto slot : {KvSlot::kKey, KvSlot::kValue}) {
            auto got = kv.Entry(s, 0, pos, slot);
            auto want = kv_ref.Entry(s_ref, 0, pos, slot);
            ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                  got.size() * sizeof(f16)),
                      0)
                << "kv entry seq=" << e << " pos=" << pos;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Degrees, TpConcurrencySweep,
                         ::testing::Values(1, 2, 3));

TEST(ShardLoraModelTest, SeamShapesAndReplication) {
  LlamaConfig c = TinyLlama();  // H=4, N=2, F=128
  const int rank = 5;  // odd on purpose: the rank dim is never sharded
  LoraModelWeights full = LoraModelWeights::Random(c, rank, 7);
  TpShardedLora sharded = ShardLoraModel(c, full, 2);
  ASSERT_EQ(sharded.ranks.size(), 2u);
  EXPECT_EQ(sharded.rank, rank);
  const auto& l0 = sharded.ranks[0].layers[0];
  const int d = c.head_dim();
  // Column-parallel seams: A replicated [h_in, rank], B sliced [rank,
  // h_out/tp].
  const auto& q = l0.proj[static_cast<int>(Proj::kQ)];
  EXPECT_EQ(q.a.dim(0), c.hidden_size);
  EXPECT_EQ(q.a.dim(1), rank);
  EXPECT_EQ(q.b.dim(0), rank);
  EXPECT_EQ(q.b.dim(1), (c.num_heads / 2) * d);
  const auto& gate = l0.proj[static_cast<int>(Proj::kGate)];
  EXPECT_EQ(gate.b.dim(1), c.ffn_hidden / 2);
  // Row-parallel seams: A sliced [h_in/tp, rank], B replicated [rank,
  // h_out].
  const auto& o = l0.proj[static_cast<int>(Proj::kO)];
  EXPECT_EQ(o.a.dim(0), (c.num_heads / 2) * d);
  EXPECT_EQ(o.a.dim(1), rank);
  EXPECT_EQ(o.b.dim(0), rank);
  EXPECT_EQ(o.b.dim(1), c.hidden_size);
  const auto& down = l0.proj[static_cast<int>(Proj::kDown)];
  EXPECT_EQ(down.a.dim(0), c.ffn_hidden / 2);
  EXPECT_EQ(down.b.dim(1), c.hidden_size);
  // Replicated tensors are bit-equal across ranks; sliced ones partition
  // the master (spot-check B of Q: rank r owns columns [r·h/2, (r+1)·h/2)).
  const auto& full_q = full.layers[0].proj[static_cast<int>(Proj::kQ)];
  for (int r = 0; r < 2; ++r) {
    const auto& shard_q =
        sharded.ranks[static_cast<std::size_t>(r)].layers[0]
            .proj[static_cast<int>(Proj::kQ)];
    for (std::int64_t i = 0; i < full_q.a.dim(0); ++i) {
      for (std::int64_t j = 0; j < rank; ++j) {
        EXPECT_TRUE(shard_q.a.at({i, j}) == full_q.a.at({i, j}));
      }
    }
    std::int64_t half = full_q.b.dim(1) / 2;
    for (std::int64_t i = 0; i < rank; ++i) {
      for (std::int64_t j = 0; j < half; ++j) {
        EXPECT_TRUE(shard_q.b.at({i, j}) == full_q.b.at({i, j + r * half}));
      }
    }
  }
}

// A config whose heads, KV heads and FFN divide by 4, with a hidden size
// past one 256-wide split-K chunk (two shrink partitions on every column
// seam).
LlamaConfig SplitKConfig() {
  return {.name = "split-k",
          .hidden_size = 512,
          .num_layers = 1,
          .num_heads = 8,
          .num_kv_heads = 4,
          .ffn_hidden = 1024,
          .vocab_size = 256};
}

// Every replicated factor — A of a column-parallel seam, B of a
// row-parallel one — is one allocation all ranks alias; the sliced factor
// is each rank's own.
TEST(ShardLoraModelTest, ReplicatedFactorsAreOneAllocation) {
  LlamaConfig c = SplitKConfig();
  LoraModelWeights full = LoraModelWeights::Random(c, 8, 41);
  for (int tp : {2, 4}) {
    SCOPED_TRACE("tp=" + std::to_string(tp));
    TpShardedLora sharded = ShardLoraModel(c, full, tp);
    for (int p = 0; p < kNumProj; ++p) {
      const bool col = p != static_cast<int>(Proj::kO) &&
                       p != static_cast<int>(Proj::kDown);
      const LoraAB& r0 = sharded.ranks[0].layers[0].proj[p];
      for (std::size_t r = 1; r < sharded.ranks.size(); ++r) {
        const LoraAB& ab = sharded.ranks[r].layers[0].proj[p];
        EXPECT_EQ(col ? ab.a.raw() : ab.b.raw(),
                  col ? r0.a.raw() : r0.b.raw())
            << "proj " << p << " rank " << r;
        EXPECT_NE(col ? ab.b.raw() : ab.a.raw(),
                  col ? r0.b.raw() : r0.a.raw())
            << "proj " << p << " rank " << r;
      }
    }
  }
}

// Nothing is held twice: an adapter's stored bytes are its tp = 1 bytes at
// every tp, through ShardLoraModel and through LlamaModel::AddLora.
TEST(ShardLoraModelTest, StoredBytesEqualTp1Bytes) {
  LlamaConfig c = SplitKConfig();
  LoraModelWeights full = LoraModelWeights::Random(c, 16, 43);
  const std::size_t want = full.byte_size();
  ComputeContext ctx({.num_threads = 2});
  for (int tp : {1, 2, 4}) {
    SCOPED_TRACE("tp=" + std::to_string(tp));
    EXPECT_EQ(ShardLoraModel(c, full, tp).byte_size(), want);
    LlamaModel model(c, 5, &ctx, tp);
    model.AddLora(0, 16, 43);
    const TpShardedLora* shards = model.GetLoraShards(0);
    EXPECT_EQ(tp == 1 ? model.GetLora(0)->byte_size() : shards->byte_size(),
              want);
  }
}

// The column seams' shrink runs once per row for all ranks (over the
// shared A) and each rank expands through its B slice. Per rank and seam
// that is bit for bit the per-rank addon it replaced — BatchedLoraAddon
// over the rank's own (A, B_r) — at tp 1, 2 and 4, with uniform and with
// mixed adapter ranks, for any split of the rows over the shrink.
TEST(TpLoraShrinkOnceTest, MatchesPerRankAddonBitExact) {
  LlamaConfig c = SplitKConfig();
  // A prefill + decode batch: a 6-row prefill on adapter a, a 3-row
  // backbone prefill, then decodes on adapters b, a, b.
  const std::vector<std::int32_t> seg = {0, 6, 9, 10, 11, 12};
  const int rows = seg.back();
  Pcg32 rng(12);
  const auto x = RandomGaussianVector(
      static_cast<std::size_t>(rows) * c.hidden_size, 1.0f, rng);
  ComputeContext ctx({.num_threads = 2});
  for (bool mixed : {false, true}) {
    SCOPED_TRACE(mixed ? "mixed ranks" : "uniform rank");
    LoraModelWeights lora_a = LoraModelWeights::Random(c, 16, 51);
    LoraModelWeights lora_b = LoraModelWeights::Random(c, mixed ? 8 : 16, 52);
    for (int tp : {1, 2, 4}) {
      SCOPED_TRACE("tp=" + std::to_string(tp));
      const TpShardedLora a_tp = ShardLoraModel(c, lora_a, tp);
      const TpShardedLora b_tp = ShardLoraModel(c, lora_b, tp);
      const auto adapters = [&](std::size_t r, Proj p) {
        const LoraAB* a = &a_tp.ranks[r].layers[0].proj[static_cast<int>(p)];
        const LoraAB* b = &b_tp.ranks[r].layers[0].proj[static_cast<int>(p)];
        return std::vector<const LoraAB*>{a, nullptr, b, a, b};
      };
      for (Proj p : {Proj::kQ, Proj::kK, Proj::kV, Proj::kGate, Proj::kUp}) {
        SCOPED_TRACE("proj " + std::to_string(static_cast<int>(p)));
        std::vector<float> v(static_cast<std::size_t>(rows) * 16, NAN);
        const std::vector<const LoraAB*> shared = adapters(0, p);
        for (std::int32_t lo = 0; lo < rows; lo += 5) {
          LoraShrinkRows(v, x, shared, seg, c.hidden_size, 16, lo,
                         std::min(rows, lo + 5));
        }
        for (int r = 0; r < tp; ++r) {
          const std::vector<const LoraAB*> own =
              adapters(static_cast<std::size_t>(r), p);
          const int h_out = own[0]->h_out;
          const auto y0 = RandomGaussianVector(
              static_cast<std::size_t>(rows) * h_out, 1.0f, rng);
          std::vector<float> want = y0;
          std::vector<float> workspace(static_cast<std::size_t>(rows) * 16 *
                                       (1 + kMaxSplitKPartitions));
          BatchedLoraAddon(want, x, own, seg, c.hidden_size, h_out,
                           workspace, ctx);
          std::vector<float> got = y0;
          LoraExpand(got, v, own, seg, h_out, 16, ctx);
          ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                got.size() * sizeof(float)),
                    0)
              << "rank " << r;
        }
      }
    }
  }
}

// Through the whole layer: the column-parallel outputs, K and V with their
// LoRA deltas (written to the cache), are the same bits at tp 1, 2 and 4,
// serial or concurrent, over a multi-segment prefill + decode batch with
// mixed adapter ranks.
TEST(TpLoraShrinkOnceTest, KvCacheBitIdenticalAcrossTp) {
  LlamaConfig c = SplitKConfig();
  LayerWeights full = LayerWeights::Random(c, 61);
  LoraModelWeights lora_a = LoraModelWeights::Random(c, 16, 62);
  LoraModelWeights lora_b = LoraModelWeights::Random(c, 8, 63);
  const auto h = static_cast<std::size_t>(c.hidden_size);
  Pcg32 rng(64);
  const auto x0 = RandomGaussianVector(12 * h, 1.0f, rng);
  const auto run = [&](int tp, bool concurrent, ComputeContext& ctx) {
    TpShardedLayer sharded = ShardLayer(c, full, tp);
    TpShardedLora a_tp = ShardLoraModel(c, lora_a, tp);
    TpShardedLora b_tp = ShardLoraModel(c, lora_b, tp);
    auto kv = std::make_unique<PagedKvCache>(KvCfg(c));
    std::vector<BatchEntry> entries;
    std::vector<SeqId> seqs;
    const std::int32_t lens[] = {6, 3, 1, 1, 1};
    const LoraId ids[] = {0, -1, 1, 0, 1};
    for (int e = 0; e < 5; ++e) {
      seqs.push_back(kv->CreateSequence());
      const bool decode = e >= 2;
      EXPECT_TRUE(kv->Extend(seqs.back(), lens[e]));
      entries.push_back({.seq = seqs.back(), .lora = ids[e],
                         .num_tokens = lens[e], .pos_offset = 0,
                         .is_prefill = !decode});
    }
    ModelBatch b = ModelBatch::Build(entries);
    std::vector<const TpShardedLora*> seg;
    for (LoraId id : b.segments.lora_ids) {
      seg.push_back(id == 0 ? &a_tp : id == 1 ? &b_tp : nullptr);
    }
    std::vector<std::unique_ptr<ComputeContext>> views;
    std::vector<const ComputeContext*> ptrs;
    if (concurrent) {
      views = ctx.Split(tp);
      for (const auto& v : views) ptrs.push_back(v.get());
    }
    auto x = x0;
    TpWorkspace ws;
    TpLayerForward(c, sharded, b, 0, *kv, x, ws, ctx,
                   std::span<const ComputeContext* const>(ptrs),
                   std::span<const TpShardedLora* const>(seg));
    std::vector<f16> out;
    for (std::size_t e = 0; e < seqs.size(); ++e) {
      for (std::int64_t pos = 0; pos < lens[e]; ++pos) {
        for (auto slot : {KvSlot::kKey, KvSlot::kValue}) {
          auto entry = kv->Entry(seqs[e], 0, pos, slot);
          out.insert(out.end(), entry.begin(), entry.end());
        }
      }
    }
    return out;
  };
  ComputeContext ctx({.num_threads = 4});
  const std::vector<f16> want = run(1, false, ctx);
  for (int tp : {1, 2, 4}) {
    for (bool concurrent : {false, true}) {
      SCOPED_TRACE("tp=" + std::to_string(tp) +
                   (concurrent ? " concurrent" : " serial"));
      const std::vector<f16> got = run(tp, concurrent, ctx);
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(f16)),
                0);
    }
  }
}

// The LoRA tentpole contract: a TP layer over sharded adapters matches the
// single-GPU layer over the full adapters (up to fp32 reduction-order
// error at the two all-reduce seams), with the batch's segment grouping
// unchanged. Uses a rank NOT divisible by tp — the rank dim is never
// split, so any adapter rank shards exactly. tp = 1 runs ShardLayer's
// one-rank copy through TpLayerForward against LayerForward on the full
// layer; the independent check of the body is TpLayerOracleTest.
TEST(TpLoraEquivalenceTest, MatchesSingleGpuLayerWithLoraSegments) {
  LlamaConfig c = TinyLlama();
  LayerWeights full = LayerWeights::Random(c, 17);
  LoraModelWeights lora_a = LoraModelWeights::Random(c, 5, 21);
  LoraModelWeights lora_b = LoraModelWeights::Random(c, 8, 22);
  Pcg32 rng(9);
  auto h = static_cast<std::size_t>(c.hidden_size);
  auto x0 = RandomGaussianVector(6 * h, 1.0f, rng);

  PagedKvCache kv_ref(KvCfg(c));
  ModelBatch b_ref = MixedLoraBatch(kv_ref);
  ASSERT_EQ(b_ref.segments.num_segments(), 3);
  std::vector<const LoraModelWeights*> seg_full;
  for (LoraId id : b_ref.segments.lora_ids) {
    seg_full.push_back(id == 0 ? &lora_a : id == 1 ? &lora_b : nullptr);
  }
  auto x_ref = x0;
  LayerWorkspace ws;
  ws.Resize(c, 6, 8);
  LayerForward(c, full, seg_full, b_ref, 0, kv_ref, x_ref, ws);

  for (int tp : {1, 2}) {
    SCOPED_TRACE("tp=" + std::to_string(tp));
    TpShardedLayer sharded = ShardLayer(c, full, tp);
    TpShardedLora lora_a_tp = ShardLoraModel(c, lora_a, tp);
    TpShardedLora lora_b_tp = ShardLoraModel(c, lora_b, tp);
    PagedKvCache kv_tp(KvCfg(c));
    ModelBatch b_tp = MixedLoraBatch(kv_tp);
    std::vector<const TpShardedLora*> seg_tp;
    for (LoraId id : b_tp.segments.lora_ids) {
      seg_tp.push_back(id == 0 ? &lora_a_tp : id == 1 ? &lora_b_tp : nullptr);
    }
    auto x_tp = x0;
    TpLayerForward(c, sharded, b_tp, 0, kv_tp, x_tp,
                   ComputeContext::Default(),
                   std::span<const TpShardedLora* const>(seg_tp));

    for (std::size_t i = 0; i < x_ref.size(); ++i) {
      ASSERT_NEAR(x_tp[i], x_ref[i], 2e-3f) << "activation " << i;
    }
  }
}

// LoRA-active concurrent rank execution stays BIT-identical to the serial
// rank loop: each rank's SGMV shrink/expand runs through its own private
// workspace and the adapter deltas meet only at the fixed-rank-order
// all-reduce, exactly like the dense partials.
TEST(TpLoraConcurrencyTest, ConcurrentMatchesSerialBitExactWithLora) {
  LlamaConfig c = TinyLlama();
  for (int tp : {1, 2}) {
    SCOPED_TRACE("tp=" + std::to_string(tp));
    LayerWeights full = LayerWeights::Random(c, 17);
    TpShardedLayer sharded = ShardLayer(c, full, tp);
    LoraModelWeights lora = LoraModelWeights::Random(c, 8, 31);
    TpShardedLora lora_tp = ShardLoraModel(c, lora, tp);

    auto setup = [&](PagedKvCache& kv, ModelBatch* batch) {
      SeqId sa = kv.CreateSequence();
      EXPECT_TRUE(kv.Extend(sa, 3));
      SeqId sb = kv.CreateSequence();
      EXPECT_TRUE(kv.Extend(sb, 1));
      *batch = ModelBatch::Build(
          {{.seq = sa, .lora = 0, .num_tokens = 3, .pos_offset = 0,
            .is_prefill = true},
           {.seq = sb, .lora = -1, .num_tokens = 1, .pos_offset = 0,
            .is_prefill = true}});
    };

    Pcg32 rng(9);
    auto h = static_cast<std::size_t>(c.hidden_size);
    auto x0 = RandomGaussianVector(4 * h, 1.0f, rng);
    auto bits = [](float v) {
      std::uint32_t b;
      std::memcpy(&b, &v, sizeof(b));
      return b;
    };

    auto seg_for = [&](const ModelBatch& b) {
      std::vector<const TpShardedLora*> seg;
      for (LoraId id : b.segments.lora_ids) {
        seg.push_back(id == 0 ? &lora_tp : nullptr);
      }
      return seg;
    };

    ComputeContext ctx1({.num_threads = 1});
    PagedKvCache kv_ref(KvCfg(c));
    ModelBatch b_ref;
    setup(kv_ref, &b_ref);
    auto seg_ref = seg_for(b_ref);
    auto x_ref = x0;
    TpWorkspace ws_ref;
    TpLayerForward(c, sharded, b_ref, 0, kv_ref, x_ref, ws_ref, ctx1, {},
                   std::span<const TpShardedLora* const>(seg_ref));

    for (int threads : {1, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ComputeContext ctx({.num_threads = threads});
      for (bool concurrent : {false, true}) {
        SCOPED_TRACE(concurrent ? "concurrent" : "serial");
        std::vector<std::unique_ptr<ComputeContext>> views;
        std::vector<const ComputeContext*> ptrs;
        if (concurrent) {
          views = ctx.Split(tp);
          for (const auto& v : views) ptrs.push_back(v.get());
        }
        PagedKvCache kv(KvCfg(c));
        ModelBatch b;
        setup(kv, &b);
        auto seg = seg_for(b);
        auto x = x0;
        TpWorkspace ws;
        TpLayerForward(c, sharded, b, 0, kv, x, ws, ctx,
                       std::span<const ComputeContext* const>(ptrs),
                       std::span<const TpShardedLora* const>(seg));
        for (std::size_t i = 0; i < x.size(); ++i) {
          ASSERT_EQ(bits(x[i]), bits(x_ref[i])) << "activation " << i;
        }
      }
    }
  }
}

TEST(RangedAttentionTest, SliceConcatenationEqualsFull) {
  LlamaConfig c = TinyLlama();  // 4 heads
  PagedKvCache kv(KvCfg(c));
  Pcg32 rng(5);
  SeqId seq = kv.CreateSequence();
  ASSERT_TRUE(kv.Extend(seq, 6));
  for (std::int64_t p = 0; p < 6; ++p) {
    for (auto slot : {KvSlot::kKey, KvSlot::kValue}) {
      auto e = kv.Entry(seq, 0, p, slot);
      for (auto& x : e) {
        x = f16(static_cast<float>(rng.NextGaussian()) * 0.4f);
      }
    }
  }
  std::size_t width = static_cast<std::size_t>(c.num_heads) *
                      static_cast<std::size_t>(c.head_dim());
  auto q = RandomGaussianVector(width, 1.0f, rng);
  std::vector<float> full(width);
  std::vector<SeqId> seqs = {seq};
  BatchDecodeAttention(c, kv, seqs, 0, q, full);

  std::size_t half = width / 2;
  std::vector<float> lo(half), hi(half);
  BatchDecodeAttentionRanged(c, kv, seqs, 0,
                             std::span<const float>(q).first(half), lo, 0, 2);
  BatchDecodeAttentionRanged(c, kv, seqs, 0,
                             std::span<const float>(q).subspan(half), hi, 2,
                             4);
  for (std::size_t i = 0; i < half; ++i) {
    EXPECT_FLOAT_EQ(lo[i], full[i]);
    EXPECT_FLOAT_EQ(hi[i], full[half + i]);
  }
}

}  // namespace
}  // namespace punica
