// Parallel weight and adapter materialisation against a serial oracle.
//
// The contract: element i of every synthetic tensor is
// f16(float(g_i) · scale), g_i the i-th NextGaussian() of that tensor's
// seeded stream —
//   * the embedding: Pcg32(seed), scale 1/√hidden;
//   * layer l: Pcg32(seed·7919 + l + 1), the projections Q K V O Gate Up
//     Down in order, scale 1/√h_in (O and Down further / 2·num_layers);
//   * adapter layer l, projection p: Pcg32((seed·1000003 + l)·31 + p),
//     A (scale 1/√h_in) then B (scale 1/√rank).
// Quantized dtypes quantize the same f16 masters (per rank shard at
// tp > 1), and the LM head is the embedding shifted by one token. The
// oracle draws every element serially through the per-element f16(float)
// constructor — not the bulk conversion under test — and each stored
// payload, and every token's embedding row as the model gathers it, must
// match it byte for byte at any thread count, SIMD level, tp and dtype —
// and an adapter, drawn on its first use, at any order of first use.
// The model stores the tied table once at f16 (the head's storage) and
// keeps the f16 master beside a quantized head, which its weight bytes
// show. FillGaussianF16 itself is held to the same loop at odd lengths
// and across calls that carry a cached deviate, ending on the same stream
// position.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "model/llama.h"
#include "tensor/simd.h"
#include "util/rng.h"

namespace punica {
namespace {

constexpr std::uint64_t kSeed = 4242;
constexpr std::uint64_t kLoraSeed = 77;
constexpr int kLoraRank = 4;

Tensor<f16> OracleDraw(Pcg32& rng, std::int64_t rows, std::int64_t cols,
                       float scale) {
  Tensor<f16> t({rows, cols});
  for (auto& v : t.data()) {
    v = f16(static_cast<float>(rng.NextGaussian()) * scale);
  }
  return t;
}

/// Layer l's f16 master projections.
LayerWeights OracleLayer(const LlamaConfig& c, int l) {
  Pcg32 rng(kSeed * 7919 + static_cast<std::uint64_t>(l) + 1);
  LayerWeights w;
  for (int p = 0; p < kNumProj; ++p) {
    const ProjShape s = ShapeOf(c, static_cast<Proj>(p));
    float scale = 1.0f / std::sqrt(static_cast<float>(s.h_in));
    if (static_cast<Proj>(p) == Proj::kO ||
        static_cast<Proj>(p) == Proj::kDown) {
      scale /= 2.0f * static_cast<float>(c.num_layers);
    }
    w.proj[p] = WeightMatrix::FromF16(OracleDraw(rng, s.h_in, s.h_out, scale),
                                      WeightDtype::kF16);
  }
  w.attn_norm = Tensor<f16>({c.hidden_size});
  w.mlp_norm = Tensor<f16>({c.hidden_size});
  for (auto& v : w.attn_norm.data()) v = f16(1.0f);
  for (auto& v : w.mlp_norm.data()) v = f16(1.0f);
  return w;
}

LoraModelWeights OracleLora(const LlamaConfig& c, std::uint64_t seed) {
  LoraModelWeights w;
  w.rank = kLoraRank;
  for (int l = 0; l < c.num_layers; ++l) {
    LoraLayerWeights layer;
    for (int p = 0; p < kNumProj; ++p) {
      const ProjShape s = ShapeOf(c, static_cast<Proj>(p));
      Pcg32 rng((seed * 1000003 + static_cast<std::uint64_t>(l)) * 31 +
                static_cast<std::uint64_t>(p));
      LoraAB& ab = layer.proj[p];
      ab.rank = kLoraRank;
      ab.h_in = s.h_in;
      ab.h_out = s.h_out;
      ab.a = OracleDraw(rng, s.h_in, kLoraRank,
                        1.0f / std::sqrt(static_cast<float>(s.h_in)));
      ab.b = OracleDraw(rng, kLoraRank, s.h_out,
                        1.0f / std::sqrt(static_cast<float>(kLoraRank)));
    }
    w.layers.push_back(std::move(layer));
  }
  return w;
}

template <typename T>
bool SameBytes(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

bool SamePayload(const WeightMatrix& a, const WeightMatrix& b) {
  if (a.dtype() != b.dtype() || a.rows() != b.rows() ||
      a.cols() != b.cols()) {
    return false;
  }
  switch (a.dtype()) {
    case WeightDtype::kF16:
      return SameBytes(a.f16_data(), b.f16_data());
    case WeightDtype::kQ8_0:
      return SameBytes(a.q8_data(), b.q8_data());
    case WeightDtype::kQ4_0:
      return SameBytes(a.q4_data(), b.q4_data());
  }
  return false;
}

bool SameLayer(const LayerWeights& a, const LayerWeights& b) {
  for (int p = 0; p < kNumProj; ++p) {
    if (!SamePayload(a.proj[p], b.proj[p])) return false;
  }
  return SameBytes(a.attn_norm.data(), b.attn_norm.data()) &&
         SameBytes(a.mlp_norm.data(), b.mlp_norm.data());
}

bool SameLora(const LoraModelWeights& a, const LoraModelWeights& b) {
  if (a.rank != b.rank || a.layers.size() != b.layers.size()) return false;
  for (std::size_t l = 0; l < a.layers.size(); ++l) {
    for (int p = 0; p < kNumProj; ++p) {
      const LoraAB& x = a.layers[l].proj[p];
      const LoraAB& y = b.layers[l].proj[p];
      if (x.rank != y.rank || x.h_in != y.h_in || x.h_out != y.h_out ||
          !SameBytes(x.a.data(), y.a.data()) ||
          !SameBytes(x.b.data(), y.b.data())) {
        return false;
      }
    }
  }
  return true;
}

TEST(WeightFillTest, ModelAndAdaptersMatchTheSerialOracle) {
  for (WeightDtype dtype : {WeightDtype::kF16, WeightDtype::kQ8_0}) {
    LlamaConfig c = TinyLlama();
    c.weight_dtype = dtype;
    // The oracle model, drawn serially and quantized per the contract.
    Pcg32 embed_rng(kSeed);
    const Tensor<f16> embedding =
        OracleDraw(embed_rng, c.vocab_size, c.hidden_size,
                   1.0f / std::sqrt(static_cast<float>(c.hidden_size)));
    Tensor<f16> head({c.hidden_size, c.vocab_size});
    for (std::int64_t v = 0; v < c.vocab_size; ++v) {
      const std::int64_t src = (v + c.vocab_size - 1) % c.vocab_size;
      for (std::int64_t i = 0; i < c.hidden_size; ++i) {
        head.at({i, v}) = embedding.at({src, i});
      }
    }
    const WeightMatrix lm_head = WeightMatrix::FromF16(std::move(head), dtype);
    const auto vocab = static_cast<std::size_t>(c.vocab_size);
    const auto hidden = static_cast<std::size_t>(c.hidden_size);
    const std::size_t table_bytes = vocab * hidden * sizeof(f16);
    std::vector<std::int32_t> ids(vocab);
    std::vector<float> embedding_rows(vocab * hidden);
    for (std::size_t u = 0; u < vocab; ++u) {
      ids[u] = static_cast<std::int32_t>(u);
      for (std::size_t i = 0; i < hidden; ++i) {
        embedding_rows[u * hidden + i] = static_cast<float>(embedding.at(
            {static_cast<std::int64_t>(u), static_cast<std::int64_t>(i)}));
      }
    }
    std::vector<LayerWeights> masters;
    for (int l = 0; l < c.num_layers; ++l) masters.push_back(OracleLayer(c, l));
    // Adapter 0 and, drawn on first use in either order, adapters 1 and 3.
    const std::vector<LoraModelWeights> loras = {
        OracleLora(c, kLoraSeed), OracleLora(c, kLoraSeed + 1),
        OracleLora(c, kLoraSeed + 3)};

    for (int tp : {1, 2}) {
      for (int threads : {1, 2, 4}) {
        for (SimdLevel level :
             {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
          if (!SimdLevelAvailable(level)) continue;
          ScopedSimdLevel scoped(level);
          const std::string where =
              std::string(WeightDtypeName(dtype)) + " tp " +
              std::to_string(tp) + " threads " + std::to_string(threads) +
              " " + SimdLevelName(level);
          ComputeContext ctx({.num_threads = threads});
          LlamaModel model(c, kSeed, &ctx, tp);
          model.AddLora(0, kLoraRank, kLoraSeed);
          // Every token id's gathered row, at once.
          std::vector<float> model_rows(vocab * hidden);
          model.Embed(ids, model_rows);

          EXPECT_TRUE(SameBytes(std::span<const float>(model_rows),
                                std::span<const float>(embedding_rows)))
              << where;
          EXPECT_TRUE(SamePayload(model.lm_head(), lm_head)) << where;
          // The embedding is the head's f16 storage at f16; a quantized
          // head keeps its f16 master beside it.
          std::size_t layer_bytes = 0;
          for (int l = 0; l < c.num_layers; ++l) {
            for (const LayerWeights& r : model.layer(l).ranks) {
              for (const WeightMatrix& w : r.proj) layer_bytes += w.byte_size();
              layer_bytes +=
                  (r.attn_norm.numel() + r.mlp_norm.numel()) * sizeof(f16);
            }
          }
          const std::size_t untied = layer_bytes + lm_head.byte_size() +
                                     table_bytes + hidden * sizeof(f16);
          EXPECT_EQ(model.weight_bytes(),
                    dtype == WeightDtype::kF16 ? untied - table_bytes : untied)
              << where;
          for (int l = 0; l < c.num_layers; ++l) {
            const LayerWeights& m = masters[static_cast<std::size_t>(l)];
            const TpShardedLayer& got = model.layer(l);
            if (tp == 1) {
              LayerWeights want;
              for (int p = 0; p < kNumProj; ++p) {
                want.proj[p] = dtype == WeightDtype::kF16
                                   ? m.proj[p]
                                   : m.proj[p].Requantize(dtype);
              }
              want.attn_norm = m.attn_norm;
              want.mlp_norm = m.mlp_norm;
              ASSERT_EQ(got.ranks.size(), 1u);
              EXPECT_TRUE(SameLayer(got.ranks[0], want))
                  << where << " layer " << l;
              continue;
            }
            // SameLayer also compares each rank's replicated norms.
            const TpShardedLayer want = ShardLayer(c, m, tp);
            ASSERT_EQ(got.ranks.size(), want.ranks.size());
            for (int r = 0; r < tp; ++r) {
              EXPECT_TRUE(SameLayer(got.ranks[static_cast<std::size_t>(r)],
                                    want.ranks[static_cast<std::size_t>(r)]))
                  << where << " layer " << l << " rank " << r;
            }
          }
          const auto expect_lora = [&](LoraId id, const LoraModelWeights& lora,
                                       const std::string& what) {
            if (tp == 1) {
              // tp > 1 keeps only the shards (checked below), no full copy.
              ASSERT_NE(model.GetLora(id), nullptr) << what;
              EXPECT_TRUE(SameLora(*model.GetLora(id), lora)) << what;
              return;
            }
            EXPECT_EQ(model.GetLora(id), nullptr) << what;
            const TpShardedLora want = ShardLoraModel(c, lora, tp);
            const TpShardedLora* got = model.GetLoraShards(id);
            ASSERT_NE(got, nullptr) << what;
            ASSERT_EQ(got->ranks.size(), want.ranks.size()) << what;
            for (int r = 0; r < tp; ++r) {
              EXPECT_TRUE(SameLora(got->ranks[static_cast<std::size_t>(r)],
                                   want.ranks[static_cast<std::size_t>(r)]))
                  << what << " adapter rank " << r;
            }
          };
          expect_lora(0, loras[0], where);
          // The first use draws, so its order must not matter: adapters 1
          // and 3, re-registered (which drops their shards) for each order.
          for (const std::vector<LoraId>& order :
               {std::vector<LoraId>{3, 1}, std::vector<LoraId>{1, 3}}) {
            model.AddLora(1, kLoraRank, kLoraSeed + 1);
            model.AddLora(3, kLoraRank, kLoraSeed + 3);
            for (LoraId id : order) {
              if (tp == 1) {
                model.GetLora(id);
              } else {
                model.GetLoraShards(id);
              }
            }
            const std::string what = where + " first use " +
                                     std::to_string(order[0]) + " then " +
                                     std::to_string(order[1]);
            expect_lora(1, loras[1], what);
            expect_lora(3, loras[2], what);
          }
        }
      }
    }
  }
}

/// FillGaussianF16 on one Pcg32, called twice — lengths a then b — against
/// the serial libm loop over a + b draws from the same start: the same
/// halves, and the same stream position afterwards (LCG state, cached
/// deviate and its value).
void ExpectFillsMatchOracle(const Pcg32& start, std::size_t a, std::size_t b,
                            float scale, const std::string& where) {
  const std::string what = where + " lengths " + std::to_string(a) + " + " +
                           std::to_string(b);
  Pcg32 oracle = start;
  std::vector<f16> want(a + b);
  for (auto& v : want) {
    v = f16(static_cast<float>(oracle.NextGaussian()) * scale);
  }
  Pcg32 rng = start;
  std::vector<f16> got(a + b);
  FillGaussianF16(rng, scale, std::span<f16>(got).first(a));
  FillGaussianF16(rng, scale, std::span<f16>(got).subspan(a));
  EXPECT_TRUE(SameBytes(std::span<const f16>(got), std::span<const f16>(want)))
      << what;
  EXPECT_EQ(rng.state(), oracle.state()) << what;
  EXPECT_EQ(rng.has_cached_gaussian(), oracle.has_cached_gaussian()) << what;
  EXPECT_EQ(rng.NextGaussian(), oracle.NextGaussian()) << what;
}

TEST(WeightFillTest, OddLengthsAndCarriesMatchTheSerialOracle) {
  // Odd lengths 1…4097: every short length, then the neighbours of the
  // fill's chunk and lane-block sizes.
  std::vector<std::size_t> lengths;
  for (std::size_t n = 1; n <= 67; n += 2) lengths.push_back(n);
  for (std::size_t n : {255U, 257U, 511U, 513U, 1023U, 2047U, 4095U, 4097U}) {
    lengths.push_back(n);
  }
  const Pcg32 start(kSeed, 3);
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (!SimdLevelAvailable(level)) continue;
    ScopedSimdLevel scoped(level);
    const std::string where = SimdLevelName(level);
    for (std::size_t n : lengths) {
      ExpectFillsMatchOracle(start, n, 0, 0.37f, where);
      // An odd first call leaves the second starting on a cached deviate.
      ExpectFillsMatchOracle(start, n, n + 1, 0.37f, where);
      ExpectFillsMatchOracle(start, n, 2 * n, 1.0f, where);
    }
    ExpectFillsMatchOracle(start, 0, 0, 1.0f, where);
    ExpectFillsMatchOracle(start, 2, 1, 1.0f, where);
  }
}

/// A Pcg32 `pairs` Gaussian pairs before a draw whose u1 is exactly 0.
/// Every LCG state below 2^27 outputs the word 0, so state 0 with
/// increment 1 outputs two zero words; Pcg32(seed, 0) has increment 1 and
/// state (1 + seed)·a + 1, which seed = −a⁻¹ − 1 makes 0. Advance then
/// steps back from there (the LCG's period is 2^64).
Pcg32 ZeroU1Ahead(std::uint64_t pairs) {
  std::uint64_t inv = kPcgMultiplier;  // Newton: inv·a ≡ 1 (mod 2^64)
  for (int i = 0; i < 5; ++i) inv *= 2 - kPcgMultiplier * inv;
  Pcg32 rng(0 - inv - 1, 0);
  rng.Advance(0 - 4 * pairs);
  return rng;
}

TEST(WeightFillTest, ZeroU1RedrawMatchesTheSerialOracle) {
  Pcg32 probe = ZeroU1Ahead(0);
  ASSERT_EQ(probe.NextDouble(), 0.0);
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (!SimdLevelAvailable(level)) continue;
    ScopedSimdLevel scoped(level);
    const std::string where = SimdLevelName(level);
    // The rejected pair falls in the first lane block, mid-chunk and in a
    // later chunk (chunks are 256 pairs).
    for (std::uint64_t ahead : {0U, 5U, 13U, 300U}) {
      ExpectFillsMatchOracle(ZeroU1Ahead(ahead), 1001, 0, 0.37f,
                             where + " zero u1 after " +
                                 std::to_string(ahead) + " pairs");
    }
  }
}

}  // namespace
}  // namespace punica
