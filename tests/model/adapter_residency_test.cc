// Adapters resident on demand: LlamaModel::AddLora(id, rank, seed) records
// only the recipe, and the adapter is drawn on its first use — the first
// Forward whose batch names it, or the first GetLora/GetLoraShards call —
// exactly once, then kept. lora_bytes() counts what is resident. The drawn
// bits do not depend on the order of first use (that oracle lives in
// weight_fill_test); concurrent first calls from TP rank tasks draw once.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "model/llama.h"

namespace punica {
namespace {

constexpr int kRank = 8;

/// One rank-`rank` adapter's bytes, from the projection shapes alone.
std::size_t AdapterBytes(const LlamaConfig& c, int rank) {
  std::size_t per_layer = 0;
  for (int p = 0; p < kNumProj; ++p) {
    const ProjShape s = ShapeOf(c, static_cast<Proj>(p));
    per_layer += static_cast<std::size_t>(s.h_in + s.h_out) *
                 static_cast<std::size_t>(rank) * sizeof(f16);
  }
  return per_layer * static_cast<std::size_t>(c.num_layers);
}

/// The resident weights of adapter `id` at either tp, as rank shards.
const LoraModelWeights& RankShard(const LlamaModel& model, LoraId id,
                                  int r) {
  if (model.tp() == 1) return *model.GetLora(id);
  return model.GetLoraShards(id)->ranks[static_cast<std::size_t>(r)];
}

bool SameLora(const LoraModelWeights& a, const LoraModelWeights& b) {
  if (a.rank != b.rank || a.layers.size() != b.layers.size()) return false;
  for (std::size_t l = 0; l < a.layers.size(); ++l) {
    for (int p = 0; p < kNumProj; ++p) {
      const LoraAB& x = a.layers[l].proj[p];
      const LoraAB& y = b.layers[l].proj[p];
      if (x.a.numel() != y.a.numel() || x.b.numel() != y.b.numel() ||
          std::memcmp(x.a.raw(), y.a.raw(), x.a.numel() * sizeof(f16)) != 0 ||
          std::memcmp(x.b.raw(), y.b.raw(), x.b.numel() * sizeof(f16)) != 0) {
        return false;
      }
    }
  }
  return true;
}

/// The eager oracle: LoraModelWeights::Random, sharded at tp > 1.
void ExpectSameAsEager(const LlamaModel& model, LoraId id, int rank,
                       std::uint64_t seed, const std::string& where) {
  const LlamaConfig& c = model.config();
  const LoraModelWeights full =
      LoraModelWeights::Random(c, rank, seed, model.context());
  if (model.tp() == 1) {
    EXPECT_TRUE(SameLora(RankShard(model, id, 0), full)) << where;
    return;
  }
  const TpShardedLora want = ShardLoraModel(c, full, model.tp());
  for (int r = 0; r < model.tp(); ++r) {
    EXPECT_TRUE(SameLora(RankShard(model, id, r),
                         want.ranks[static_cast<std::size_t>(r)]))
        << where << " rank " << r;
  }
}

TEST(AdapterResidencyTest, ForwardDrawsOnlyTheAdaptersItsBatchNames) {
  const LlamaConfig c = TinyLlama();
  ComputeContext ctx({.num_threads = 2});
  for (int tp : {1, 2}) {
    SCOPED_TRACE("tp=" + std::to_string(tp));
    LlamaModel model(c, 11, &ctx, tp);
    for (LoraId id = 0; id < 4; ++id) {
      model.AddLora(id, kRank, 100 + static_cast<std::uint64_t>(id));
    }
    EXPECT_EQ(model.num_loras(), 4u);
    EXPECT_TRUE(model.HasLora(3));
    EXPECT_FALSE(model.HasLora(4));
    EXPECT_EQ(model.lora_bytes(), 0u);

    PagedKvCache kv(model.MakeKvConfig(64));
    std::vector<BatchEntry> entries;
    std::vector<std::int32_t> tokens;
    for (LoraId id : {0, 3}) {
      SeqId seq = kv.CreateSequence();
      ASSERT_TRUE(kv.Extend(seq, 5));
      entries.push_back({.seq = seq,
                         .lora = id,
                         .num_tokens = 5,
                         .pos_offset = 0,
                         .is_prefill = true});
      for (std::int32_t t = 0; t < 5; ++t) tokens.push_back(7 * id + t);
    }
    const ModelBatch batch = ModelBatch::Build(entries);
    model.Forward(batch, tokens, kv);
    const std::size_t one = AdapterBytes(c, kRank);
    EXPECT_EQ(model.lora_bytes(), 2 * one);
    // A second pass draws nothing more.
    model.Forward(batch, tokens, kv);
    EXPECT_EQ(model.lora_bytes(), 2 * one);
    const std::size_t stored = tp == 1 ? model.GetLora(0)->byte_size()
                                       : model.GetLoraShards(0)->byte_size();
    EXPECT_EQ(stored, one);
    EXPECT_EQ(model.lora_bytes(), 2 * one);
    for (LoraId id : {0, 3}) {
      ExpectSameAsEager(model, id, kRank, 100 + static_cast<std::uint64_t>(id),
                        "adapter " + std::to_string(id));
    }
  }
}

TEST(AdapterResidencyTest, AccessorsDrawOnFirstCall) {
  const LlamaConfig c = TinyLlama();
  ComputeContext ctx({.num_threads = 2});
  const std::size_t one = AdapterBytes(c, kRank);
  {
    LlamaModel model(c, 11, &ctx, /*tp=*/1);
    model.AddLora(2, kRank, 5);
    EXPECT_EQ(model.GetLoraShards(2), nullptr);  // tp = 1: draws nothing
    EXPECT_EQ(model.GetLora(9), nullptr);        // unregistered
    EXPECT_EQ(model.lora_bytes(), 0u);
    const LoraModelWeights* first = model.GetLora(2);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->rank, kRank);
    EXPECT_EQ(model.lora_bytes(), one);
    EXPECT_EQ(model.GetLora(2), first);  // kept, not drawn again
    EXPECT_EQ(model.lora_bytes(), one);
  }
  {
    LlamaModel model(c, 11, &ctx, /*tp=*/2);
    model.AddLora(2, kRank, 5);
    EXPECT_EQ(model.GetLora(2), nullptr);  // tp > 1: draws nothing
    EXPECT_EQ(model.GetLoraShards(9), nullptr);
    EXPECT_EQ(model.lora_bytes(), 0u);
    const TpShardedLora* first = model.GetLoraShards(2);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->ranks.size(), 2u);
    EXPECT_EQ(model.lora_bytes(), one);
    EXPECT_EQ(model.GetLoraShards(2), first);
    EXPECT_EQ(model.lora_bytes(), one);
  }
}

TEST(AdapterResidencyTest, ReRegisteringDropsResidentShards) {
  const LlamaConfig c = TinyLlama();
  ComputeContext ctx({.num_threads = 2});
  for (int tp : {1, 2}) {
    SCOPED_TRACE("tp=" + std::to_string(tp));
    LlamaModel model(c, 11, &ctx, tp);
    model.AddLora(0, kRank, 1);
    model.AddLora(1, kRank, 2);
    RankShard(model, 0, 0);
    RankShard(model, 1, 0);
    EXPECT_EQ(model.lora_bytes(), 2 * AdapterBytes(c, kRank));
    // A new recipe under id 0: its old shards go, the new ones wait for
    // first use, and adapter 1 is untouched.
    model.AddLora(0, 4, 9);
    EXPECT_EQ(model.num_loras(), 2u);
    EXPECT_EQ(model.lora_bytes(), AdapterBytes(c, kRank));
    EXPECT_EQ(RankShard(model, 0, 0).rank, 4);
    EXPECT_EQ(model.lora_bytes(), AdapterBytes(c, kRank) + AdapterBytes(c, 4));
    ExpectSameAsEager(model, 0, 4, 9, "re-registered");
    // Eager registration is resident at once.
    model.AddLora(1, LoraModelWeights::Random(c, 4, 3, ctx));
    EXPECT_EQ(model.lora_bytes(), 2 * AdapterBytes(c, 4));
  }
}

TEST(AdapterResidencyTest, ConcurrentRankTasksDrawEachAdapterOnce) {
  // perfbench's replay reads adapter shards inside concurrent rank tasks;
  // here every task asks for every pending adapter, in an order that makes
  // the ranks collide, and reads lora_bytes between the calls.
  const LlamaConfig c = TinyLlama();
  constexpr int kTp = 2;
  constexpr LoraId kAdapters = 6;
  ComputeContext ctx({.num_threads = 4});
  LlamaModel model(c, 11, &ctx, kTp);
  for (LoraId id = 0; id < kAdapters; ++id) {
    model.AddLora(id, kRank, 40 + static_cast<std::uint64_t>(id));
  }
  std::array<std::array<const TpShardedLora*, kAdapters>, kTp> got{};
  std::array<std::size_t, kTp> bytes_seen{};
  ctx.RunGroupTasks(kTp, [&](int r) {
    for (LoraId i = 0; i < kAdapters; ++i) {
      const LoraId id = r == 0 ? i : kAdapters - 1 - i;
      got[static_cast<std::size_t>(r)][static_cast<std::size_t>(id)] =
          model.GetLoraShards(id);
      bytes_seen[static_cast<std::size_t>(r)] = model.lora_bytes();
    }
  });
  for (LoraId id = 0; id < kAdapters; ++id) {
    const auto i = static_cast<std::size_t>(id);
    ASSERT_NE(got[0][i], nullptr);
    EXPECT_EQ(got[0][i], got[1][i]) << "adapter " << id;
  }
  const std::size_t all = kAdapters * AdapterBytes(c, kRank);
  EXPECT_EQ(model.lora_bytes(), all);
  for (std::size_t seen : bytes_seen) EXPECT_LE(seen, all);
  for (LoraId id = 0; id < kAdapters; ++id) {
    ExpectSameAsEager(model, id, kRank, 40 + static_cast<std::uint64_t>(id),
                      "adapter " + std::to_string(id));
  }
}

}  // namespace
}  // namespace punica
