#include "model/llama.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "tensor/simd.h"
#include "util/rng.h"

namespace punica {
namespace {

// Drives a full prefill + greedy decode loop for one request.
std::vector<std::int32_t> Generate(LlamaModel& model, PagedKvCache& kv,
                                   LoraId lora,
                                   std::span<const std::int32_t> prompt,
                                   int steps) {
  SeqId seq = kv.CreateSequence();
  EXPECT_TRUE(kv.Extend(seq, static_cast<std::int64_t>(prompt.size())));
  std::vector<BatchEntry> entries = {
      {.seq = seq,
       .lora = lora,
       .num_tokens = static_cast<std::int32_t>(prompt.size()),
       .pos_offset = 0,
       .is_prefill = true}};
  ModelBatch batch = ModelBatch::Build(entries);
  std::vector<std::int32_t> out =
      model.ForwardGreedy(batch, prompt, kv);
  std::vector<std::int32_t> generated = {out[0]};

  for (int s = 1; s < steps; ++s) {
    std::int64_t pos = kv.SeqLen(seq);
    EXPECT_TRUE(kv.Extend(seq, 1));
    std::vector<BatchEntry> dec = {{.seq = seq,
                                    .lora = lora,
                                    .num_tokens = 1,
                                    .pos_offset = pos,
                                    .is_prefill = false}};
    ModelBatch db = ModelBatch::Build(dec);
    std::vector<std::int32_t> in = {generated.back()};
    auto next = model.ForwardGreedy(db, in, kv);
    generated.push_back(next[0]);
  }
  kv.FreeSequence(seq);
  return generated;
}

TEST(LlamaTest, ArgMax) {
  std::vector<float> logits = {0.1f, 2.5f, -1.0f, 2.4f};
  EXPECT_EQ(LlamaModel::ArgMax(logits), 1);
}

TEST(LlamaTest, GenerationIsDeterministic) {
  LlamaConfig c = TinyLlama();
  LlamaModel model(c, 42);
  PagedKvCache kv(model.MakeKvConfig(256));
  std::vector<std::int32_t> prompt = {5, 17, 99, 3};
  auto g1 = Generate(model, kv, -1, prompt, 8);
  auto g2 = Generate(model, kv, -1, prompt, 8);
  EXPECT_EQ(g1, g2);
  for (auto t : g1) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, c.vocab_size);
  }
}

TEST(LlamaTest, DifferentSeedsDifferentModels) {
  LlamaConfig c = TinyLlama();
  LlamaModel m1(c, 1), m2(c, 2);
  PagedKvCache kv1(m1.MakeKvConfig(64)), kv2(m2.MakeKvConfig(64));
  std::vector<std::int32_t> prompt = {10, 20, 30};
  auto g1 = Generate(m1, kv1, -1, prompt, 6);
  auto g2 = Generate(m2, kv2, -1, prompt, 6);
  EXPECT_NE(g1, g2);
}

TEST(LlamaTest, LoraChangesGeneration) {
  LlamaConfig c = TinyLlama();
  LlamaModel model(c, 7);
  model.AddLora(0, /*rank=*/8, /*seed=*/100);
  PagedKvCache kv(model.MakeKvConfig(128));
  std::vector<std::int32_t> prompt = {1, 2, 3, 4, 5};
  auto base = Generate(model, kv, -1, prompt, 10);
  auto adapted = Generate(model, kv, 0, prompt, 10);
  EXPECT_NE(base, adapted);
}

TEST(LlamaTest, DifferentLorasDiverge) {
  LlamaConfig c = TinyLlama();
  LlamaModel model(c, 7);
  model.AddLora(0, 8, 100);
  model.AddLora(1, 8, 200);
  PagedKvCache kv(model.MakeKvConfig(128));
  std::vector<std::int32_t> prompt = {9, 8, 7};
  auto a = Generate(model, kv, 0, prompt, 8);
  auto b = Generate(model, kv, 1, prompt, 8);
  EXPECT_NE(a, b);
}

TEST(LlamaTest, CrossLoraBatchMatchesIndividualRuns) {
  // The core SGMV promise: a batch mixing LoRA models produces exactly the
  // same logits per request as running each request alone.
  LlamaConfig c = TinyLlama();
  LlamaModel model(c, 21);
  model.AddLora(0, 8, 300);
  model.AddLora(1, 8, 400);
  PagedKvCache kv(model.MakeKvConfig(256));

  std::vector<std::int32_t> p0 = {11, 12, 13};
  std::vector<std::int32_t> p1 = {40, 41};

  // Individual runs.
  auto solo0 = Generate(model, kv, 0, p0, 1);
  auto solo1 = Generate(model, kv, 1, p1, 1);

  // Mixed batch: both prefills in one invocation.
  SeqId s0 = kv.CreateSequence();
  ASSERT_TRUE(kv.Extend(s0, 3));
  SeqId s1 = kv.CreateSequence();
  ASSERT_TRUE(kv.Extend(s1, 2));
  std::vector<BatchEntry> entries = {
      {.seq = s0, .lora = 0, .num_tokens = 3, .pos_offset = 0,
       .is_prefill = true},
      {.seq = s1, .lora = 1, .num_tokens = 2, .pos_offset = 0,
       .is_prefill = true}};
  ModelBatch batch = ModelBatch::Build(entries);
  std::vector<std::int32_t> tokens = {11, 12, 13, 40, 41};
  auto mixed = model.ForwardGreedy(batch, tokens, kv);
  ASSERT_EQ(mixed.size(), 2u);
  EXPECT_EQ(mixed[0], solo0[0]);
  EXPECT_EQ(mixed[1], solo1[0]);
}

TEST(LlamaTest, BatchedDecodeMatchesSequentialDecode) {
  LlamaConfig c = TinyLlama();
  LlamaModel model(c, 33);
  model.AddLora(0, 4, 1);
  model.AddLora(1, 4, 2);
  PagedKvCache kv(model.MakeKvConfig(256));

  std::vector<std::int32_t> p0 = {3, 1, 4};
  std::vector<std::int32_t> p1 = {1, 5};
  auto solo0 = Generate(model, kv, 0, p0, 4);
  auto solo1 = Generate(model, kv, 1, p1, 4);

  // Prefill both, then batch the decodes together.
  SeqId s0 = kv.CreateSequence();
  ASSERT_TRUE(kv.Extend(s0, 3));
  SeqId s1 = kv.CreateSequence();
  ASSERT_TRUE(kv.Extend(s1, 2));
  auto b0 = ModelBatch::Build({{.seq = s0, .lora = 0, .num_tokens = 3,
                                .pos_offset = 0, .is_prefill = true}});
  auto first0 = model.ForwardGreedy(b0, p0, kv);
  auto b1 = ModelBatch::Build({{.seq = s1, .lora = 1, .num_tokens = 2,
                                .pos_offset = 0, .is_prefill = true}});
  auto first1 = model.ForwardGreedy(b1, p1, kv);
  std::vector<std::int32_t> g0 = {first0[0]};
  std::vector<std::int32_t> g1 = {first1[0]};

  for (int s = 1; s < 4; ++s) {
    std::int64_t pos0 = kv.SeqLen(s0);
    std::int64_t pos1 = kv.SeqLen(s1);
    ASSERT_TRUE(kv.Extend(s0, 1));
    ASSERT_TRUE(kv.Extend(s1, 1));
    auto batch = ModelBatch::Build(
        {{.seq = s0, .lora = 0, .num_tokens = 1, .pos_offset = pos0,
          .is_prefill = false},
         {.seq = s1, .lora = 1, .num_tokens = 1, .pos_offset = pos1,
          .is_prefill = false}});
    std::vector<std::int32_t> in = {g0.back(), g1.back()};
    auto next = model.ForwardGreedy(batch, in, kv);
    g0.push_back(next[0]);
    g1.push_back(next[1]);
  }
  EXPECT_EQ(g0, solo0);
  EXPECT_EQ(g1, solo1);
}

/// Prefills `prompt` into a fresh sequence of `kv` with one Forward.
SeqId PrefillSeq(LlamaModel& model, PagedKvCache& kv, LoraId lora,
                 const std::vector<std::int32_t>& prompt) {
  SeqId seq = kv.CreateSequence();
  EXPECT_TRUE(kv.Extend(seq, static_cast<std::int64_t>(prompt.size())));
  model.Forward(ModelBatch::Build({{.seq = seq,
                                    .lora = lora,
                                    .num_tokens = static_cast<std::int32_t>(
                                        prompt.size()),
                                    .pos_offset = 0,
                                    .is_prefill = true}}),
                prompt, kv);
  return seq;
}

TEST(LlamaTest, BatchedLmHeadBitIdenticalToPerEntryForward) {
  // One step's emitting rows go through the LM head as one GEMM; every
  // logit must keep the bits it has when its entry runs alone (an m=1
  // head), and a non-emitting chunk keeps a zero row — at every SIMD level
  // and weight dtype.
  for (WeightDtype dtype : {WeightDtype::kF16, WeightDtype::kQ8_0}) {
    for (int l = 0; l < kNumSimdLevels; ++l) {
      const auto level = static_cast<SimdLevel>(l);
      if (!SimdLevelAvailable(level)) continue;
      SCOPED_TRACE(std::string(WeightDtypeName(dtype)) + "/" +
                   SimdLevelName(level));
      ScopedSimdLevel guard(level);
      LlamaConfig c = TinyLlama();
      c.weight_dtype = dtype;
      LlamaModel model(c, 21);
      model.AddLora(0, 8, 300);
      PagedKvCache kv_batched(model.MakeKvConfig(256));
      PagedKvCache kv_solo(model.MakeKvConfig(256));
      const std::vector<std::int32_t> history = {7, 8, 9};
      std::vector<SeqId> decode_batched, decode_solo;
      for (LoraId lora : {0, -1}) {
        decode_batched.push_back(PrefillSeq(model, kv_batched, lora, history));
        decode_solo.push_back(PrefillSeq(model, kv_solo, lora, history));
      }
      // Entries: an emitting prefill, a non-emitting prefill chunk, then
      // two decodes (one LoRA, one backbone).
      auto entries = [&](PagedKvCache& kv, const std::vector<SeqId>& dec) {
        SeqId p0 = kv.CreateSequence();
        EXPECT_TRUE(kv.Extend(p0, 5));
        SeqId p1 = kv.CreateSequence();
        EXPECT_TRUE(kv.Extend(p1, 4));
        std::vector<BatchEntry> out = {
            {.seq = p0, .lora = 0, .num_tokens = 5, .pos_offset = 0,
             .is_prefill = true},
            {.seq = p1, .lora = -1, .num_tokens = 4, .pos_offset = 0,
             .is_prefill = true, .emit_logits = false}};
        for (std::size_t d = 0; d < dec.size(); ++d) {
          EXPECT_TRUE(kv.Extend(dec[d], 1));
          out.push_back({.seq = dec[d], .lora = d == 0 ? 0 : -1,
                         .num_tokens = 1, .pos_offset = 3,
                         .is_prefill = false});
        }
        return out;
      };
      const std::vector<std::vector<std::int32_t>> tokens = {
          {1, 2, 3, 4, 5}, {6, 7, 8, 9}, {10}, {11}};
      std::vector<std::int32_t> flat;
      for (const auto& t : tokens) flat.insert(flat.end(), t.begin(), t.end());

      const auto batched_entries = entries(kv_batched, decode_batched);
      Tensor<float> batched =
          model.Forward(ModelBatch::Build(batched_entries), flat, kv_batched);
      const auto solo_entries = entries(kv_solo, decode_solo);
      for (std::size_t e = 0; e < solo_entries.size(); ++e) {
        Tensor<float> solo = model.Forward(
            ModelBatch::Build({solo_entries[e]}), tokens[e], kv_solo);
        auto got = batched.row(static_cast<std::int64_t>(e));
        auto want = solo.row(0);
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(float)),
                  0)
            << "entry " << e;
        if (!solo_entries[e].emit_logits) {
          for (float v : got) ASSERT_EQ(v, 0.0f) << "entry " << e;
        }
      }
    }
  }
}

TEST(LlamaDeathTest, UnloadedLoraAborts) {
  LlamaConfig c = TinyLlama();
  LlamaModel model(c, 5);
  PagedKvCache kv(model.MakeKvConfig(64));
  SeqId s = kv.CreateSequence();
  ASSERT_TRUE(kv.Extend(s, 1));
  auto batch = ModelBatch::Build({{.seq = s, .lora = 123, .num_tokens = 1,
                                   .pos_offset = 0, .is_prefill = true}});
  std::vector<std::int32_t> tokens = {0};
  EXPECT_DEATH(model.Forward(batch, tokens, kv), "unloaded LoRA");
}

}  // namespace
}  // namespace punica
