// Parameterised sweep over grouped-query-attention geometries: the full
// numeric stack (layer, model, engine) must behave identically in structure
// for MHA (H == N), GQA (H > N > 1) and MQA (N == 1), and cross-LoRA
// batching must stay output-preserving in every geometry.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "model/llama.h"
#include "runtime/engine.h"

namespace punica {
namespace {

using GqaParam = std::tuple<int, int>;  // (num_heads, num_kv_heads)

LlamaConfig ConfigFor(int heads, int kv_heads) {
  LlamaConfig c;
  c.name = "gqa-sweep";
  c.hidden_size = heads * 16;  // head_dim 16
  c.num_layers = 2;
  c.num_heads = heads;
  c.num_kv_heads = kv_heads;
  c.ffn_hidden = c.hidden_size * 2;
  c.vocab_size = 128;
  return c;
}

class GqaSweep : public ::testing::TestWithParam<GqaParam> {
 protected:
  GqaSweep() : config_(ConfigFor(std::get<0>(GetParam()),
                                 std::get<1>(GetParam()))),
               model_(config_, 4242) {
    model_.AddLora(0, 4, 1);
    model_.AddLora(1, 4, 2);
  }

  std::vector<std::int32_t> Generate(LoraId lora,
                                     std::vector<std::int32_t> prompt,
                                     int tokens, int max_batch = 1) {
    EngineConfig cfg;
    cfg.max_batch_size = max_batch;
    Engine engine(&model_, model_.MakeKvConfig(256), cfg);
    RequestHandle id = engine.AddRequest({.lora = lora,
                                          .prompt_tokens = std::move(prompt),
                                          .max_new_tokens = tokens});
    while (engine.HasWork()) engine.Step();
    return *engine.Output(id);
  }

  LlamaConfig config_;
  LlamaModel model_;
};

TEST_P(GqaSweep, GenerationDeterministicAndInVocab) {
  auto g1 = Generate(0, {7, 3, 9}, 6);
  auto g2 = Generate(0, {7, 3, 9}, 6);
  EXPECT_EQ(g1, g2);
  ASSERT_EQ(g1.size(), 6u);
  for (auto t : g1) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, config_.vocab_size);
  }
}

TEST_P(GqaSweep, CrossLoraBatchingPreservesOutputs) {
  auto solo0 = Generate(0, {5, 6}, 5);
  auto solo1 = Generate(1, {8}, 5);

  EngineConfig cfg;
  cfg.max_batch_size = 4;
  Engine engine(&model_, model_.MakeKvConfig(256), cfg);
  RequestHandle a = engine.AddRequest(
      {.lora = 0, .prompt_tokens = {5, 6}, .max_new_tokens = 5});
  RequestHandle b = engine.AddRequest(
      {.lora = 1, .prompt_tokens = {8}, .max_new_tokens = 5});
  while (engine.HasWork()) engine.Step();
  EXPECT_EQ(*engine.Output(a), solo0);
  EXPECT_EQ(*engine.Output(b), solo1);
}

TEST_P(GqaSweep, LoraDistinguishesTenants) {
  auto g0 = Generate(0, {1, 2, 3, 4}, 8);
  auto g1 = Generate(1, {1, 2, 3, 4}, 8);
  EXPECT_NE(g0, g1);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GqaSweep,
    ::testing::Values(GqaParam{4, 4},   // classic multi-head
                      GqaParam{4, 2},   // GQA 2:1
                      GqaParam{8, 2},   // GQA 4:1 (70B-style ratio)
                      GqaParam{4, 1},   // multi-query attention
                      GqaParam{6, 3}),  // non-power-of-two
    [](const ::testing::TestParamInfo<GqaParam>& info) {
      std::string name = "H";
      name += std::to_string(std::get<0>(info.param));
      name += "_N";
      name += std::to_string(std::get<1>(info.param));
      return name;
    });

}  // namespace
}  // namespace punica
