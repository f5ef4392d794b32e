// End-to-end numeric serving: the tiny Llama model driven through Engine's
// continuous-batching loop. The core guarantee under test is the paper's
// central claim, observed on real numerics: batching requests of *different*
// LoRA models changes neither any request's output tokens nor determinism.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "model/llama.h"
#include "runtime/engine.h"
#include "util/rng.h"

namespace punica {
namespace {

struct TestHarness {
  TestHarness() : model(TinyLlama(), /*seed=*/2024) {
    model.AddLora(0, 8, 1);
    model.AddLora(1, 8, 2);
    model.AddLora(2, 4, 3);
  }

  Engine MakeEngine(int max_batch = 8) {
    EngineConfig cfg;
    cfg.max_batch_size = max_batch;
    return Engine(&model, model.MakeKvConfig(512), cfg);
  }

  std::vector<std::int32_t> SoloGenerate(LoraId lora,
                                         std::vector<std::int32_t> prompt,
                                         int tokens) {
    Engine engine = MakeEngine(1);
    RequestHandle id = engine.AddRequest({.lora = lora,
                                          .prompt_tokens = std::move(prompt),
                                          .max_new_tokens = tokens});
    while (engine.HasWork()) engine.Step();
    return *engine.Output(id);
  }

  LlamaModel model;
};

TEST(EndToEndTest, SingleRequestRunsToCompletion) {
  TestHarness h;
  Engine engine = h.MakeEngine();
  RequestHandle id = engine.AddRequest(
      {.lora = 0, .prompt_tokens = {1, 2, 3}, .max_new_tokens = 6});
  int steps = 0;
  while (engine.HasWork()) {
    auto r = engine.Step();
    EXPECT_GE(r.batch_size, 1);
    ++steps;
  }
  EXPECT_EQ(steps, 6);  // 1 prefill + 5 decodes
  ASSERT_NE(engine.Output(id), nullptr);
  EXPECT_EQ(engine.Output(id)->size(), 6u);
}

TEST(EndToEndTest, CrossLoraBatchingPreservesOutputs) {
  TestHarness h;
  struct Req {
    LoraId lora;
    std::vector<std::int32_t> prompt;
    int tokens;
  };
  std::vector<Req> reqs = {
      {0, {5, 6, 7}, 8},   {1, {9, 10}, 8},      {2, {11, 12, 13, 14}, 8},
      {0, {20, 21}, 8},    {-1, {30, 31, 32}, 8}, {1, {40}, 8},
  };
  // Reference: each request alone.
  std::vector<std::vector<std::int32_t>> solo;
  for (const auto& r : reqs) {
    solo.push_back(h.SoloGenerate(r.lora, r.prompt, r.tokens));
  }
  // All together in one engine, admitted up front.
  Engine engine = h.MakeEngine(8);
  std::vector<RequestHandle> ids;
  for (const auto& r : reqs) {
    ids.push_back(engine.AddRequest({.lora = r.lora,
                                     .prompt_tokens = r.prompt,
                                     .max_new_tokens = r.tokens}));
  }
  while (engine.HasWork()) {
    auto result = engine.Step();
    // Cross-LoRA batching: once prefills drain, batches mix several models.
    EXPECT_LE(result.num_segments, result.batch_size);
  }
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(*engine.Output(ids[i]), solo[i]) << "request " << i;
  }
}

TEST(EndToEndTest, SegmentsGroupSameLoraRequests) {
  TestHarness h;
  Engine engine = h.MakeEngine(8);
  // Four requests over two LoRA models, interleaved admission order.
  engine.AddRequest({.lora = 0, .prompt_tokens = {1, 2}, .max_new_tokens = 10});
  engine.AddRequest({.lora = 1, .prompt_tokens = {3, 4}, .max_new_tokens = 10});
  engine.AddRequest({.lora = 0, .prompt_tokens = {5, 6}, .max_new_tokens = 10});
  engine.AddRequest({.lora = 1, .prompt_tokens = {7, 8}, .max_new_tokens = 10});
  // Drain the prefills (one per step).
  for (int i = 0; i < 4; ++i) engine.Step();
  // Pure-decode batch of 4 rows over 2 models → exactly 2 SGMV segments.
  auto r = engine.Step();
  EXPECT_EQ(r.batch_size, 4);
  EXPECT_EQ(r.prefill_requests, 0);
  EXPECT_EQ(r.num_segments, 2);
}

TEST(EndToEndTest, ContinuousBatchingAdmitsMidFlight) {
  TestHarness h;
  Engine engine = h.MakeEngine(4);
  RequestHandle a = engine.AddRequest(
      {.lora = 0, .prompt_tokens = {1, 2, 3}, .max_new_tokens = 12});
  auto solo_a = h.SoloGenerate(0, {1, 2, 3}, 12);
  // Run a few steps, then admit another request mid-flight.
  for (int i = 0; i < 4; ++i) engine.Step();
  RequestHandle b = engine.AddRequest(
      {.lora = 1, .prompt_tokens = {9, 9, 9}, .max_new_tokens = 5});
  auto solo_b = h.SoloGenerate(1, {9, 9, 9}, 5);
  while (engine.HasWork()) engine.Step();
  EXPECT_EQ(*engine.Output(a), solo_a);  // unperturbed by the joiner
  EXPECT_EQ(*engine.Output(b), solo_b);
}

TEST(EndToEndTest, EngineWideEosStopsEarly) {
  TestHarness h;
  // Find what the model emits, then set EOS to the first token that
  // differs from the opener (streams may repeat a token) so the request
  // stops exactly there — through the engine-wide default.
  auto free_run = h.SoloGenerate(0, {7, 7}, 6);
  std::size_t stop_at = 1;
  while (stop_at < free_run.size() && free_run[stop_at] == free_run[0]) {
    ++stop_at;
  }
  ASSERT_LT(stop_at, free_run.size());
  EngineConfig cfg;
  cfg.max_batch_size = 4;
  cfg.eos_token = free_run[stop_at];
  Engine engine(&h.model, h.model.MakeKvConfig(256), cfg);
  RequestHandle id = engine.AddRequest(
      {.lora = 0, .prompt_tokens = {7, 7}, .max_new_tokens = 6});
  while (engine.HasWork()) engine.Step();
  EXPECT_EQ(engine.Output(id)->size(), stop_at + 1);
  EXPECT_EQ(engine.Output(id)->back(), free_run[stop_at]);
}

TEST(EndToEndTest, FcfsQueueDrainsEverything) {
  TestHarness h;
  Engine engine = h.MakeEngine(3);
  Pcg32 rng(55);
  std::vector<SubmitSpec> queue;
  for (int i = 0; i < 12; ++i) {
    SubmitSpec spec;
    spec.lora = static_cast<LoraId>(rng.NextBounded(3));
    for (int j = 0; j < 2 + static_cast<int>(rng.NextBounded(4)); ++j) {
      spec.prompt_tokens.push_back(
          static_cast<std::int32_t>(rng.NextBounded(200)));
    }
    spec.max_new_tokens = 3 + static_cast<std::int32_t>(rng.NextBounded(6));
    queue.push_back(std::move(spec));
  }
  std::size_t next = 0;
  std::size_t finished = 0;
  int guard = 0;
  while (finished < queue.size()) {
    while (next < queue.size() && engine.CanAdmit()) {
      engine.AddRequest(queue[next]);
      ++next;
    }
    auto r = engine.Step();
    finished += r.finished.size();
    ASSERT_LT(++guard, 1000) << "engine stopped making progress";
  }
  EXPECT_FALSE(engine.HasWork());
}

TEST(EndToEndTest, KvPagesFullyReleased) {
  TestHarness h;
  Engine engine = h.MakeEngine(4);
  std::int32_t before = engine.kv_free_pages();
  engine.AddRequest(
      {.lora = 0, .prompt_tokens = {1, 2, 3, 4, 5}, .max_new_tokens = 8});
  engine.AddRequest({.lora = 1, .prompt_tokens = {1, 2}, .max_new_tokens = 4});
  while (engine.HasWork()) engine.Step();
  // Finished requests leave their prompt prefixes cached by design, but
  // every held page must be reclaimable — no leaked references.
  EXPECT_EQ(engine.AvailablePages(), before);
}

TEST(EndToEndTest, KvPagesFullyReleasedWithoutPrefixCache) {
  TestHarness h;
  Engine engine(&h.model, h.model.MakeKvConfig(64, 4),
                EngineConfig{.enable_prefix_cache = false});
  std::int32_t before = engine.kv_free_pages();
  engine.AddRequest(
      {.lora = 0, .prompt_tokens = {1, 2, 3, 4, 5}, .max_new_tokens = 8});
  engine.AddRequest({.lora = 1, .prompt_tokens = {1, 2}, .max_new_tokens = 4});
  while (engine.HasWork()) engine.Step();
  EXPECT_EQ(engine.kv_free_pages(), before);  // no page leaks at all
}

TEST(EndToEndTest, DeterministicAcrossEngines) {
  TestHarness h;
  auto run = [&] {
    Engine engine = h.MakeEngine(4);
    std::vector<RequestHandle> ids;
    ids.push_back(engine.AddRequest(
        {.lora = 0, .prompt_tokens = {1, 2, 3}, .max_new_tokens = 7}));
    ids.push_back(engine.AddRequest(
        {.lora = 1, .prompt_tokens = {4, 5}, .max_new_tokens = 7}));
    ids.push_back(engine.AddRequest(
        {.lora = 2, .prompt_tokens = {6}, .max_new_tokens = 7}));
    while (engine.HasWork()) engine.Step();
    std::vector<std::vector<std::int32_t>> outs;
    for (auto id : ids) outs.push_back(*engine.Output(id));
    return outs;
  };
  EXPECT_EQ(run(), run());
}

TEST(EndToEndTest, AdmissionBeyondBatchIsRefused) {
  TestHarness h;
  Engine engine = h.MakeEngine(1);
  RequestHandle first =
      engine.AddRequest({.lora = 0, .prompt_tokens = {1}, .max_new_tokens = 4});
  EXPECT_TRUE(first.valid());
  EXPECT_FALSE(engine
                   .AddRequest({.lora = 1,
                                .prompt_tokens = {2},
                                .max_new_tokens = 4})
                   .valid());
  EXPECT_EQ(engine.working_set_size(), 1);
}

}  // namespace
}  // namespace punica
