// The unified serving API end to end on the numeric tier: Frontend →
// ClusterDriver → Scheduler → EngineBackend → Engine. The same stack that
// runs cluster-scale simulations must stream *real* token ids to users,
// bit-identical to driving an Engine directly, with migration and
// continuous batching happening underneath.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "frontend/frontend.h"
#include "model/llama.h"
#include "runtime/engine.h"
#include "runtime/engine_backend.h"
#include "sched/cluster.h"
#include "serving/arrival_queue.h"
#include "serving/serving_loop.h"

namespace punica {
namespace {

class UnifiedServingTest : public ::testing::Test {
 protected:
  UnifiedServingTest() : model_(TinyLlama(), 2024) {
    model_.AddLora(0, 8, 1);
    model_.AddLora(1, 8, 2);
    model_.AddLora(2, 4, 3);
  }

  std::vector<std::int32_t> Solo(LoraId lora,
                                 std::vector<std::int32_t> prompt,
                                 int tokens) {
    Engine solo(&model_, model_.MakeKvConfig(256), {.max_batch_size = 1});
    RequestHandle id = solo.AddRequest({.lora = lora,
                                        .prompt_tokens = std::move(prompt),
                                        .max_new_tokens = tokens});
    while (solo.HasWork()) solo.Step();
    return *solo.Output(id);
  }

  /// A caller-owned request for driving an EngineBackend directly.
  static ServingRequest MakeRequest(std::int64_t id,
                                    std::vector<std::int32_t> prompt,
                                    int tokens) {
    ServingRequest req;
    req.id = id;
    req.lora_id = 0;
    req.prompt_len = static_cast<std::int32_t>(prompt.size());
    req.prompt_tokens = std::move(prompt);
    req.output_len = tokens;
    return req;
  }

  void BuildCluster(int num_backends, std::int32_t kv_pages = 256) {
    for (int g = 0; g < num_backends; ++g) {
      engines_.push_back(std::make_unique<Engine>(
          &model_, model_.MakeKvConfig(kv_pages),
          EngineConfig{.max_batch_size = 4}));
      backends_.push_back(
          std::make_unique<EngineBackend>(g, engines_.back().get()));
    }
    std::vector<ExecutionBackend*> raw;
    for (auto& b : backends_) raw.push_back(b.get());
    driver_ = std::make_unique<ClusterDriver>(raw);
    Frontend::SchedulerApi api;
    api.submit = [this](ServingRequest* req) {
      driver_->SubmitExternal(req);
    };
    api.cancel = [this](std::int64_t id) {
      return driver_->CancelExternal(id);
    };
    frontend_ = std::make_unique<Frontend>(0, api, /*id_base=*/500);
    driver_->SetEmissionCallback(
        [this](const StepResult& result, double now) {
          frontend_->OnStep(result, now);
        });
  }

  LlamaModel model_;
  std::vector<std::unique_ptr<Engine>> engines_;
  std::vector<std::unique_ptr<EngineBackend>> backends_;
  std::unique_ptr<ClusterDriver> driver_;
  std::unique_ptr<Frontend> frontend_;
  std::map<std::int64_t, std::vector<std::int32_t>> streamed_;
};

TEST_F(UnifiedServingTest, FrontendStreamsRealTokensBitIdentical) {
  BuildCluster(2);
  struct Req {
    LoraId lora;
    std::vector<std::int32_t> prompt;
    int tokens;
  };
  std::vector<Req> reqs = {
      {0, {17, 3, 42, 7}, 10}, {1, {99, 5}, 8},    {2, {8, 8, 8}, 12},
      {-1, {1, 2, 3}, 6},      {0, {64, 32, 16}, 9},
  };
  std::vector<RequestHandle> handles;
  for (const auto& r : reqs) {
    handles.push_back(frontend_->Submit({.lora = r.lora,
                                         .prompt_tokens = r.prompt,
                                         .max_new_tokens = r.tokens}));
  }
  driver_->Run();
  EXPECT_EQ(driver_->stats().finished_requests,
            static_cast<std::int64_t>(reqs.size()));
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    TokenStream* stream = frontend_->Stream(handles[i]);
    ASSERT_NE(stream, nullptr);
    EXPECT_EQ(stream->state(), StreamEnd::kFinished);
    EXPECT_EQ(stream->DrainAll(),
              Solo(reqs[i].lora, reqs[i].prompt, reqs[i].tokens))
        << "request " << i << " streamed different tokens than a solo run";
  }
}

TEST_F(UnifiedServingTest, SubscribedStreamsMatchAndSelfFree) {
  BuildCluster(2);
  std::vector<RequestHandle> handles;
  struct Req {
    LoraId lora;
    std::vector<std::int32_t> prompt;
    int tokens;
  };
  std::vector<Req> reqs = {{0, {5, 6, 7}, 7}, {1, {9}, 9}, {2, {4, 2}, 5}};
  for (const auto& r : reqs) {
    RequestHandle h = frontend_->Submit({.lora = r.lora,
                                         .prompt_tokens = r.prompt,
                                         .max_new_tokens = r.tokens});
    handles.push_back(h);
    ASSERT_TRUE(frontend_->Subscribe(
        h, [this, h](std::int32_t token, double) {
          streamed_[h.id()].push_back(token);
        }));
  }
  driver_->Run();
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(streamed_[handles[i].id()],
              Solo(reqs[i].lora, reqs[i].prompt, reqs[i].tokens));
  }
  EXPECT_EQ(frontend_->live_sessions(), 0u);  // all self-freed on finish
  EXPECT_EQ(frontend_->total_submitted(), reqs.size());
}

TEST_F(UnifiedServingTest, KvPressureMigrationUnderTheDriver) {
  // A tight per-backend page pool forces driver-orchestrated migration
  // while requests stream; outputs must still be exact.
  BuildCluster(2, /*kv_pages=*/10);  // 10 pages × 16 slots
  struct Req {
    LoraId lora;
    std::vector<std::int32_t> prompt;
    int tokens;
  };
  std::vector<Req> reqs = {
      {0, {1, 2, 3, 4, 5, 6, 7, 8}, 40},
      {1, {9, 8, 7, 6, 5, 4, 3, 2}, 40},
      {2, {11, 12, 13}, 40},
      {0, {21, 22, 23, 24}, 40},
  };
  std::vector<RequestHandle> handles;
  for (const auto& r : reqs) {
    handles.push_back(frontend_->Submit({.lora = r.lora,
                                         .prompt_tokens = r.prompt,
                                         .max_new_tokens = r.tokens}));
  }
  driver_->Run();
  EXPECT_EQ(driver_->stats().finished_requests, 4);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    TokenStream* stream = frontend_->Stream(handles[i]);
    ASSERT_NE(stream, nullptr);
    EXPECT_EQ(stream->DrainAll(),
              Solo(reqs[i].lora, reqs[i].prompt, reqs[i].tokens))
        << "request " << i;
  }
}

TEST_F(UnifiedServingTest, DisconnectMidGenerationFreesEverything) {
  BuildCluster(1);
  RequestHandle keep = frontend_->Submit(
      {.lora = 0, .prompt_tokens = {1, 2}, .max_new_tokens = 6});
  RequestHandle drop = frontend_->Submit(
      {.lora = 1, .prompt_tokens = {3, 4}, .max_new_tokens = 50});
  driver_->Run(0.003);  // a few steps in
  frontend_->Disconnect(drop);
  EXPECT_EQ(frontend_->Stream(drop), nullptr);
  driver_->Run();
  TokenStream* stream = frontend_->Stream(keep);
  ASSERT_NE(stream, nullptr);
  EXPECT_EQ(stream->state(), StreamEnd::kFinished);
  EXPECT_EQ(stream->DrainAll(), Solo(0, {1, 2}, 6));
  // The dropped request left no engine-side residue.
  EXPECT_EQ(backends_[0]->working_set_size(), 0);
  EXPECT_FALSE(engines_[0]->HasWork());
}

TEST_F(UnifiedServingTest, NewestRequestFollowsEngineAdmissionOrder) {
  // EngineBackend names the newest request by the engine's own admission
  // order (the order its victim query evicts in), not by serving id.
  Engine engine(&model_, model_.MakeKvConfig(64),
                EngineConfig{.max_batch_size = 4});
  EngineBackend backend(0, &engine);
  EXPECT_EQ(backend.NewestRequest(), nullptr);
  ServingRequest a = MakeRequest(7, {1, 2, 3}, 4);
  ServingRequest b = MakeRequest(3, {1, 2, 3}, 4);
  ServingRequest c = MakeRequest(5, {1, 2, 3}, 4);
  backend.Admit(&a, 0.0);
  backend.Admit(&b, 0.0);
  EXPECT_EQ(backend.NewestRequest(), &b);  // admitted later despite lower id
  backend.Admit(&c, 0.0);
  EXPECT_EQ(backend.NewestRequest(), &c);
  ASSERT_TRUE(backend.Cancel(5).has_value());
  EXPECT_EQ(backend.NewestRequest(), &b);
  // A migrated re-admission is the newest again.
  ASSERT_TRUE(backend.Cancel(7).has_value());
  backend.Admit(&a, 0.0);
  EXPECT_EQ(backend.NewestRequest(), &a);
}

TEST_F(UnifiedServingTest, BackendReleasesEngineRecordOfEveryEndedRequest) {
  // The caller-owned ServingRequest carries a finished or cancelled
  // request's tokens, so EngineBackend drops the engine's copy: a
  // long-running server keeps no record per admission.
  Engine engine(&model_, model_.MakeKvConfig(64),
                EngineConfig{.max_batch_size = 4});
  EngineBackend backend(0, &engine);
  ServingRequest a = MakeRequest(1, {1, 2, 3}, 4);
  ServingRequest b = MakeRequest(2, {4, 5}, 6);
  backend.Admit(&a, 0.0);  // engine id 0
  backend.Admit(&b, 0.0);  // engine id 1
  double now = 0.0;
  for (int i = 0; i < 3; ++i) now += backend.Step(now).latency;
  EXPECT_NE(engine.Output(0), nullptr);  // still active
  ASSERT_TRUE(backend.Cancel(2).has_value());  // the migration evict
  EXPECT_EQ(engine.Output(1), nullptr);
  backend.Admit(&b, now);  // engine id 2: the migrated re-add
  while (backend.HasAnyWork()) now += backend.Step(now).latency;
  EXPECT_EQ(a.phase, RequestPhase::kFinished);
  EXPECT_EQ(b.phase, RequestPhase::kFinished);
  for (std::int64_t engine_id : {0, 1, 2}) {
    EXPECT_EQ(engine.Output(engine_id), nullptr) << "engine id " << engine_id;
  }
  EXPECT_EQ(a.generated_tokens, Solo(0, {1, 2, 3}, 4));
  EXPECT_EQ(b.generated_tokens, Solo(0, {4, 5}, 6));
}

TEST_F(UnifiedServingTest, DoorShedsSpecsTheEngineCannotServe) {
  // External input never aborts the numeric tier: a spec naming an
  // unregistered adapter, or carrying a token id outside [0, vocab), is
  // refused at the door and counted shed, on both clocks, while the valid
  // specs beside it are served bit-identically to a solo engine.
  const std::int32_t vocab = model_.config().vocab_size;
  const SubmitSpec valid{.lora = 1, .prompt_tokens = {3, 4, 5},
                         .max_new_tokens = 4};
  const SubmitSpec backbone{.lora = -1, .prompt_tokens = {9, 8},
                            .max_new_tokens = 3};
  SubmitSpec unregistered = valid;
  unregistered.lora = 42;
  SubmitSpec past_vocab = valid;
  past_vocab.prompt_tokens = {3, vocab, 5};
  SubmitSpec negative = valid;
  negative.prompt_tokens = {-2};
  const std::vector<SubmitSpec> offered = {unregistered, valid, past_vocab,
                                           negative, backbone};
  for (bool threaded : {false, true}) {
    SCOPED_TRACE(threaded ? "RunThreaded" : "RunVirtual");
    Engine engine(&model_, model_.MakeKvConfig(64),
                  EngineConfig{.max_batch_size = 4});
    EngineBackend backend(0, &engine);
    EXPECT_FALSE(backend.Serves(unregistered));
    EXPECT_FALSE(backend.Serves(past_vocab));
    EXPECT_TRUE(backend.Serves(valid));
    ServingLoop loop({&backend});
    if (threaded) {
      ArrivalQueue queue(8);
      for (const SubmitSpec& spec : offered) ASSERT_TRUE(queue.Push(spec));
      queue.Shutdown();
      loop.RunThreaded(queue);
    } else {
      loop.RunVirtual(offered);
    }
    const ServingMetrics& m = loop.metrics();
    EXPECT_EQ(m.offered, 5);
    EXPECT_EQ(m.shed, 3);
    EXPECT_EQ(m.finished, 2);
    ASSERT_EQ(loop.requests().size(), 5u);
    for (std::size_t i : {0u, 2u, 3u}) {
      EXPECT_EQ(loop.requests()[i].phase, RequestPhase::kCancelled) << i;
      EXPECT_EQ(loop.streams().count(static_cast<std::int64_t>(i)), 0u) << i;
    }
    EXPECT_EQ(loop.streams().at(1), Solo(1, {3, 4, 5}, 4));
    EXPECT_EQ(loop.streams().at(4), Solo(-1, {9, 8}, 3));
  }
}

}  // namespace
}  // namespace punica
