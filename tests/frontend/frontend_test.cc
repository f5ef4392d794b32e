#include "frontend/frontend.h"

#include <gtest/gtest.h>

#include "frontend/stream.h"
#include "gpu/specs.h"
#include "sched/cluster.h"

namespace punica {
namespace {

// --- TokenStream unit tests ---

TEST(TokenStreamTest, PushAndConsumeInOrder) {
  TokenStream s;
  s.Push(10, 1.0);
  s.Push(11, 2.0);
  s.Push(12, 3.0);
  EXPECT_TRUE(s.HasNext());
  EXPECT_EQ(s.Next(), 10);
  EXPECT_EQ(s.Next(), 11);
  EXPECT_EQ(s.Next(), 12);
  EXPECT_FALSE(s.HasNext());
  EXPECT_EQ(s.total_pushed(), 3u);
  EXPECT_DOUBLE_EQ(s.first_token_time(), 1.0);
  EXPECT_DOUBLE_EQ(s.last_token_time(), 3.0);
}

TEST(TokenStreamTest, CloseStates) {
  TokenStream s;
  EXPECT_FALSE(s.closed());
  s.Close(StreamEnd::kFinished);
  EXPECT_TRUE(s.closed());
  EXPECT_EQ(s.state(), StreamEnd::kFinished);
  s.Close(StreamEnd::kFinished);  // idempotent
}

TEST(TokenStreamTest, PendingSurvivesClose) {
  TokenStream s;
  s.Push(5, 0.1);
  s.Close(StreamEnd::kFinished);
  EXPECT_TRUE(s.HasNext());
  EXPECT_EQ(s.DrainAll(), (std::vector<std::int32_t>{5}));
}

TEST(TokenStreamTest, SubscriberReceivesLiveTokens) {
  TokenStream s;
  std::vector<std::int32_t> seen;
  bool closed = false;
  s.Subscribe([&](std::int32_t token, double) { seen.push_back(token); },
              [&](StreamEnd reason) {
                closed = true;
                EXPECT_EQ(reason, StreamEnd::kFinished);
              });
  s.Push(7, 0.1);
  s.Push(8, 0.2);
  EXPECT_FALSE(s.HasNext());  // nothing buffered in subscriber mode
  EXPECT_EQ(seen, (std::vector<std::int32_t>{7, 8}));
  s.Close(StreamEnd::kFinished);
  EXPECT_TRUE(closed);
  EXPECT_EQ(s.total_pushed(), 2u);
}

TEST(TokenStreamTest, SubscribeDrainsBacklogFirst) {
  TokenStream s;
  s.Push(1, 0.1);
  s.Push(2, 0.2);
  std::vector<std::int32_t> seen;
  std::vector<double> times;
  s.Subscribe([&](std::int32_t token, double t) {
    seen.push_back(token);
    times.push_back(t);
  });
  EXPECT_EQ(seen, (std::vector<std::int32_t>{1, 2}));
  // Backlog replays with each token's original push timestamp.
  EXPECT_EQ(times, (std::vector<double>{0.1, 0.2}));
  s.Push(3, 0.3);
  EXPECT_EQ(seen, (std::vector<std::int32_t>{1, 2, 3}));
  EXPECT_EQ(times, (std::vector<double>{0.1, 0.2, 0.3}));
}

TEST(TokenStreamTest, SubscribeAfterCloseFiresCloseCallback) {
  TokenStream s;
  s.Close(StreamEnd::kCancelled);
  StreamEnd seen = StreamEnd::kOpen;
  s.Subscribe([](std::int32_t, double) {},
              [&](StreamEnd reason) { seen = reason; });
  EXPECT_EQ(seen, StreamEnd::kCancelled);
}

TEST(TokenStreamDeathTest, PushAfterCloseAborts) {
  TokenStream s;
  s.Close(StreamEnd::kCancelled);
  EXPECT_DEATH(s.Push(1, 0.0), "closed stream");
}

TEST(TokenStreamDeathTest, ConflictingCloseAborts) {
  TokenStream s;
  s.Close(StreamEnd::kFinished);
  EXPECT_DEATH(s.Close(StreamEnd::kCancelled), "conflicting");
}

TEST(TokenStreamDeathTest, NextOnEmptyAborts) {
  TokenStream s;
  EXPECT_DEATH(s.Next(), "empty stream");
}

// --- Frontend + cluster integration (simulated tier) ---

class FrontendClusterTest : public ::testing::Test {
 protected:
  FrontendClusterTest() : cm_(A100Sxm80GB()) {
    ClusterConfig cfg;
    cfg.num_gpus = 2;
    cfg.model = Llama7B();
    cfg.runner.max_batch_size = 8;
    cfg.runner.kv_capacity_tokens = 20000;
    driver_ = std::make_unique<ClusterDriver>(cfg, &cm_);
    Frontend::SchedulerApi api;
    api.submit = [this](ServingRequest* req) {
      driver_->SubmitExternal(req);
    };
    api.cancel = [this](std::int64_t id) {
      return driver_->CancelExternal(id);
    };
    frontend_ = std::make_unique<Frontend>(0, api, /*id_base=*/1000000);
    driver_->SetEmissionCallback(
        [this](const StepResult& result, double now) {
          frontend_->OnStep(result, now);
        });
  }

  RequestHandle Submit(LoraId lora, std::int32_t prompt_len,
                       std::int32_t output_len, double now) {
    return frontend_->Submit({.lora = lora,
                              .prompt_len = prompt_len,
                              .max_new_tokens = output_len,
                              .arrival_time = now});
  }

  CostModel cm_;
  std::unique_ptr<ClusterDriver> driver_;
  std::unique_ptr<Frontend> frontend_;
};

TEST_F(FrontendClusterTest, StreamsExactlyOutputLenTokens) {
  RequestHandle id = Submit(/*lora=*/3, /*prompt_len=*/40,
                            /*output_len=*/12, /*now=*/0.0);
  driver_->Run();
  TokenStream* stream = frontend_->Stream(id);
  ASSERT_NE(stream, nullptr);
  EXPECT_EQ(stream->state(), StreamEnd::kFinished);
  EXPECT_EQ(stream->total_pushed(), 12u);
  // Tokens arrive in order with monotone timestamps; on the simulated tier
  // the content is the per-request sequence tag.
  auto tokens = stream->DrainAll();
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    EXPECT_EQ(tokens[i], static_cast<std::int32_t>(i));
  }
  EXPECT_LE(stream->first_token_time(), stream->last_token_time());
}

TEST_F(FrontendClusterTest, ManyUsersAllComplete) {
  std::vector<RequestHandle> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(Submit(i % 3, 20 + i, 5 + i, 0.0));
  }
  EXPECT_EQ(frontend_->active_streams(), 10u);
  driver_->Run();
  EXPECT_EQ(frontend_->active_streams(), 0u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_NE(frontend_->Stream(ids[i]), nullptr);
    EXPECT_EQ(frontend_->Stream(ids[i])->total_pushed(), 5 + i);
    EXPECT_EQ(frontend_->Stream(ids[i])->state(), StreamEnd::kFinished);
  }
}

TEST_F(FrontendClusterTest, DisconnectCancelsUpstream) {
  RequestHandle a = Submit(0, 30, 500, 0.0);
  RequestHandle b = Submit(1, 30, 10, 0.0);
  // Run a little, then the user of `a` disconnects.
  driver_->Run(0.2);
  ASSERT_NE(frontend_->Stream(a), nullptr);
  frontend_->Disconnect(a);
  EXPECT_EQ(frontend_->Stream(a), nullptr);  // session freed with the user
  driver_->Run();
  // b completes normally; a received nothing further (its session is gone).
  ASSERT_NE(frontend_->Stream(b), nullptr);
  EXPECT_EQ(frontend_->Stream(b)->state(), StreamEnd::kFinished);
  EXPECT_EQ(frontend_->Stream(b)->total_pushed(), 10u);
}

TEST_F(FrontendClusterTest, IdSpacePartitioning) {
  Frontend::SchedulerApi api;
  api.submit = [this](ServingRequest* req) { driver_->SubmitExternal(req); };
  api.cancel = [this](std::int64_t id) {
    return driver_->CancelExternal(id);
  };
  Frontend f0(0, api, /*id_base=*/0, /*id_stride=*/2);
  Frontend f1(1, api, /*id_base=*/1, /*id_stride=*/2);
  SubmitSpec spec{.lora = 0, .prompt_len = 10, .max_new_tokens = 2};
  RequestHandle a = f0.Submit(spec);
  RequestHandle b = f1.Submit(spec);
  EXPECT_NE(a, b);
  EXPECT_TRUE(f0.Owns(a));
  EXPECT_FALSE(f0.Owns(b));
  EXPECT_TRUE(f1.Owns(b));
  // Emission fan-out ignores foreign ids; unknown lookups signal by
  // returning nullptr instead of aborting.
  f0.OnToken(b.id(), 0, 0.0);
  EXPECT_EQ(f1.Stream(b)->total_pushed(), 0u);
  EXPECT_EQ(f0.Stream(b), nullptr);
  EXPECT_EQ(f0.Stream(RequestHandle()), nullptr);
}

TEST_F(FrontendClusterTest, DisconnectAfterFinishFreesSession) {
  RequestHandle id = Submit(0, 10, 3, 0.0);
  driver_->Run();
  ASSERT_NE(frontend_->Stream(id), nullptr);
  EXPECT_EQ(frontend_->Stream(id)->state(), StreamEnd::kFinished);
  frontend_->Disconnect(id);  // no upstream cancel; just frees the session
  EXPECT_EQ(frontend_->Stream(id), nullptr);
  EXPECT_EQ(frontend_->live_sessions(), 0u);
  frontend_->Disconnect(id);  // idempotent on unknown ids
}

TEST_F(FrontendClusterTest, SessionRetentionIsBounded) {
  // Closed sessions are reclaimable while total_submitted() stays a
  // monotonic counter — long traces must not grow frontend memory.
  std::vector<RequestHandle> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(Submit(0, 10, 3, 0.0));
  driver_->Run();
  EXPECT_EQ(frontend_->total_submitted(), 6u);
  EXPECT_EQ(frontend_->live_sessions(), 6u);  // pull mode: kept until read
  for (auto id : ids) {
    EXPECT_TRUE(frontend_->Release(id));
  }
  EXPECT_EQ(frontend_->live_sessions(), 0u);
  EXPECT_EQ(frontend_->total_submitted(), 6u);  // counter unaffected
  EXPECT_FALSE(frontend_->Release(ids[0]));     // already gone
}

TEST_F(FrontendClusterTest, ReleaseRefusesOpenStreams) {
  RequestHandle id = Submit(0, 10, 500, 0.0);
  driver_->Run(0.1);
  EXPECT_FALSE(frontend_->Release(id));  // still producing
  ASSERT_NE(frontend_->Stream(id), nullptr);
  frontend_->Disconnect(id);
}

TEST_F(FrontendClusterTest, SubscribedSessionsFreeThemselves) {
  RequestHandle id = Submit(2, 25, 7, 0.0);
  std::vector<std::int32_t> seen;
  bool closed = false;
  ASSERT_TRUE(frontend_->Subscribe(
      id, [&](std::int32_t token, double) { seen.push_back(token); },
      [&](StreamEnd reason) {
        closed = true;
        EXPECT_EQ(reason, StreamEnd::kFinished);
      }));
  driver_->Run();
  EXPECT_TRUE(closed);
  ASSERT_EQ(seen.size(), 7u);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], static_cast<std::int32_t>(i));
  }
  // The session reclaimed itself on finish: no leak over long traces.
  EXPECT_EQ(frontend_->live_sessions(), 0u);
  EXPECT_EQ(frontend_->Stream(id), nullptr);
  EXPECT_EQ(frontend_->total_submitted(), 1u);
  EXPECT_FALSE(frontend_->Subscribe(id, [](std::int32_t, double) {}));
}

TEST_F(FrontendClusterTest, ReentrantCleanupFromCloseCallbackIsSafe) {
  // Releasing (or disconnecting) the session from on_close is the natural
  // cleanup idiom; it must not double-free the session.
  RequestHandle id = Submit(0, 12, 4, 0.0);
  int tokens = 0;
  bool closed = false;
  ASSERT_TRUE(frontend_->Subscribe(
      id, [&](std::int32_t, double) { ++tokens; },
      [&](StreamEnd reason) {
        closed = true;
        EXPECT_EQ(reason, StreamEnd::kFinished);
        frontend_->Release(id);     // reentrant: session already detached
        frontend_->Disconnect(id);  // and again — must be a no-op
      }));
  driver_->Run();
  EXPECT_TRUE(closed);
  EXPECT_EQ(tokens, 4);
  EXPECT_EQ(frontend_->live_sessions(), 0u);
}

TEST_F(FrontendClusterTest, DisconnectWithReentrantCloseCallbackIsSafe) {
  // Disconnecting an open subscribed stream fires on_close synchronously;
  // an on_close that calls Release/Disconnect (the blessed cleanup idiom)
  // must not double-erase the session.
  RequestHandle id = Submit(0, 30, 500, 0.0);
  bool closed = false;
  ASSERT_TRUE(frontend_->Subscribe(
      id, [](std::int32_t, double) {},
      [&](StreamEnd reason) {
        closed = true;
        EXPECT_EQ(reason, StreamEnd::kCancelled);
        frontend_->Release(id);
        frontend_->Disconnect(id);
      }));
  driver_->Run(0.2);
  frontend_->Disconnect(id);
  EXPECT_TRUE(closed);
  EXPECT_EQ(frontend_->live_sessions(), 0u);
  driver_->Run();  // the upstream cancel lets the cluster drain cleanly
}

TEST_F(FrontendClusterTest, SubscribeAfterFinishDeliversBacklogReentrantly) {
  RequestHandle id = Submit(0, 12, 3, 0.0);
  driver_->Run();  // finishes in pull mode; backlog of 3 tokens
  int tokens = 0;
  ASSERT_TRUE(frontend_->Subscribe(
      id, [&](std::int32_t, double) { ++tokens; },
      [&](StreamEnd) { frontend_->Release(id); }));  // reentrant release
  EXPECT_EQ(tokens, 3);
  EXPECT_EQ(frontend_->live_sessions(), 0u);
}

TEST_F(FrontendClusterTest, MidRunSubmissionCannotJumpTheFcfsQueue) {
  // A SubmitSpec with a default arrival_time of 0 submitted mid-run must
  // be clamped to the driver's current time, not sorted ahead of earlier
  // arrivals.
  RequestHandle first = Submit(0, 30, 40, 0.0);
  driver_->Run(0.5);
  RequestHandle late = frontend_->Submit(
      {.lora = 1, .prompt_len = 10, .max_new_tokens = 5});  // arrival 0.0
  driver_->Run();
  ASSERT_NE(frontend_->Stream(late), nullptr);
  EXPECT_EQ(frontend_->Stream(late)->state(), StreamEnd::kFinished);
  // The clamp gives it a real arrival, so first-token time ≥ submit time.
  EXPECT_GE(frontend_->Stream(late)->first_token_time(), 0.5);
  EXPECT_EQ(frontend_->Stream(first)->state(), StreamEnd::kFinished);
}

TEST_F(FrontendClusterTest, UnservableSpecsAreRefusedWithoutASession) {
  // Outside input may be refused but never aborts: no token to generate,
  // or no prompt token to prefill from.
  const RequestHandle none = Submit(0, /*prompt_len=*/20,
                                    /*output_len=*/0, 0.0);
  const RequestHandle negative = Submit(0, 20, -3, 0.0);
  const RequestHandle empty = Submit(1, /*prompt_len=*/0, 5, 0.0);
  for (RequestHandle h : {none, negative, empty}) {
    EXPECT_FALSE(h.valid());
    EXPECT_EQ(frontend_->Stream(h), nullptr);
    EXPECT_FALSE(frontend_->Owns(h));
  }
  EXPECT_EQ(frontend_->total_rejected(), 3u);
  EXPECT_EQ(frontend_->total_submitted(), 0u);
  EXPECT_EQ(frontend_->live_sessions(), 0u);
  // A servable spec after the refusals is served as usual.
  const RequestHandle ok = Submit(2, 10, 4, 0.0);
  ASSERT_TRUE(ok.valid());
  driver_->Run();
  ASSERT_NE(frontend_->Stream(ok), nullptr);
  EXPECT_EQ(frontend_->Stream(ok)->state(), StreamEnd::kFinished);
  EXPECT_EQ(frontend_->Stream(ok)->total_pushed(), 4u);
  EXPECT_EQ(driver_->stats().finished_requests, 1);
}

}  // namespace
}  // namespace punica
