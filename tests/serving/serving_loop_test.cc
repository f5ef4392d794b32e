#include "serving/serving_loop.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "gpu/costmodel.h"
#include "gpu/specs.h"
#include "runtime/runner.h"
#include "serving/load_generator.h"
#include "workload/trace.h"

namespace punica {
namespace {

RunnerConfig SmallRunner() {
  RunnerConfig cfg;
  cfg.max_batch_size = 8;
  cfg.kv_capacity_tokens = 20000;
  cfg.lora_load_latency_s = 2e-3;
  return cfg;
}

struct SimCluster {
  CostModel cm{A100Sxm80GB()};
  std::vector<std::unique_ptr<GpuRunner>> runners;
  std::vector<ExecutionBackend*> backends;

  explicit SimCluster(int gpus, RunnerConfig cfg = SmallRunner()) {
    for (int g = 0; g < gpus; ++g) {
      runners.push_back(
          std::make_unique<GpuRunner>(g, cfg, Llama7B(), &cm));
      backends.push_back(runners.back().get());
    }
  }
};

std::vector<TraceRequest> ShortOpenLoop(int n, double rate,
                                        std::int32_t priority_classes = 1,
                                        std::uint64_t seed = 0xC0FFEE) {
  OpenLoopSpec spec;
  spec.rate_rps = rate;
  spec.num_requests = n;
  spec.seed = seed;
  spec.priority_classes = priority_classes;
  spec.lengths.prompt_mu = 3.5;
  spec.lengths.prompt_sigma = 0.7;
  spec.lengths.output_mu = 2.8;
  spec.lengths.output_sigma = 0.5;
  return GenerateOpenLoopLoad(spec);
}

TEST(ServingLoopTest, LightLoadFinishesEverythingWithCleanMetrics) {
  SimCluster cluster(2);
  auto trace = ShortOpenLoop(40, /*rate=*/2.0);
  ServingLoop loop(cluster.backends);
  loop.RunVirtual(trace);
  const ServingMetrics& m = loop.metrics();
  EXPECT_EQ(m.offered, 40);
  EXPECT_EQ(m.finished, 40);
  EXPECT_EQ(m.shed, 0);
  EXPECT_EQ(m.ttft.count(), 40u);
  EXPECT_EQ(m.queue_wait.count(), 40u);
  EXPECT_EQ(m.e2e.count(), 40u);
  EXPECT_GT(m.itl.count(), 0u);
  // Per request: queueing ≤ TTFT ≤ end-to-end, by construction.
  EXPECT_LE(m.queue_wait.mean(), m.ttft.mean());
  EXPECT_LE(m.ttft.p95(), m.e2e.max());
  EXPECT_GT(m.goodput(), 0.0);
  EXPECT_LE(m.goodput(), 1.0);
  EXPECT_EQ(m.total_new_tokens, TotalOutputTokens(trace));
  // Every request streamed exactly its output budget (simulated-tier
  // sequence tags 0, 1, 2, …).
  ASSERT_EQ(loop.streams().size(), 40u);
  for (const auto& [id, stream] : loop.streams()) {
    ASSERT_EQ(stream.size(),
              static_cast<std::size_t>(
                  trace[static_cast<std::size_t>(id)].output_len));
    for (std::size_t t = 0; t < stream.size(); ++t) {
      EXPECT_EQ(stream[t], static_cast<std::int32_t>(t));
    }
  }
  EXPECT_GT(loop.end_time(), 0.0);
}

TEST(ServingLoopTest, VirtualReplayIsBitIdentical) {
  auto trace = ShortOpenLoop(30, /*rate=*/6.0, /*priority_classes=*/2);
  SimCluster c1(2), c2(2);
  ServingLoop l1(c1.backends), l2(c2.backends);
  l1.RunVirtual(trace);
  l2.RunVirtual(trace);
  EXPECT_EQ(l1.streams(), l2.streams());
  EXPECT_EQ(l1.metrics().finished, l2.metrics().finished);
  EXPECT_EQ(l1.metrics().shed, l2.metrics().shed);
  EXPECT_EQ(l1.metrics().good, l2.metrics().good);
  EXPECT_DOUBLE_EQ(l1.metrics().ttft.mean(), l2.metrics().ttft.mean());
  EXPECT_DOUBLE_EQ(l1.metrics().ttft.p95(), l2.metrics().ttft.p95());
  EXPECT_DOUBLE_EQ(l1.metrics().queue_wait.mean(),
                   l2.metrics().queue_wait.mean());
  EXPECT_DOUBLE_EQ(l1.metrics().itl.p95(), l2.metrics().itl.p95());
  EXPECT_DOUBLE_EQ(l1.end_time(), l2.end_time());
}

TEST(ServingLoopTest, OverloadShedsOnlyUnprotectedTraffic) {
  // One tiny GPU against a burst: the door must shed, but never a
  // protected (priority ≥ 1) request.
  RunnerConfig cfg = SmallRunner();
  cfg.max_batch_size = 2;
  SimCluster cluster(1, cfg);
  // Hand-built burst: everything arrives nearly at once, half protected.
  std::vector<SubmitSpec> specs;
  for (int i = 0; i < 40; ++i) {
    SubmitSpec s;
    s.lora = i % 4;
    s.prompt_len = 200;
    s.max_new_tokens = 60;
    s.arrival_time = 0.001 * i;
    s.priority = i % 2;  // odd ids protected
    specs.push_back(s);
  }
  ServingLoopConfig lc;
  lc.slo.ttft_target_s = 0.05;  // tight target → aggressive stale shedding
  lc.shed_slack = 2.0;
  lc.door_capacity = 64;  // overflow out of play: isolate stale shedding
  lc.protected_priority = 1;
  ServingLoop loop(cluster.backends, lc);
  loop.RunVirtual(specs);
  const ServingMetrics& m = loop.metrics();
  EXPECT_EQ(m.offered, 40);
  EXPECT_EQ(m.finished + m.shed, 40);
  EXPECT_GT(m.shed, 0);
  // Every protected request produced a complete stream.
  for (int i = 1; i < 40; i += 2) {
    auto it = loop.streams().find(i);
    ASSERT_NE(it, loop.streams().end()) << "protected request " << i
                                        << " was shed";
    EXPECT_EQ(it->second.size(), 60u);
  }
  // Shedding keeps goodput honest: good ≤ finished < offered.
  EXPECT_LE(m.good, m.finished);
  EXPECT_LT(m.goodput(), 1.0);
}

TEST(ServingLoopTest, DoorBoundSheddingKicksInOnBursts) {
  RunnerConfig cfg = SmallRunner();
  cfg.max_batch_size = 2;
  SimCluster cluster(1, cfg);
  std::vector<SubmitSpec> specs;
  for (int i = 0; i < 24; ++i) {
    SubmitSpec s;
    s.lora = 0;
    s.prompt_len = 300;
    s.max_new_tokens = 80;
    s.arrival_time = 0.0;  // simultaneous burst
    specs.push_back(s);
  }
  ServingLoopConfig lc;
  lc.door_capacity = 4;
  lc.shed_slack = 1e9;  // isolate the overflow path from stale shedding
  lc.protected_priority = 0;  // nobody protected, but nobody stale either
  ServingLoop loop(cluster.backends, lc);
  loop.RunVirtual(specs);
  const ServingMetrics& m = loop.metrics();
  EXPECT_EQ(m.offered, 24);
  // The burst overflows the 4-slot door beyond what admission drains
  // instantly (2-slot batch): some are shed, the rest finish.
  EXPECT_GT(m.shed, 0);
  EXPECT_EQ(m.finished + m.shed, 24);
  EXPECT_GT(m.finished, 0);
}

TEST(ServingLoopTest, PriorityDefersLowClassUnderContention) {
  // Same arrival instant, one backend slot free at a time: high-priority
  // requests must reach the engine first even though they were offered
  // last.
  RunnerConfig cfg = SmallRunner();
  cfg.max_batch_size = 1;
  SimCluster cluster(1, cfg);
  std::vector<SubmitSpec> specs;
  for (int i = 0; i < 6; ++i) {
    SubmitSpec s;
    s.lora = 0;
    s.prompt_len = 100;
    s.max_new_tokens = 20;
    s.arrival_time = 0.0;
    s.priority = i < 3 ? 0 : 1;  // the protected half is offered last
    specs.push_back(s);
  }
  ServingLoopConfig lc;
  lc.shed_slack = 1e9;  // keep everyone; test ordering, not shedding
  ServingLoop loop(cluster.backends, lc);
  loop.RunVirtual(specs);
  const ServingMetrics& m = loop.metrics();
  ASSERT_EQ(m.finished, 6);
  // Request 0 was alone at the door when it arrived, so it went straight
  // in; after that, admission is serial (batch 1) and must take every
  // waiting priority-1 request before returning to the deferred zeros.
  const auto& reqs = loop.requests();
  EXPECT_DOUBLE_EQ(reqs[0].admit_time, 0.0);
  double latest_high = 0.0;
  for (std::size_t i = 3; i < 6; ++i) {
    latest_high = std::max(latest_high, reqs[i].admit_time);
  }
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_GT(reqs[i].admit_time, latest_high);
  }
}

/// A GpuRunner that logs every admission and eviction, in order.
class LoggingRunner : public GpuRunner {
 public:
  using GpuRunner::GpuRunner;

  struct Event {
    bool admit = false;  ///< false: evicted (cancelled for migration)
    std::int64_t id = 0;
    double now = 0.0;
  };

  void Admit(ServingRequest* req, double now) override {
    events.push_back({true, req->id, now});
    GpuRunner::Admit(req, now);
  }
  std::vector<std::int64_t> SelectEvictionVictims(double now) const override {
    auto victims = GpuRunner::SelectEvictionVictims(now);
    for (std::int64_t id : victims) events.push_back({false, id, now});
    return victims;
  }

  mutable std::vector<Event> events;
};

TEST(ServingLoopTest, DoorRequestWaitsBehindAQueuedMigrationVictim) {
  // One backend, so a KV-pressure victim has nowhere to go and queues. Its
  // pages are freed at once, so the small requests arriving next fit — but
  // Submit's FCFS rule would queue them behind the victim, which used to
  // abort the loop ("admission raced the capacity check"). They must wait
  // at the door until the victim is re-admitted.
  CostModel cm{A100Sxm80GB()};
  RunnerConfig cfg = SmallRunner();
  cfg.kv_capacity_tokens = 300;
  LoggingRunner runner(0, cfg, Llama7B(), &cm);
  std::vector<SubmitSpec> specs;
  for (int i = 0; i < 2; ++i) {
    SubmitSpec s;
    s.lora = i;
    s.prompt_len = 100;
    s.max_new_tokens = 200;
    s.arrival_time = 0.001 * i;
    specs.push_back(s);
  }
  for (int i = 0; i < 100; ++i) {
    SubmitSpec s;
    s.lora = 2;
    s.prompt_len = 8;
    s.max_new_tokens = 2;
    s.arrival_time = 0.01 + 0.02 * i;
    specs.push_back(s);
  }
  ServingLoopConfig lc;
  lc.shed_slack = 1e9;  // nobody goes stale: test ordering, not shedding
  ServingLoop loop({&runner}, lc);
  loop.RunVirtual(specs);
  EXPECT_EQ(loop.metrics().finished, 102);
  ASSERT_GT(loop.migrations(), 0);

  // While any victim waits in the queue, only victims are admitted; door
  // requests that arrived meanwhile were held until the queue drained.
  std::set<std::int64_t> queued;
  double queued_since = 0.0;
  int held = 0;
  for (const auto& e : runner.events) {
    if (!e.admit) {
      if (queued.empty()) queued_since = e.now;
      queued.insert(e.id);
      continue;
    }
    if (queued.empty()) continue;
    EXPECT_EQ(queued.count(e.id), 1u)
        << "request " << e.id << " admitted ahead of a queued victim";
    queued.erase(e.id);
    if (!queued.empty()) continue;
    for (const auto& r : loop.requests()) {
      if (r.arrival_time > queued_since && r.arrival_time < e.now) ++held;
    }
  }
  EXPECT_TRUE(queued.empty());
  EXPECT_GT(held, 0) << "no door request arrived while a victim was queued";
}

TEST(ServingLoopTest, ThreadedModeServesAReplayedTrace) {
  SimCluster cluster(2);
  auto trace = ShortOpenLoop(24, /*rate=*/40.0);
  std::vector<SubmitSpec> specs;
  for (const auto& r : trace) specs.push_back(SpecFromTrace(r));

  ArrivalQueue queue(8);
  TraceSubmitter submitter(specs, /*time_scale=*/0.005);
  ServingLoop loop(cluster.backends);
  submitter.Start(&queue, /*num_threads=*/2);
  loop.RunThreaded(queue);  // returns once the fleet shuts the queue down
  submitter.Join();

  const ServingMetrics& m = loop.metrics();
  EXPECT_EQ(m.offered, 24);
  EXPECT_EQ(m.finished + m.shed, 24);
  EXPECT_EQ(m.finished, 24);  // ample capacity: nothing shed
  EXPECT_EQ(m.ttft.count(), 24u);
  EXPECT_EQ(m.total_new_tokens, TotalOutputTokens(trace));
  EXPECT_GT(loop.end_time(), 0.0);
}

TEST(ServingLoopTest, MalformedSpecsAreShedBesideAValidOne) {
  // Nothing to generate (max_new_tokens 0) or nothing to prefill (prompt
  // length 0 or negative): the door refuses the spec, counting it offered
  // and shed, and the valid spec next to it is served normally — on both
  // clocks.
  SubmitSpec valid;
  valid.lora = 1;
  valid.prompt_len = 32;
  valid.max_new_tokens = 4;
  SubmitSpec no_output = valid;
  no_output.max_new_tokens = 0;
  SubmitSpec empty_prompt = valid;
  empty_prompt.prompt_len = 0;
  SubmitSpec negative_prompt = valid;
  negative_prompt.prompt_len = -5;
  for (const SubmitSpec& bad : {no_output, empty_prompt, negative_prompt}) {
    for (bool threaded : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "max_new_tokens " << bad.max_new_tokens
                   << ", prompt_len " << bad.prompt_len
                   << (threaded ? ", RunThreaded" : ", RunVirtual"));
      SimCluster cluster(1);
      ServingLoop loop(cluster.backends);
      if (threaded) {
        ArrivalQueue queue(4);
        ASSERT_TRUE(queue.Push(bad));
        ASSERT_TRUE(queue.Push(valid));
        queue.Shutdown();
        loop.RunThreaded(queue);
      } else {
        loop.RunVirtual(std::vector<SubmitSpec>{bad, valid});
      }
      const ServingMetrics& m = loop.metrics();
      EXPECT_EQ(m.offered, 2);
      EXPECT_EQ(m.shed, 1);
      EXPECT_EQ(m.finished, 1);
      EXPECT_EQ(m.total_new_tokens, 4);
      ASSERT_EQ(loop.requests().size(), 2u);
      EXPECT_EQ(loop.requests()[0].phase, RequestPhase::kCancelled);
      EXPECT_EQ(loop.requests()[1].phase, RequestPhase::kFinished);
      EXPECT_EQ(loop.streams().count(0), 0u);
      EXPECT_EQ(loop.streams().at(1).size(), 4u);
    }
  }
}

}  // namespace
}  // namespace punica
