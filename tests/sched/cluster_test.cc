#include "sched/cluster.h"

#include <gtest/gtest.h>

#include "gpu/specs.h"
#include "serving/serving_loop.h"
#include "sim/arrivals.h"
#include "workload/trace.h"

namespace punica {
namespace {

ClusterConfig SmallCluster(int gpus) {
  ClusterConfig cfg;
  cfg.num_gpus = gpus;
  cfg.model = Llama7B();
  cfg.runner.max_batch_size = 8;
  cfg.runner.kv_capacity_tokens = 20000;
  cfg.runner.lora_load_latency_s = 2e-3;
  cfg.consolidation_interval_s = 10.0;
  return cfg;
}

std::vector<TraceRequest> ShortTrace(int n, Popularity pop,
                                     double arrival_rate = 0.0) {
  TraceSpec spec;
  spec.num_requests = n;
  spec.popularity = pop;
  spec.lengths.prompt_mu = 3.5;
  spec.lengths.prompt_sigma = 0.7;
  spec.lengths.output_mu = 2.8;
  spec.lengths.output_sigma = 0.5;
  auto trace = GenerateClosedLoopTrace(spec);
  if (arrival_rate > 0.0) {
    Pcg32 rng(31337);
    double t = 0.0;
    for (auto& r : trace) {
      t += rng.NextExponential(arrival_rate);
      r.arrival_time = t;
    }
  }
  return trace;
}

TEST(ClusterTest, DrainsAllRequests) {
  CostModel cm((A100Sxm80GB()));
  ClusterDriver driver(SmallCluster(2), &cm);
  auto trace = ShortTrace(40, Popularity::kUniform);
  driver.SubmitTrace(trace);
  driver.Run();
  const ClusterStats& s = driver.stats();
  EXPECT_EQ(s.finished_requests, 40);
  EXPECT_EQ(s.total_new_tokens, TotalOutputTokens(trace));
  EXPECT_EQ(driver.scheduler().queue_size(), 0u);
  EXPECT_GT(s.makespan, 0.0);
  for (const auto& req : driver.requests()) {
    EXPECT_EQ(req.phase, RequestPhase::kFinished);
    EXPECT_GE(req.finish_time, req.arrival_time);
    EXPECT_GE(req.finish_time, req.first_token_time);
  }
}

TEST(ClusterTest, DeterministicAcrossRuns) {
  CostModel cm((A100Sxm80GB()));
  auto trace = ShortTrace(30, Popularity::kSkewed, /*arrival_rate=*/5.0);
  ClusterDriver d1(SmallCluster(2), &cm);
  d1.SubmitTrace(trace);
  d1.Run();
  ClusterDriver d2(SmallCluster(2), &cm);
  d2.SubmitTrace(trace);
  d2.Run();
  EXPECT_DOUBLE_EQ(d1.stats().makespan, d2.stats().makespan);
  EXPECT_EQ(d1.stats().total_steps, d2.stats().total_steps);
  EXPECT_EQ(d1.stats().migrations, d2.stats().migrations);
}

TEST(ClusterTest, ConsolidatesOntoFewGpusUnderLightLoad) {
  // Light open-loop load on 4 GPUs: traffic should concentrate (busy stays
  // busy, idle stays idle), leaving some GPUs completely unused.
  CostModel cm((A100Sxm80GB()));
  ClusterDriver driver(SmallCluster(4), &cm);
  auto trace = ShortTrace(60, Popularity::kSkewed, /*arrival_rate=*/3.0);
  driver.SubmitTrace(trace);
  driver.Run();
  int unused = 0;
  for (double busy : driver.stats().gpu_busy_s) {
    if (busy == 0.0) ++unused;
  }
  EXPECT_GE(unused, 1);
  // The highest-UUID GPU carries the most load.
  EXPECT_GT(driver.stats().gpu_busy_s[3], driver.stats().gpu_busy_s[0]);
}

TEST(ClusterTest, MoreGpusFinishFasterUnderHeavyLoad) {
  CostModel cm((A100Sxm80GB()));
  auto trace = ShortTrace(120, Popularity::kUniform);
  ClusterDriver d1(SmallCluster(1), &cm);
  d1.SubmitTrace(trace);
  d1.Run();
  ClusterDriver d4(SmallCluster(4), &cm);
  d4.SubmitTrace(trace);
  d4.Run();
  EXPECT_LT(d4.stats().makespan, d1.stats().makespan);
}

TEST(ClusterTest, KvPressureTriggersMigration) {
  CostModel cm((A100Sxm80GB()));
  ClusterConfig cfg = SmallCluster(2);
  cfg.runner.kv_capacity_tokens = 600;  // tight cache forces migrations
  cfg.runner.max_batch_size = 8;
  ClusterDriver driver(cfg, &cm);
  TraceSpec spec;
  spec.num_requests = 16;
  spec.popularity = Popularity::kIdentical;
  spec.lengths.prompt_mu = 4.5;  // long prompts
  spec.lengths.prompt_sigma = 0.3;
  spec.lengths.output_mu = 4.5;  // long outputs keep kv growing
  spec.lengths.output_sigma = 0.3;
  auto trace = GenerateClosedLoopTrace(spec);
  driver.SubmitTrace(trace);
  driver.Run();
  EXPECT_EQ(driver.stats().finished_requests, 16);
  EXPECT_GT(driver.stats().migrations, 0);
}

TEST(ClusterTest, BatchSizeNeverExceedsMax) {
  CostModel cm((A100Sxm80GB()));
  ClusterConfig cfg = SmallCluster(2);
  ClusterDriver driver(cfg, &cm);
  driver.SubmitTrace(ShortTrace(80, Popularity::kUniform));
  driver.Run();
  EXPECT_LE(driver.stats().step_batch_size.max(),
            cfg.runner.max_batch_size);
}

TEST(ClusterTest, TokenTimeSeriesSumsToTotal) {
  CostModel cm((A100Sxm80GB()));
  ClusterDriver driver(SmallCluster(2), &cm);
  auto trace = ShortTrace(30, Popularity::kUniform);
  driver.SubmitTrace(trace);
  driver.Run();
  const auto& stats = driver.stats();
  double horizon = stats.makespan + 1.0;
  auto windows = stats.tokens.Windows(1.0, horizon);
  double sum = 0.0;
  for (const auto& w : windows) sum += w.sum;
  EXPECT_DOUBLE_EQ(sum, static_cast<double>(stats.total_new_tokens));
}

TEST(ClusterTest, LoraLoadsDelayButDoNotDeadlock) {
  CostModel cm((A100Sxm80GB()));
  ClusterConfig cfg = SmallCluster(1);
  cfg.runner.lora_load_latency_s = 50e-3;  // very slow PCIe for the test
  ClusterDriver driver(cfg, &cm);
  driver.SubmitTrace(ShortTrace(10, Popularity::kDistinct));
  driver.Run();
  EXPECT_EQ(driver.stats().finished_requests, 10);
}

TEST(ClusterTest, OpenLoopLatencyReasonable) {
  CostModel cm((A100Sxm80GB()));
  ClusterDriver driver(SmallCluster(2), &cm);
  auto trace = ShortTrace(40, Popularity::kSkewed, /*arrival_rate=*/2.0);
  driver.SubmitTrace(trace);
  driver.Run();
  const auto& stats = driver.stats();
  EXPECT_EQ(stats.finished_requests, 40);
  EXPECT_GT(stats.request_latency.mean(), 0.0);
  EXPECT_GE(stats.request_latency.min(), 0.0);
  EXPECT_LE(stats.first_token_latency.mean(),
            stats.request_latency.mean());
}

TEST(ClusterTest, PinnedStatsUnderMigrationConsolidationAndAutoscale) {
  // A small open-loop trace that exercises every path of the driver: a
  // tight KvCache forces pressure migrations, a short consolidation period
  // moves requests between GPUs, autoscale acquires and releases GPUs, and
  // adapter loads make idle GPUs wait for load-completion wakes. The values
  // are pinned exactly so a refactor of the event loop cannot drift.
  CostModel cm((A100Sxm80GB()));
  ClusterConfig cfg = SmallCluster(3);
  cfg.runner.kv_capacity_tokens = 1200;
  cfg.runner.lora_load_latency_s = 5e-3;
  cfg.consolidation_interval_s = 0.5;
  cfg.enable_autoscale = true;
  cfg.initial_gpus = 1;
  cfg.autoscale_interval_s = 0.25;
  cfg.autoscale.release_after_idle_ticks = 1;
  TraceSpec spec;
  spec.num_requests = 48;
  spec.popularity = Popularity::kSkewed;
  spec.lengths.prompt_mu = 4.5;
  spec.lengths.prompt_sigma = 0.5;
  spec.lengths.output_mu = 4.0;
  spec.lengths.output_sigma = 0.5;
  auto trace = GenerateClosedLoopTrace(spec);
  AssignPoissonArrivals(trace, /*rate=*/8.0, /*seed=*/7);
  ClusterDriver driver(cfg, &cm);
  driver.SubmitTrace(trace);
  driver.Run();
  const ClusterStats& s = driver.stats();
  EXPECT_EQ(s.finished_requests, 48);
  EXPECT_EQ(s.total_steps, 640);
  EXPECT_EQ(s.migrations, 20);
  EXPECT_EQ(s.total_new_tokens, 3060);
  EXPECT_EQ(s.gpu_acquisitions, 5);
  EXPECT_EQ(s.gpu_releases, 5);
  EXPECT_NEAR(s.makespan, 6.2827972872173552, 6.2827972872173552 * 1e-9);
}

TEST(ClusterTest, SubmitTraceRefusesUnservableRows) {
  // Trace files are outside input: a row with no prompt token or no token
  // to generate is refused at submit and counted — it never reaches a
  // backend (where an empty prompt aborts the step) and is never counted
  // finished with no tokens.
  CostModel cm((A100Sxm80GB()));
  ClusterDriver driver(SmallCluster(1), &cm);
  driver.SubmitTrace(
      {{.id = 0, .lora_id = 0, .prompt_len = 0, .output_len = 8},
       {.id = 1, .lora_id = 1, .prompt_len = 16, .output_len = 0}});
  driver.Run();
  const ClusterStats& s = driver.stats();
  EXPECT_EQ(s.rejected_requests, 2);
  EXPECT_EQ(s.finished_requests, 0);
  EXPECT_EQ(s.total_new_tokens, 0);
  EXPECT_TRUE(driver.requests().empty());
  EXPECT_EQ(driver.scheduler().queue_size(), 0u);
}

TEST(ClusterTest, SubmitTraceKeepsPrefixAndPriorityFields) {
  // SubmitTrace must carry every trace field the backends act on: the
  // shared-prefix annotation drives the runner's prefix cache, so the
  // driver and the serving loop must see the same prefix hits on the same
  // closed-loop trace.
  CostModel cm((A100Sxm80GB()));
  TraceSpec spec;
  spec.num_requests = 64;
  spec.popularity = Popularity::kSkewed;
  spec.shared_prefix.enabled = true;
  spec.priority_classes = 2;
  auto trace = GenerateClosedLoopTrace(spec);

  RunnerConfig rc = SmallCluster(1).runner;
  GpuRunner driver_runner(0, rc, Llama7B(), &cm);
  ClusterConfig cfg;
  cfg.enable_consolidation = false;
  ClusterDriver driver({&driver_runner}, cfg);
  driver.SubmitTrace(trace);
  driver.Run();
  ASSERT_EQ(driver.requests().size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const ServingRequest& r = driver.requests()[i];
    EXPECT_EQ(r.shared_prefix_len, trace[i].shared_prefix_len);
    EXPECT_EQ(r.prefix_group, trace[i].prefix_group);
    EXPECT_EQ(r.priority, trace[i].priority);
  }

  GpuRunner loop_runner(0, rc, Llama7B(), &cm);
  ServingLoopConfig lc;
  lc.shed_slack = 1e9;  // closed loop: nobody goes stale at the door
  ServingLoop loop({&loop_runner}, lc);
  loop.RunVirtual(trace);
  ASSERT_EQ(loop.metrics().finished, 64);

  PrefixCacheStats d = driver_runner.prefix_cache_stats();
  PrefixCacheStats l = loop_runner.prefix_cache_stats();
  EXPECT_GT(d.hits, 0);
  EXPECT_EQ(d.hits, l.hits);
  EXPECT_EQ(d.hit_tokens, l.hit_tokens);
}

}  // namespace
}  // namespace punica
