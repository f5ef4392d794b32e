// Thread-count determinism regression: the compute substrate must produce
// bit-identical token streams and request snapshots for any thread count
// (PUNICA_THREADS=1 vs 4 and the hardware default), because migration and
// consolidation equivalence rest on engines being exact replicas of each
// other. Runs the unified-serving scenario (frontend → driver → scheduler →
// EngineBackend → Engine, with KvCache-pressure migration) once per context
// and compares everything.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "frontend/frontend.h"
#include "model/llama.h"
#include "runtime/engine.h"
#include "runtime/engine_backend.h"
#include "sched/cluster.h"
#include "serving/serving_loop.h"
#include "sim/arrivals.h"
#include "tensor/simd.h"
#include "util/compute_context.h"

namespace punica {
namespace {

struct Req {
  LoraId lora;
  std::vector<std::int32_t> prompt;
  int tokens;
};

const std::vector<Req>& Scenario() {
  // Tight page pools force driver-orchestrated migration mid-stream, so the
  // comparison covers prefill, decode, re-prefill and consolidation paths.
  // The last three requests share a tenant system prompt, so the sweep also
  // covers prefix-cache hits: forked whole pages and suffix-only prefills
  // must be bit-identical at every thread count.
  static const std::vector<Req> reqs = {
      {0, {1, 2, 3, 4, 5, 6, 7, 8}, 24},
      {1, {9, 8, 7, 6, 5, 4, 3, 2}, 24},
      {2, {11, 12, 13}, 20},
      {-1, {21, 22, 23, 24}, 16},
      {0, {42}, 12},
      {1, {70, 71, 72, 73, 74, 75, 76, 77, 78, 79, 80, 81}, 10},
      {1, {70, 71, 72, 73, 74, 75, 76, 77, 78, 79, 80, 81}, 10},
      {2, {70, 71, 72, 73, 74, 75, 76, 77, 78, 79, 91, 92, 93}, 8},
  };
  return reqs;
}

/// An EngineBackend that audits its engine's invariants (KvCache pages and
/// page keys, per-request KV progress) after every Step and Cancel.
class AuditedBackend : public EngineBackend {
 public:
  using EngineBackend::EngineBackend;

  StepResult Step(double now) override {
    StepResult r = EngineBackend::Step(now);
    EXPECT_EQ(engine().AuditInvariants(), "");
    return r;
  }
  std::optional<RequestSnapshot> Cancel(std::int64_t request_id) override {
    std::optional<RequestSnapshot> snap = EngineBackend::Cancel(request_id);
    EXPECT_EQ(engine().AuditInvariants(), "");
    return snap;
  }
};

/// Builds the full numeric serving stack on `ctx` and runs the scenario,
/// returning every request's streamed tokens. `prefix_cache` toggles the
/// shared-prefix KV cache on the engines; `hit_tokens` (optional)
/// accumulates the cache hits actually realized; `max_step_tokens` chunks
/// prefills under a per-step token budget (0 = unchunked); `dtype` selects
/// the backbone weight storage (quantized backbones must uphold the same
/// bit-identity contract as f16).
std::vector<std::vector<std::int32_t>> RunScenario(
    const ComputeContext& ctx, bool prefix_cache = true,
    std::int64_t* hit_tokens = nullptr, std::int64_t max_step_tokens = 0,
    WeightDtype dtype = WeightDtype::kF16) {
  LlamaConfig config = TinyLlama();
  config.weight_dtype = dtype;
  LlamaModel model(config, 2024, &ctx);
  model.AddLora(0, 8, 1);
  model.AddLora(1, 8, 2);
  model.AddLora(2, 4, 3);

  std::vector<std::unique_ptr<Engine>> engines;
  std::vector<std::unique_ptr<EngineBackend>> backends;
  std::vector<ExecutionBackend*> raw;
  for (int g = 0; g < 2; ++g) {
    // 64 token slots on 4-token pages: tight enough that the driver
    // migrates requests mid-stream, and small pages so that the 12-token
    // tenant prompt caches 3 whole pages (the cache shares only those).
    engines.push_back(std::make_unique<Engine>(
        &model, model.MakeKvConfig(/*num_pages=*/16, /*page_size=*/4),
        EngineConfig{.max_batch_size = 4,
                     .max_step_tokens = max_step_tokens,
                     .enable_prefix_cache = prefix_cache}));
    backends.push_back(
        std::make_unique<AuditedBackend>(g, engines.back().get()));
    raw.push_back(backends.back().get());
    // The plumbing contract: every backend over this backbone reports the
    // one pool the model was built with.
    EXPECT_EQ(&backends.back()->context(), &ctx);
    EXPECT_EQ(&engines.back()->context(), &ctx);
  }
  ClusterDriver driver(raw);
  Frontend::SchedulerApi api;
  api.submit = [&](ServingRequest* req) { driver.SubmitExternal(req); };
  api.cancel = [&](std::int64_t id) { return driver.CancelExternal(id); };
  Frontend frontend(0, api, /*id_base=*/500);
  driver.SetEmissionCallback([&](const StepResult& result, double now) {
    frontend.OnStep(result, now);
  });

  std::vector<RequestHandle> handles;
  for (const auto& r : Scenario()) {
    handles.push_back(frontend.Submit({.lora = r.lora,
                                       .prompt_tokens = r.prompt,
                                       .max_new_tokens = r.tokens}));
  }
  driver.Run();
  EXPECT_GT(driver.stats().migrations, 0) << "scenario forced no migration";

  std::vector<std::vector<std::int32_t>> streams;
  for (RequestHandle h : handles) {
    TokenStream* stream = frontend.Stream(h);
    EXPECT_NE(stream, nullptr);
    streams.push_back(stream != nullptr ? stream->DrainAll()
                                        : std::vector<std::int32_t>{});
  }
  if (hit_tokens != nullptr) {
    for (const auto& e : engines) {
      *hit_tokens += e->prefix_cache_stats().hit_tokens;
    }
  }
  return streams;
}

/// The thread-count sweep: runs the scenario under PUNICA_THREADS=1, 4 and
/// the hardware default and asserts every stream is bit-identical.
void ExpectStreamsBitIdenticalAcrossThreadCounts() {
  // PUNICA_THREADS resolution is part of the contract under test: build
  // contexts via the env var, restoring the ambient value afterwards (CI
  // pins it for the whole test process).
  const char* prior = std::getenv("PUNICA_THREADS");
  std::string saved = prior != nullptr ? prior : "";
  setenv("PUNICA_THREADS", "1", 1);
  ComputeContext ctx1;
  setenv("PUNICA_THREADS", "4", 1);
  ComputeContext ctx4;
  unsetenv("PUNICA_THREADS");
  ComputeContext ctx_hw;  // hardware_concurrency default
  if (prior != nullptr) setenv("PUNICA_THREADS", saved.c_str(), 1);
  ASSERT_EQ(ctx1.num_threads(), 1);
  ASSERT_EQ(ctx4.num_threads(), 4);

  auto streams1 = RunScenario(ctx1);
  auto streams4 = RunScenario(ctx4);
  auto streams_hw = RunScenario(ctx_hw);

  ASSERT_EQ(streams1.size(), Scenario().size());
  for (std::size_t i = 0; i < streams1.size(); ++i) {
    EXPECT_FALSE(streams1[i].empty()) << "request " << i << " emitted nothing";
    EXPECT_EQ(streams1[i], streams4[i])
        << "request " << i << " diverged between 1 and 4 threads";
    EXPECT_EQ(streams1[i], streams_hw[i])
        << "request " << i << " diverged between 1 and hardware threads";
  }
}

TEST(DeterminismTest, TokenStreamsBitIdenticalAcrossThreadCounts) {
  // Ambient dispatch path (PUNICA_SIMD / cpuid), i.e. whatever this process
  // actually serves with.
  ExpectStreamsBitIdenticalAcrossThreadCounts();
}

TEST(DeterminismTest, TokenStreamsBitIdenticalAcrossThreadCountsScalarSimd) {
  ScopedSimdLevel guard(SimdLevel::kScalar);
  ExpectStreamsBitIdenticalAcrossThreadCounts();
}

TEST(DeterminismTest, TokenStreamsBitIdenticalAcrossThreadCountsVectorSimd) {
  // The vectorized kernels must uphold the same contract: vector-across-
  // columns keeps each element's reduction order fixed, so thread count
  // still never changes a bit. Every compiled-and-runnable vector level
  // (avx2, avx512) is swept; skipped (not silently passed) when none is in
  // the build — the Release CI job compiles them in.
  bool any = false;
  for (int l = 1; l < kNumSimdLevels; ++l) {
    auto level = static_cast<SimdLevel>(l);
    if (!SimdLevelAvailable(level)) continue;
    any = true;
    SCOPED_TRACE(SimdLevelName(level));
    ScopedSimdLevel guard(level);
    ExpectStreamsBitIdenticalAcrossThreadCounts();
  }
  if (!any) GTEST_SKIP() << "no vector SIMD available";
}

TEST(DeterminismTest, QuantStreamsBitIdenticalAcrossThreadCountsAllLevels) {
  // The quantized backbones inherit the full determinism contract: for
  // every (weight dtype, dispatch path), streams are bit-identical at any
  // thread count. Cross-dtype and cross-path streams MAY differ — the
  // contract is per (dtype, path), matching the f16 per-path contract.
  for (WeightDtype dtype : {WeightDtype::kQ8_0, WeightDtype::kQ4_0}) {
    for (int l = 0; l < kNumSimdLevels; ++l) {
      auto level = static_cast<SimdLevel>(l);
      if (!SimdLevelAvailable(level)) continue;
      SCOPED_TRACE(std::string(WeightDtypeName(dtype)) + "/" +
                   SimdLevelName(level));
      ScopedSimdLevel guard(level);
      ComputeContext ctx1({.num_threads = 1});
      ComputeContext ctx4({.num_threads = 4});
      auto s1 = RunScenario(ctx1, /*prefix_cache=*/true, nullptr, 0, dtype);
      auto s4 = RunScenario(ctx4, /*prefix_cache=*/true, nullptr, 0, dtype);
      ASSERT_EQ(s1.size(), Scenario().size());
      for (std::size_t i = 0; i < s1.size(); ++i) {
        EXPECT_FALSE(s1[i].empty()) << "request " << i << " emitted nothing";
        EXPECT_EQ(s1[i], s4[i])
            << "request " << i << " diverged between 1 and 4 threads";
      }
    }
  }
}

/// The shared-prefix contract: a prefix-hit stream must be bit-identical to
/// the cold-start stream — cached pages hold exactly the bits a cold
/// prefill would write, and suffix-only prefills change no reduction
/// order. Checked at several thread counts; the scenario's repeated tenant
/// prompts guarantee the enabled run actually takes the hit path.
void ExpectPrefixHitStreamsEqualColdStreams() {
  for (int threads : {1, 4}) {
    ComputeContext ctx({.num_threads = threads});
    std::int64_t hits = 0;
    auto with_cache = RunScenario(ctx, /*prefix_cache=*/true, &hits);
    auto cold = RunScenario(ctx, /*prefix_cache=*/false);
    EXPECT_GT(hits, 0) << "scenario exercised no prefix hits";
    ASSERT_EQ(with_cache.size(), cold.size());
    for (std::size_t i = 0; i < cold.size(); ++i) {
      EXPECT_EQ(with_cache[i], cold[i])
          << "request " << i << " diverged between prefix-hit and "
          << "cold-start runs at " << threads << " threads";
    }
  }
}

TEST(DeterminismTest, PrefixHitStreamsBitIdenticalToColdStart) {
  ExpectPrefixHitStreamsEqualColdStreams();
}

TEST(DeterminismTest, PrefixHitStreamsBitIdenticalToColdStartScalarSimd) {
  ScopedSimdLevel guard(SimdLevel::kScalar);
  ExpectPrefixHitStreamsEqualColdStreams();
}

TEST(DeterminismTest, PrefixHitStreamsBitIdenticalToColdStartVectorSimd) {
  if (BestSimdLevel() == SimdLevel::kScalar) {
    GTEST_SKIP() << "no vector SIMD available";
  }
  ScopedSimdLevel guard(BestSimdLevel());
  ExpectPrefixHitStreamsEqualColdStreams();
}

/// The chunked-prefill contract: a step token budget moves invocation
/// boundaries but never K/V bits or reduction orders, so chunked streams
/// must be bit-identical to unchunked streams at any budget and any thread
/// count. Budgets 16 and 128 chunk the scenario's longer prompts (and, at
/// 16, force multi-step prefills with decodes interleaved); ∞ (0) is the
/// reference.
void ExpectChunkedStreamsEqualUnchunked() {
  for (int threads : {1, 4}) {
    ComputeContext ctx({.num_threads = threads});
    auto unchunked = RunScenario(ctx, /*prefix_cache=*/true, nullptr,
                                 /*max_step_tokens=*/0);
    for (std::int64_t budget : {16, 128}) {
      auto chunked = RunScenario(ctx, /*prefix_cache=*/true, nullptr,
                                 budget);
      ASSERT_EQ(chunked.size(), unchunked.size());
      for (std::size_t i = 0; i < unchunked.size(); ++i) {
        EXPECT_EQ(chunked[i], unchunked[i])
            << "request " << i << " diverged at budget " << budget << ", "
            << threads << " threads";
      }
    }
  }
}

TEST(DeterminismTest, ChunkedPrefillStreamsBitIdenticalToUnchunked) {
  ExpectChunkedStreamsEqualUnchunked();
}

TEST(DeterminismTest, ChunkedPrefillStreamsBitIdenticalToUnchunkedScalarSimd) {
  ScopedSimdLevel guard(SimdLevel::kScalar);
  ExpectChunkedStreamsEqualUnchunked();
}

TEST(DeterminismTest, ChunkedPrefillStreamsBitIdenticalToUnchunkedVectorSimd) {
  if (BestSimdLevel() == SimdLevel::kScalar) {
    GTEST_SKIP() << "no vector SIMD available";
  }
  ScopedSimdLevel guard(BestSimdLevel());
  ExpectChunkedStreamsEqualUnchunked();
}

TEST(DeterminismTest, StreamsBitIdenticalAcrossSplitKvSizes) {
  // The split-KV contract: attention math is fixed-block with an ascending
  // fold, so the split count is pure scheduling — streams must be
  // bit-identical across attn_split ∈ {heuristic, forced 1, forced 3} at
  // every thread count, within each SIMD dispatch path.
  for (int l = 0; l < kNumSimdLevels; ++l) {
    auto level = static_cast<SimdLevel>(l);
    if (!SimdLevelAvailable(level)) continue;
    ScopedSimdLevel guard(level);
    std::vector<std::vector<std::int32_t>> reference;
    for (int threads : {1, 4}) {
      for (int split : {0, 1, 3}) {
        SCOPED_TRACE(std::string(SimdLevelName(level)) + "/threads=" +
                     std::to_string(threads) + "/split=" +
                     std::to_string(split));
        ComputeContext ctx({.num_threads = threads, .attn_split = split});
        auto streams = RunScenario(ctx);
        ASSERT_EQ(streams.size(), Scenario().size());
        if (reference.empty()) {
          for (const auto& s : streams) EXPECT_FALSE(s.empty());
          reference = streams;
          continue;
        }
        for (std::size_t i = 0; i < streams.size(); ++i) {
          EXPECT_EQ(streams[i], reference[i])
              << "request " << i << " diverged from the first configuration";
        }
      }
    }
  }
}

/// Open-loop serving determinism: the virtual-time ServingLoop replays a
/// keyed Poisson arrival schedule against numeric EngineBackends. Both the
/// token streams AND every SLO metric (TTFT/queue/e2e/ITL samples, goodput
/// counters) must be bit-identical for any thread count — virtual time is
/// event-driven, so wall-clock speed must never leak into a measurement.
struct OpenLoopServingRun {
  std::map<std::int64_t, std::vector<std::int32_t>> streams;
  ServingMetrics metrics;
};

OpenLoopServingRun RunOpenLoopServing(const ComputeContext& ctx) {
  LlamaModel model(TinyLlama(), 2024, &ctx);
  model.AddLora(0, 8, 1);
  model.AddLora(1, 8, 2);
  model.AddLora(2, 4, 3);

  std::vector<std::unique_ptr<Engine>> engines;
  std::vector<std::unique_ptr<EngineBackend>> backends;
  std::vector<ExecutionBackend*> raw;
  for (int g = 0; g < 2; ++g) {
    engines.push_back(std::make_unique<Engine>(
        &model, model.MakeKvConfig(/*num_pages=*/10),
        EngineConfig{.max_batch_size = 4}));
    backends.push_back(
        std::make_unique<EngineBackend>(g, engines.back().get()));
    raw.push_back(backends.back().get());
  }

  ServingLoopConfig cfg;
  cfg.slo = {.ttft_target_s = 0.5, .itl_target_s = 0.25};
  ServingLoop loop(raw, cfg);

  // Bursty arrivals (mean gap 5 ms ≪ the 10 ms engine step) so the door
  // actually queues and defers — the paths whose ordering must not depend
  // on the compute substrate. Alternating priorities exercise the
  // class-ordered admission sort.
  std::vector<double> arrivals =
      PoissonArrivalsKeyed(200.0, Scenario().size(), /*seed=*/42);
  std::vector<SubmitSpec> specs;
  for (std::size_t i = 0; i < Scenario().size(); ++i) {
    const Req& r = Scenario()[i];
    specs.push_back({.lora = r.lora,
                     .prompt_tokens = r.prompt,
                     .max_new_tokens = r.tokens,
                     .arrival_time = arrivals[i],
                     .priority = static_cast<std::int32_t>(i % 2)});
  }
  loop.RunVirtual(specs);
  return {loop.streams(), loop.metrics()};
}

void ExpectSameSamples(const LatencyRecorder& a, const LatencyRecorder& b,
                       const char* what) {
  ASSERT_EQ(a.count(), b.count()) << what;
  for (std::size_t i = 0; i < a.count(); ++i) {
    EXPECT_EQ(a.samples()[i], b.samples()[i]) << what << " sample " << i;
  }
}

void ExpectOpenLoopServingDeterministicAcrossThreadCounts() {
  ComputeContext ctx1({.num_threads = 1});
  ComputeContext ctx4({.num_threads = 4});
  OpenLoopServingRun a = RunOpenLoopServing(ctx1);
  OpenLoopServingRun b = RunOpenLoopServing(ctx4);

  ASSERT_EQ(a.streams.size(), Scenario().size());
  EXPECT_EQ(a.streams, b.streams) << "token streams diverged";
  EXPECT_EQ(a.metrics.offered, b.metrics.offered);
  EXPECT_EQ(a.metrics.finished, b.metrics.finished);
  EXPECT_EQ(a.metrics.shed, b.metrics.shed);
  EXPECT_EQ(a.metrics.good, b.metrics.good);
  EXPECT_EQ(a.metrics.total_new_tokens, b.metrics.total_new_tokens);
  ExpectSameSamples(a.metrics.ttft, b.metrics.ttft, "ttft");
  ExpectSameSamples(a.metrics.queue_wait, b.metrics.queue_wait, "queue_wait");
  ExpectSameSamples(a.metrics.e2e, b.metrics.e2e, "e2e");
  ExpectSameSamples(a.metrics.itl, b.metrics.itl, "itl");
  // The workload actually serves: everything finishes on the virtual clock.
  EXPECT_EQ(a.metrics.finished, a.metrics.offered);
  EXPECT_GT(a.metrics.ttft.count(), 0u);
}

TEST(DeterminismTest, OpenLoopServingDeterministicAcrossThreadCounts) {
  ExpectOpenLoopServingDeterministicAcrossThreadCounts();
}

TEST(DeterminismTest, OpenLoopServingDeterministicScalarSimd) {
  ScopedSimdLevel guard(SimdLevel::kScalar);
  ExpectOpenLoopServingDeterministicAcrossThreadCounts();
}

TEST(DeterminismTest, OpenLoopServingDeterministicVectorSimd) {
  if (BestSimdLevel() == SimdLevel::kScalar) {
    GTEST_SKIP() << "no vector SIMD available";
  }
  ScopedSimdLevel guard(BestSimdLevel());
  ExpectOpenLoopServingDeterministicAcrossThreadCounts();
}

/// TinyLlama with 1:1 query/KV heads so every swept TP degree (2, 4)
/// divides heads, KV heads and ffn evenly.
LlamaConfig TinyLlamaTp() {
  LlamaConfig c = TinyLlama();
  c.name = "tiny-llama-tp";
  c.num_kv_heads = 4;
  return c;
}

/// RunScenario's tensor-parallel sibling: the same unified serving stack
/// (frontend → driver → migration → EngineBackend → Engine) over a model
/// sharded at `tp`, executed either as the serial rank loop or concurrently
/// on disjoint worker groups. LoRA-active by default: requests carry the
/// scenario's adapter ids (ranks 8/8/4, sharded over the ranks at
/// registration), so the sweeps cover the per-rank SGMV shrink/expand and
/// the adapter deltas folding through the all-reduce — `with_lora=false`
/// reproduces the backbone-only runs.
std::vector<std::vector<std::int32_t>> RunTpScenario(
    const ComputeContext& ctx, int tp, bool concurrent,
    WeightDtype dtype = WeightDtype::kF16, bool with_lora = true) {
  LlamaConfig config = TinyLlamaTp();
  config.weight_dtype = dtype;
  LlamaModel model(config, 2024, &ctx, tp, concurrent);
  model.AddLora(0, 8, 1);
  model.AddLora(1, 8, 2);
  model.AddLora(2, 4, 3);

  std::vector<std::unique_ptr<Engine>> engines;
  std::vector<std::unique_ptr<EngineBackend>> backends;
  std::vector<ExecutionBackend*> raw;
  for (int g = 0; g < 2; ++g) {
    engines.push_back(std::make_unique<Engine>(
        &model, model.MakeKvConfig(/*num_pages=*/10),
        EngineConfig{.max_batch_size = 4}));
    backends.push_back(
        std::make_unique<EngineBackend>(g, engines.back().get()));
    raw.push_back(backends.back().get());
  }
  ClusterDriver driver(raw);
  Frontend::SchedulerApi api;
  api.submit = [&](ServingRequest* req) { driver.SubmitExternal(req); };
  api.cancel = [&](std::int64_t id) { return driver.CancelExternal(id); };
  Frontend frontend(0, api, /*id_base=*/500);
  driver.SetEmissionCallback([&](const StepResult& result, double now) {
    frontend.OnStep(result, now);
  });

  std::vector<RequestHandle> handles;
  for (const auto& r : Scenario()) {
    handles.push_back(frontend.Submit({.lora = with_lora ? r.lora : -1,
                                       .prompt_tokens = r.prompt,
                                       .max_new_tokens = r.tokens}));
  }
  driver.Run();

  std::vector<std::vector<std::int32_t>> streams;
  for (RequestHandle h : handles) {
    TokenStream* stream = frontend.Stream(h);
    EXPECT_NE(stream, nullptr);
    streams.push_back(stream != nullptr ? stream->DrainAll()
                                        : std::vector<std::int32_t>{});
  }
  return streams;
}

TEST(DeterminismTest, TpStreamsBitIdenticalSerialVsConcurrent) {
  // The tentpole contract end-to-end, now LoRA-active: for every (weight
  // dtype, dispatch path, tp degree), the concurrent worker-group execution
  // streams bit-identically to the serial rank loop at every thread count —
  // the fixed-rank-order all-reduce makes rank scheduling unobservable.
  // Requests carry real adapters (ranks 8/8/4 sharded over the ranks), so
  // each rank's SGMV shrink/expand and the row-parallel adapter deltas
  // inherit the same contract as the dense partials.
  for (WeightDtype dtype : {WeightDtype::kF16, WeightDtype::kQ8_0}) {
    for (int l = 0; l < kNumSimdLevels; ++l) {
      auto level = static_cast<SimdLevel>(l);
      if (!SimdLevelAvailable(level)) continue;
      ScopedSimdLevel guard(level);
      for (int tp : {2, 4}) {
        SCOPED_TRACE(std::string(WeightDtypeName(dtype)) + "/" +
                     SimdLevelName(level) + "/tp" + std::to_string(tp));
        ComputeContext ctx1({.num_threads = 1});
        ComputeContext ctx4({.num_threads = 4});
        ComputeContext ctx_hw;  // ambient PUNICA_THREADS / hw default
        auto reference = RunTpScenario(ctx1, tp, /*concurrent=*/false, dtype);
        ASSERT_EQ(reference.size(), Scenario().size());
        std::vector<std::pair<const char*,
                              std::vector<std::vector<std::int32_t>>>>
            runs;
        runs.emplace_back("serial/4t",
                          RunTpScenario(ctx4, tp, false, dtype));
        runs.emplace_back("concurrent/1t",
                          RunTpScenario(ctx1, tp, true, dtype));
        runs.emplace_back("concurrent/4t",
                          RunTpScenario(ctx4, tp, true, dtype));
        runs.emplace_back("concurrent/hw",
                          RunTpScenario(ctx_hw, tp, true, dtype));
        for (const auto& [what, streams] : runs) {
          ASSERT_EQ(streams.size(), reference.size()) << what;
          for (std::size_t i = 0; i < reference.size(); ++i) {
            EXPECT_FALSE(reference[i].empty())
                << "request " << i << " emitted nothing";
            EXPECT_EQ(streams[i], reference[i])
                << "request " << i << " diverged in " << what;
          }
        }
      }
    }
  }
}

TEST(DeterminismTest, TpStreamsMatchSingleGpuExecution) {
  // TP vs tp=1 is an *argmax-level* equivalence, not a bit-level one: the
  // all-reduce at the O/Down seams regroups the fp32 accumulation, so
  // logits differ in ulps while the shift-tied LM head's well-separated
  // argmax keeps greedy streams identical. LoRA-active: adapters stay f16,
  // so their shards are exact at every seam and add NO per-dtype exemption
  // — the streams below carry real adapter segments. q8_0 is compared at
  // tp=2 only: at tp=4 this config's O projection row-slices the dense
  // BACKBONE at offset 16, mid-block for 32-wide quant groups, so shard
  // quantization legitimately differs from whole-matrix quantization (see
  // ShardLayer's alignment note) — an exemption of the quantized backbone,
  // not of the LoRA path.
  for (int threads : {1, 4}) {
    ComputeContext ctx({.num_threads = threads});
    auto single_f16 = RunTpScenario(ctx, 1, false, WeightDtype::kF16);
    for (int tp : {2, 4}) {
      auto streams = RunTpScenario(ctx, tp, true, WeightDtype::kF16);
      ASSERT_EQ(streams.size(), single_f16.size());
      for (std::size_t i = 0; i < streams.size(); ++i) {
        EXPECT_EQ(streams[i], single_f16[i])
            << "f16 tp=" << tp << " request " << i << " diverged from "
            << "single-GPU at " << threads << " threads";
      }
    }
    auto single_q8 = RunTpScenario(ctx, 1, false, WeightDtype::kQ8_0);
    auto q8_tp2 = RunTpScenario(ctx, 2, true, WeightDtype::kQ8_0);
    ASSERT_EQ(q8_tp2.size(), single_q8.size());
    for (std::size_t i = 0; i < q8_tp2.size(); ++i) {
      EXPECT_EQ(q8_tp2[i], single_q8[i])
          << "q8_0 tp=2 request " << i << " diverged from single-GPU at "
          << threads << " threads";
    }
  }
}

/// Steps an engine `steps` times, then cancels the request and returns its
/// snapshot — the migration payload whose bits must not depend on threads.
RequestSnapshot SnapshotAfterSteps(const ComputeContext& ctx, int steps) {
  LlamaModel model(TinyLlama(), 7, &ctx);
  model.AddLora(0, 8, 1);
  Engine engine(&model, model.MakeKvConfig(64));
  RequestHandle h = engine.AddRequest(
      {.lora = 0, .prompt_tokens = {5, 6, 7, 8}, .max_new_tokens = 32});
  for (int s = 0; s < steps; ++s) engine.Step();
  auto snap = engine.Cancel(h);
  EXPECT_TRUE(snap.has_value());
  return snap.value_or(RequestSnapshot{});
}

TEST(DeterminismTest, SnapshotsBitIdenticalAcrossThreadCounts) {
  ComputeContext ctx1({.num_threads = 1});
  ComputeContext ctx4({.num_threads = 4});
  RequestSnapshot a = SnapshotAfterSteps(ctx1, 6);
  RequestSnapshot b = SnapshotAfterSteps(ctx4, 6);
  EXPECT_EQ(a.prompt, b.prompt);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.prompt_len, b.prompt_len);
  EXPECT_EQ(a.generated_len, b.generated_len);
  EXPECT_EQ(a.max_new_tokens, b.max_new_tokens);
  EXPECT_EQ(a.eos_token, b.eos_token);
}

TEST(DeterminismTest, ModelLogitsBitIdenticalAcrossThreadCounts) {
  // Kernel-level check one layer up from gemm/sgmv: full forward logits.
  auto logits_for = [](const ComputeContext& ctx) {
    LlamaModel model(TinyLlama(), 99, &ctx);
    model.AddLora(3, 8, 4);
    PagedKvCache kv(model.MakeKvConfig(64));
    SeqId seq = kv.CreateSequence();
    kv.Extend(seq, 5);
    ModelBatch batch = ModelBatch::Build({{.seq = seq,
                                           .lora = 3,
                                           .num_tokens = 5,
                                           .pos_offset = 0,
                                           .is_prefill = true}});
    std::vector<std::int32_t> ids = {10, 20, 30, 40, 50};
    return model.Forward(batch, ids, kv);
  };
  ComputeContext ctx1({.num_threads = 1});
  ComputeContext ctx3({.num_threads = 3});
  Tensor<float> a = logits_for(ctx1);
  Tensor<float> b = logits_for(ctx3);
  ASSERT_EQ(a.numel(), b.numel());
  for (std::size_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << "logit " << i;
  }
}

}  // namespace
}  // namespace punica
