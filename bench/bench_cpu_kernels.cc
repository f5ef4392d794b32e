// google-benchmark microbenchmarks of the real CPU kernels: SGMV schedules,
// baseline LoRA operators, paged attention and the full tiny-model layer.
// These measure this repo's actual numerics (not the A100 projection);
// the relative orderings mirror Fig. 8 because the IO asymmetries are the
// same.
//
// The *Threads benchmarks sweep the compute substrate's pool width over
// 1/2/4/hardware for the hot-path kernels and a full Engine::Step decode
// batch; `items_per_second` at each width gives the scaling curve (the
// speedup is the ratio against the width-1 row). All widths produce
// bit-identical outputs — the sweep measures time, never numerics.
//
// The *Simd benchmarks A/B scalar against the best vector dispatch path
// (arg 0 = scalar, 1 = best of avx2/avx512) at one thread on the same
// shapes, so a regression in either path is visible independently of pool
// scaling. The CI bench smoke runs both sweeps with
// --benchmark_out=BENCH_kernels.json to log the GFLOP/s / tokens/s
// trajectory.
//
// The *Quant benchmarks sweep weight dtype (0=f16, 1=q8_0, 2=q4_0) ×
// explicit dispatch level (simd 0=scalar, 1=avx2, 2=avx512) on the decode
// acceptance shape, at one thread. They are written to a SEPARATE baseline
// file (BENCH_kernels_quant.json, --benchmark_filter='Quant'); their names
// deliberately avoid the "Threads"/"Simd" substrings so the existing
// BENCH_kernels.json filter never picks them up.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <vector>

#include "baselines/lora_ops.h"
#include "core/lora.h"
#include "core/sgmv.h"
#include "model/attention.h"
#include "model/llama.h"
#include "runtime/engine.h"
#include "tensor/gemm.h"
#include "tensor/simd.h"
#include "util/compute_context.h"
#include "util/rng.h"
#include "workload/popularity.h"

namespace punica {
namespace {

// Sweep arg: pool width (0 = ComputeContext's default resolution, i.e.
// PUNICA_THREADS when exported, else hardware_concurrency). Wall time, not
// CPU time: the caller sleeps while workers compute, so CPU time would
// fabricate the scaling curve.
void ThreadSweep(benchmark::internal::Benchmark* b) {
  b->ArgName("threads");
  b->Arg(1)->Arg(2)->Arg(4)->Arg(0)->UseRealTime();
}

// Sweep arg: dispatch path (0 = scalar, 1 = best vector level). Runs
// single-threaded so the rows compare per-core kernel throughput, not pool
// scaling.
void SimdSweep(benchmark::internal::Benchmark* b) {
  b->ArgName("native");
  b->Arg(0)->Arg(1);
}

// Forces the dispatch path selected by a *Simd benchmark's arg for the
// guard's lifetime; returns false (after SkipWithError) when a vector path
// was requested but none is compiled/supported in this build.
bool ForceSimdArg(benchmark::State& state,
                  std::optional<ScopedSimdLevel>& guard) {
  const bool native = state.range(0) == 1;
  if (native && BestSimdLevel() == SimdLevel::kScalar) {
    state.SkipWithError("no vector SIMD compiled/supported");
    return false;
  }
  guard.emplace(native ? BestSimdLevel() : SimdLevel::kScalar);
  return true;
}

// --- Quant sweep plumbing ---

// Args: {dtype (WeightDtype: 0=f16, 1=q8_0, 2=q4_0),
//        simd  (SimdLevel: 0=scalar, 1=avx2, 2=avx512)}.
// Unavailable levels SkipWithError (the extractor drops errored rows), so
// one baseline schema serves hosts with and without avx512.
void QuantSweep(benchmark::internal::Benchmark* b) {
  b->ArgNames({"dtype", "simd"});
  for (int d = 0; d < 3; ++d) {
    for (int s = 0; s < kNumSimdLevels; ++s) b->Args({d, s});
  }
}

// Forces the explicit dispatch level in a benchmark's arg `arg` (arg 1 of
// the *Quant sweeps).
bool ForceSimdLevelArg(benchmark::State& state,
                       std::optional<ScopedSimdLevel>& guard, int arg = 1) {
  auto level = static_cast<SimdLevel>(state.range(arg));
  if (!SimdLevelAvailable(level)) {
    state.SkipWithError("SIMD level not compiled/supported on this host");
    return false;
  }
  guard.emplace(level);
  return true;
}

struct OpProblem {
  std::vector<LoraAB> adapters;
  std::vector<const LoraAB*> ptrs;
  std::vector<std::int32_t> seg;
  std::vector<float> x;
  std::vector<float> y;
  std::vector<float> workspace;
  int h;
};

OpProblem MakeOpProblem(int num_segments, int rows_per_segment, int h,
                        int rank) {
  OpProblem p;
  p.h = h;
  p.seg.push_back(0);
  for (int i = 0; i < num_segments; ++i) {
    p.seg.push_back(p.seg.back() + rows_per_segment);
    p.adapters.push_back(
        LoraAB::Random(h, h, rank, 100 + static_cast<std::uint64_t>(i)));
  }
  for (const auto& a : p.adapters) p.ptrs.push_back(&a);
  Pcg32 rng(5);
  int total = p.seg.back();
  p.x = RandomGaussianVector(
      static_cast<std::size_t>(total) * static_cast<std::size_t>(h), 1.0f,
      rng);
  p.y.assign(p.x.size(), 0.0f);
  p.workspace.assign(static_cast<std::size_t>(total) *
                         static_cast<std::size_t>(rank),
                     0.0f);
  return p;
}

// Args: {num_segments, rows_per_segment}. h=512, r=16 keeps CPU time sane.
void BM_SgmvLoraAddon(benchmark::State& state) {
  OpProblem p = MakeOpProblem(static_cast<int>(state.range(0)),
                              static_cast<int>(state.range(1)), 512, 16);
  for (auto _ : state) {
    BatchedLoraAddon(p.y, p.x, p.ptrs, p.seg, p.h, p.h, p.workspace);
    benchmark::DoNotOptimize(p.y.data());
  }
  state.SetItemsProcessed(state.iterations() * p.seg.back());
}
BENCHMARK(BM_SgmvLoraAddon)
    ->Args({1, 1})
    ->Args({1, 64})
    ->Args({8, 8})
    ->Args({64, 1});

void BM_LoopLora(benchmark::State& state) {
  OpProblem p = MakeOpProblem(static_cast<int>(state.range(0)),
                              static_cast<int>(state.range(1)), 512, 16);
  for (auto _ : state) {
    LoopLoraApply(p.y, p.x, p.ptrs, p.seg, p.h, p.h);
    benchmark::DoNotOptimize(p.y.data());
  }
  state.SetItemsProcessed(state.iterations() * p.seg.back());
}
BENCHMARK(BM_LoopLora)->Args({1, 64})->Args({8, 8})->Args({64, 1});

void BM_GatherBmmLora(benchmark::State& state) {
  OpProblem p = MakeOpProblem(static_cast<int>(state.range(0)),
                              static_cast<int>(state.range(1)), 512, 16);
  for (auto _ : state) {
    GatherBmmLoraApply(p.y, p.x, p.ptrs, p.seg, p.h, p.h);
    benchmark::DoNotOptimize(p.y.data());
  }
  state.SetItemsProcessed(state.iterations() * p.seg.back());
}
BENCHMARK(BM_GatherBmmLora)->Args({1, 64})->Args({8, 8})->Args({64, 1});

void BM_SgmvShrinkVsExpand(benchmark::State& state) {
  const bool expand = state.range(0) == 1;
  const int rows = 32, h = 1024, rank = 16;
  Pcg32 rng(6);
  Tensor<f16> w = expand ? Tensor<f16>({rank, h}) : Tensor<f16>({h, rank});
  for (auto& v : w.data()) {
    v = f16(static_cast<float>(rng.NextGaussian()) * 0.05f);
  }
  int h_in = expand ? rank : h;
  int h_out = expand ? h : rank;
  auto x = RandomGaussianVector(
      static_cast<std::size_t>(rows) * static_cast<std::size_t>(h_in), 1.0f,
      rng);
  std::vector<float> y(static_cast<std::size_t>(rows) *
                           static_cast<std::size_t>(h_out),
                       0.0f);
  const f16* ptr = w.raw();
  std::vector<std::int32_t> seg = {0, rows};
  SgmvArgs args{y, x, std::span<const f16* const>(&ptr, 1), seg, h_in,
                h_out};
  for (auto _ : state) {
    if (expand) {
      SgmvExpand(args);
    } else {
      SgmvShrink(args);
    }
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_SgmvShrinkVsExpand)->Arg(0)->Arg(1);

// Shared body for the decode-attention benches: the arg-shape rows and the
// scalar-vs-native sweep must measure the identical problem.
void RunBatchDecodeAttentionBench(benchmark::State& state,
                                  const ComputeContext& ctx, int batch,
                                  std::int64_t len) {
  LlamaConfig c = TinyLlama();
  KvCacheConfig kvc{.num_layers = c.num_layers,
                    .num_kv_heads = c.num_kv_heads,
                    .head_dim = c.head_dim(),
                    .page_size = 16,
                    .num_pages = 4096};
  PagedKvCache kv(kvc);
  Pcg32 rng(7);
  std::vector<SeqId> seqs;
  for (int i = 0; i < batch; ++i) {
    SeqId s = kv.CreateSequence();
    kv.Extend(s, len);
    for (std::int64_t pos = 0; pos < len; ++pos) {
      for (auto slot : {KvSlot::kKey, KvSlot::kValue}) {
        auto e = kv.Entry(s, 0, pos, slot);
        for (auto& v : e) {
          v = f16(static_cast<float>(rng.NextGaussian()) * 0.3f);
        }
      }
    }
    seqs.push_back(s);
  }
  std::size_t width = static_cast<std::size_t>(c.num_heads) *
                      static_cast<std::size_t>(c.head_dim());
  auto q = RandomGaussianVector(static_cast<std::size_t>(batch) * width, 1.0f,
                                rng);
  std::vector<float> out(q.size());
  for (auto _ : state) {
    BatchDecodeAttention(c, kv, seqs, 0, q, out, ctx);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}

void BM_BatchDecodeAttention(benchmark::State& state) {
  RunBatchDecodeAttentionBench(state, ComputeContext::Default(),
                               static_cast<int>(state.range(0)),
                               state.range(1));
}
BENCHMARK(BM_BatchDecodeAttention)
    ->Args({1, 128})
    ->Args({8, 128})
    ->Args({8, 1024});

// --- Thread-count sweep over the numeric hot path ---

// Shared bodies below: parameterized by context (and shape) so the
// *Threads and *Simd sweeps measure the identical problem — drift between
// them would make the two sweeps' rows incomparable.

void RunGemmAccF16WBench(benchmark::State& state, const ComputeContext& ctx,
                         int m, int k, int n) {
  Pcg32 rng(11);
  Tensor<f16> w({k, n});
  for (auto& v : w.data()) {
    v = f16(static_cast<float>(rng.NextGaussian()) * 0.05f);
  }
  auto x = RandomGaussianVector(static_cast<std::size_t>(m) * k, 1.0f, rng);
  std::vector<float> y(static_cast<std::size_t>(m) * n, 0.0f);
  for (auto _ : state) {
    GemmAccF16W(x, w.data(), y, m, k, n, ctx);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * m);
  state.counters["flops"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * m * k * n,
      benchmark::Counter::kIsRate);
}

void BM_GemmAccF16WThreads(benchmark::State& state) {
  ComputeContext ctx({.num_threads = static_cast<int>(state.range(0))});
  RunGemmAccF16WBench(state, ctx, 32, 1024, 1024);
}
BENCHMARK(BM_GemmAccF16WThreads)->Apply(ThreadSweep);

void RunSgmvShrinkBench(benchmark::State& state, const ComputeContext& ctx,
                        int num_segments = 8, int rows_per_segment = 8,
                        int h = 1024) {
  OpProblem p = MakeOpProblem(num_segments, rows_per_segment, h,
                              /*rank=*/16);
  std::vector<const f16*> a_ptrs;
  for (const auto* ad : p.ptrs) a_ptrs.push_back(ad->a.raw());
  std::vector<float> v(static_cast<std::size_t>(p.seg.back()) * 16, 0.0f);
  // Preallocated split-K scratch, like the serving hot path.
  std::vector<float> scratch(static_cast<std::size_t>(p.seg.back()) *
                             static_cast<std::size_t>(kMaxSplitKPartitions) *
                             16);
  SgmvArgs args{v, p.x, a_ptrs, p.seg, p.h, 16};
  for (auto _ : state) {
    SgmvShrink(args, ctx, scratch);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * p.seg.back());
  state.counters["flops"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          SgmvCostOf(p.seg, p.h, 16).flop,
      benchmark::Counter::kIsRate);
}

void BM_SgmvShrinkThreads(benchmark::State& state) {
  ComputeContext ctx({.num_threads = static_cast<int>(state.range(0))});
  RunSgmvShrinkBench(state, ctx);
}
BENCHMARK(BM_SgmvShrinkThreads)->Apply(ThreadSweep);

void RunSgmvExpandBench(benchmark::State& state, const ComputeContext& ctx,
                        int num_segments = 1, int rows_per_segment = 64,
                        int h = 1024) {
  const int rows = num_segments * rows_per_segment, rank = 16;
  Pcg32 rng(12);
  Tensor<f16> w({rank, h});
  for (auto& v : w.data()) {
    v = f16(static_cast<float>(rng.NextGaussian()) * 0.05f);
  }
  auto x = RandomGaussianVector(static_cast<std::size_t>(rows) * rank, 1.0f,
                                rng);
  std::vector<float> y(static_cast<std::size_t>(rows) * h, 0.0f);
  // Every segment gathers the same B by pointer: the schedule, not the
  // weight bytes, is what the segment count varies.
  std::vector<const f16*> ptrs(static_cast<std::size_t>(num_segments),
                               w.raw());
  std::vector<std::int32_t> seg = {0};
  for (int s = 0; s < num_segments; ++s) {
    seg.push_back(seg.back() + rows_per_segment);
  }
  SgmvArgs args{y, x, ptrs, seg, rank, h};
  for (auto _ : state) {
    SgmvExpand(args, ctx);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * rows);
  state.counters["flops"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          SgmvCostOf(seg, rank, h).flop,
      benchmark::Counter::kIsRate);
}

void BM_SgmvExpandThreads(benchmark::State& state) {
  ComputeContext ctx({.num_threads = static_cast<int>(state.range(0))});
  RunSgmvExpandBench(state, ctx);
}
BENCHMARK(BM_SgmvExpandThreads)->Apply(ThreadSweep);

// A full Engine::Step over a continuous decode batch: the end-to-end
// hot path (projections + LoRA SGMV + paged attention + LM head).
// items_per_second is decode tokens/s.
void RunEngineDecodeStepBench(benchmark::State& state,
                              const ComputeContext& ctx,
                              WeightDtype dtype = WeightDtype::kF16) {
  const int batch = 16;
  LlamaConfig config = TinyLlama();
  config.weight_dtype = dtype;
  LlamaModel model(config, 9, &ctx);
  model.AddLora(0, 8, 1);
  model.AddLora(1, 8, 2);
  Engine engine(&model, model.MakeKvConfig(2048),
                {.max_batch_size = batch, .prefill_limit = batch});
  auto refill = [&] {
    for (int i = 0; i < batch; ++i) {
      std::vector<std::int32_t> prompt;
      for (int t = 0; t < 16; ++t) {
        prompt.push_back(static_cast<std::int32_t>((i * 17 + t) % 100));
      }
      engine.AddRequest({.lora = i % 2,
                         .prompt_tokens = std::move(prompt),
                         .max_new_tokens = 64});
    }
    engine.Step();  // prefill everything; timed iterations are pure decode
  };
  refill();
  std::int64_t tokens = 0;
  for (auto _ : state) {
    if (!engine.HasWork()) {
      state.PauseTiming();
      refill();
      state.ResumeTiming();
    }
    StepResult r = engine.Step();
    tokens += r.new_tokens;
  }
  state.SetItemsProcessed(tokens);
}

void BM_EngineDecodeStepThreads(benchmark::State& state) {
  ComputeContext ctx({.num_threads = static_cast<int>(state.range(0))});
  RunEngineDecodeStepBench(state, ctx);
}
BENCHMARK(BM_EngineDecodeStepThreads)->Apply(ThreadSweep);

// --- Scalar-vs-native dispatch sweep (same shapes as the *Threads sweep,
// one thread; the bodies are shared so the sweeps cannot drift apart) ---

void BM_GemmAccF16WSimd(benchmark::State& state) {
  std::optional<ScopedSimdLevel> level;
  if (!ForceSimdArg(state, level)) return;
  ComputeContext ctx({.num_threads = 1});
  RunGemmAccF16WBench(state, ctx, 32, 1024, 1024);
}
BENCHMARK(BM_GemmAccF16WSimd)->Apply(SimdSweep);

// The decode-projection shape the ≥4×-per-core acceptance bar is quoted on
// (small m, LLM-scale k×n: the panel decode is amortised only 8×, so this
// is the *least* vector-friendly GEMM shape the serving path runs).
void BM_GemmAccF16WSimdDecodeShape(benchmark::State& state) {
  std::optional<ScopedSimdLevel> level;
  if (!ForceSimdArg(state, level)) return;
  ComputeContext ctx({.num_threads = 1});
  RunGemmAccF16WBench(state, ctx, 8, 4096, 4096);
}
BENCHMARK(BM_GemmAccF16WSimdDecodeShape)->Apply(SimdSweep);

// The prefill projection shape the serving benchmark's 256-row tp=2 steps
// run (256 token rows, hidden 256 in, FFN 704 out).
void BM_GemmAccF16WSimdPrefillShape(benchmark::State& state) {
  std::optional<ScopedSimdLevel> level;
  if (!ForceSimdArg(state, level)) return;
  ComputeContext ctx({.num_threads = 1});
  RunGemmAccF16WBench(state, ctx, 256, 256, 704);
}
BENCHMARK(BM_GemmAccF16WSimdPrefillShape)->Apply(SimdSweep);

void BM_SgmvShrinkSimd(benchmark::State& state) {
  std::optional<ScopedSimdLevel> level;
  if (!ForceSimdArg(state, level)) return;
  ComputeContext ctx({.num_threads = 1});
  RunSgmvShrinkBench(state, ctx);
}
BENCHMARK(BM_SgmvShrinkSimd)->Apply(SimdSweep);

void BM_SgmvExpandSimd(benchmark::State& state) {
  std::optional<ScopedSimdLevel> level;
  if (!ForceSimdArg(state, level)) return;
  ComputeContext ctx({.num_threads = 1});
  RunSgmvExpandBench(state, ctx);
}
BENCHMARK(BM_SgmvExpandSimd)->Apply(SimdSweep);

// SGMV at the model's hidden size (h=256, rank 16) in the two batch
// layouts a serving step produces: one 256-row prefill segment, and a
// decode tail of 16 one-row segments.
void BM_SgmvShrinkSimdPrefillSegment(benchmark::State& state) {
  std::optional<ScopedSimdLevel> level;
  if (!ForceSimdArg(state, level)) return;
  ComputeContext ctx({.num_threads = 1});
  RunSgmvShrinkBench(state, ctx, /*num_segments=*/1,
                     /*rows_per_segment=*/256, /*h=*/256);
}
BENCHMARK(BM_SgmvShrinkSimdPrefillSegment)->Apply(SimdSweep);

void BM_SgmvShrinkSimdDecodeSegments(benchmark::State& state) {
  std::optional<ScopedSimdLevel> level;
  if (!ForceSimdArg(state, level)) return;
  ComputeContext ctx({.num_threads = 1});
  RunSgmvShrinkBench(state, ctx, /*num_segments=*/16,
                     /*rows_per_segment=*/1, /*h=*/256);
}
BENCHMARK(BM_SgmvShrinkSimdDecodeSegments)->Apply(SimdSweep);

void BM_SgmvExpandSimdPrefillSegment(benchmark::State& state) {
  std::optional<ScopedSimdLevel> level;
  if (!ForceSimdArg(state, level)) return;
  ComputeContext ctx({.num_threads = 1});
  RunSgmvExpandBench(state, ctx, /*num_segments=*/1,
                     /*rows_per_segment=*/256, /*h=*/256);
}
BENCHMARK(BM_SgmvExpandSimdPrefillSegment)->Apply(SimdSweep);

void BM_SgmvExpandSimdDecodeSegments(benchmark::State& state) {
  std::optional<ScopedSimdLevel> level;
  if (!ForceSimdArg(state, level)) return;
  ComputeContext ctx({.num_threads = 1});
  RunSgmvExpandBench(state, ctx, /*num_segments=*/16,
                     /*rows_per_segment=*/1, /*h=*/256);
}
BENCHMARK(BM_SgmvExpandSimdDecodeSegments)->Apply(SimdSweep);

void BM_BatchDecodeAttentionSimd(benchmark::State& state) {
  std::optional<ScopedSimdLevel> level;
  if (!ForceSimdArg(state, level)) return;
  ComputeContext ctx({.num_threads = 1});
  RunBatchDecodeAttentionBench(state, ctx, /*batch=*/8, /*len=*/1024);
}
BENCHMARK(BM_BatchDecodeAttentionSimd)->Apply(SimdSweep);

// End-to-end single-core decode tokens/s per dispatch path.
void BM_EngineDecodeStepSimd(benchmark::State& state) {
  std::optional<ScopedSimdLevel> level;
  if (!ForceSimdArg(state, level)) return;
  ComputeContext ctx({.num_threads = 1});
  RunEngineDecodeStepBench(state, ctx);
}
BENCHMARK(BM_EngineDecodeStepSimd)->Apply(SimdSweep);

// The synthetic-weight draw (FillGaussianF16) at every dispatch level —
// arg simd = SimdLevel (0 scalar libm loop, 1 avx2, 2 avx512; unavailable
// levels SkipWithError) — over one 704×256 FFN projection per iteration,
// the shape the serving benchmark's layers draw.
void BM_FillGaussianF16Simd(benchmark::State& state) {
  std::optional<ScopedSimdLevel> guard;
  if (!ForceSimdLevelArg(state, guard, 0)) return;
  std::vector<f16> w(704 * 256);
  Pcg32 rng(static_cast<std::uint64_t>(state.range(0)) + 1);
  for (auto _ : state) {
    FillGaussianF16(rng, 0.0625f, w);
    benchmark::DoNotOptimize(w.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(w.size()));
}
BENCHMARK(BM_FillGaussianF16Simd)
    ->ArgName("simd")
    ->DenseRange(0, kNumSimdLevels - 1);

// ExpF32 through the table's exp_f32 at every dispatch level (arg simd =
// SimdLevel; unavailable levels SkipWithError) over 4096 softmax-range
// arguments — 32 positions × the 128-position block's tile scores.
void BM_ExpF32Simd(benchmark::State& state) {
  std::optional<ScopedSimdLevel> guard;
  if (!ForceSimdLevelArg(state, guard, 0)) return;
  std::vector<float> x(4096);
  std::vector<float> y(x.size());
  Pcg32 rng(3);
  for (auto& v : x) v = rng.NextFloat(-20.0f, 0.0f);
  for (auto _ : state) {
    Simd().exp_f32(x.data(), y.data(), x.size());
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(x.size()));
}
BENCHMARK(BM_ExpF32Simd)->ArgName("simd")->DenseRange(0, kNumSimdLevels - 1);

// The SwiGLU combine (silu_mul) at every dispatch level over one 16-row
// tile of the serving benchmark's 704-wide FFN. silu_mul works in place,
// so each iteration first restores the gate (a copy from cache, the same
// few µs at every level, included in the time).
void BM_SiluMulSimd(benchmark::State& state) {
  std::optional<ScopedSimdLevel> guard;
  if (!ForceSimdLevelArg(state, guard, 0)) return;
  Pcg32 rng(4);
  const std::vector<float> gate0 = RandomGaussianVector(704 * 16, 2.0f, rng);
  const std::vector<float> up = RandomGaussianVector(gate0.size(), 1.0f, rng);
  std::vector<float> gate(gate0.size());
  for (auto _ : state) {
    std::copy(gate0.begin(), gate0.end(), gate.begin());
    Simd().silu_mul(gate.data(), up.data(), gate.size());
    benchmark::DoNotOptimize(gate.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(gate.size()));
}
BENCHMARK(BM_SiluMulSimd)->ArgName("simd")->DenseRange(0, kNumSimdLevels - 1);

// One near-empty root region per iteration on a pool of `threads`: the
// fork/join hand-off itself (post, wake or poll, join), back to back as a
// layer forward issues them. Wall time.
void BM_ParallelForForkJoin(benchmark::State& state) {
  ComputeContext ctx({.num_threads = static_cast<int>(state.range(0))});
  std::vector<std::int64_t> sink(64, 0);
  for (auto _ : state) {
    ctx.ParallelFor(64, 1, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        sink[static_cast<std::size_t>(i)] += i;
      }
    });
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParallelForForkJoin)
    ->ArgName("threads")
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime();

/// A fixed amount of serial work: n dependent float steps.
float SerialWork(std::int64_t n) {
  float x = 1.0f;
  for (std::int64_t i = 0; i < n; ++i) {
    x = x * 0.999999f + 1e-6f;
    benchmark::DoNotOptimize(x);
  }
  return x;
}

/// SerialWork steps per microsecond on the idle caller: the best of three
/// timings, so a clock still ramping up does not count.
double SerialWorkPerUs() {
  static const double rate = [] {
    constexpr std::int64_t kSteps = std::int64_t{1} << 21;
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      SerialWork(kSteps);
      const std::chrono::duration<double, std::micro> us =
          std::chrono::steady_clock::now() - t0;
      best = std::max(best, static_cast<double>(kSteps) / us.count());
    }
    return best;
  }();
  return rate;
}

// The same near-empty region, each one after `gap_us` of serial work on
// the caller — the bookkeeping a step does between its layers' regions.
// An idle worker spins through the gap before it parks; if the scheduler
// put it on the caller's CPU, the two share that core and the gap
// stretches. Wall time per iteration is gap + fork/join; the `gap_stretch`
// counter is the gap's measured wall time over its idle-CPU time (1.0 =
// the caller kept its core).
void BM_ParallelForForkJoinGap(benchmark::State& state) {
  const double per_us = SerialWorkPerUs();
  ComputeContext ctx({.num_threads = static_cast<int>(state.range(0))});
  const auto gap_steps =
      static_cast<std::int64_t>(per_us * static_cast<double>(state.range(1)));
  std::vector<std::int64_t> sink(64, 0);
  double gap_us = 0.0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(SerialWork(gap_steps));
    gap_us += std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    ctx.ParallelFor(64, 1, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        sink[static_cast<std::size_t>(i)] += i;
      }
    });
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["gap_stretch"] =
      gap_us / (static_cast<double>(state.iterations()) *
                static_cast<double>(state.range(1)));
}
BENCHMARK(BM_ParallelForForkJoinGap)
    ->ArgNames({"threads", "gap_us"})
    ->ArgsProduct({{1, 2}, {10, 40}})
    ->UseRealTime();

// --- Quantized-weight sweeps (separate BENCH_kernels_quant.json baseline;
// names avoid the "Threads"/"Simd" substrings on purpose) ---

/// Seeded weights at `dtype`, drawn from the same f16 master regardless of
/// dtype so every (dtype, simd) row streams the same parameters.
WeightMatrix MakeBenchWeights(int k, int n, WeightDtype dtype) {
  Pcg32 rng(11);
  Tensor<f16> w({k, n});
  for (auto& v : w.data()) {
    v = f16(static_cast<float>(rng.NextGaussian()) * 0.05f);
  }
  return WeightMatrix::FromF16(std::move(w), dtype);
}

// Replica rotation: a serving host streams every weight matrix from DRAM
// each decode step — a real model's parameters never fit cache, so the
// kernels run byte-starved. A single 4096×4096 bench matrix (9–32 MB by
// dtype) would instead sit resident in a large LLC and turn the sweep into
// a pure-ALU benchmark that hides exactly the bytes quantization saves.
// Rotating across enough identical replicas to overflow any LLC (~768 MB
// working set) restores the DRAM-streaming regime the q8_vs_f16 /
// q4_vs_f16 floors are defined in.
constexpr std::size_t kLlcOverflowBytes = 768ull << 20;

std::vector<WeightMatrix> MakeWeightReplicas(int k, int n, WeightDtype dtype) {
  WeightMatrix master = MakeBenchWeights(k, n, dtype);
  const std::size_t count =
      (kLlcOverflowBytes + master.byte_size() - 1) / master.byte_size();
  std::vector<WeightMatrix> replicas(count - 1, master);
  replicas.push_back(std::move(master));
  return replicas;
}

// The acceptance bench: the decode shape m=8/k=4096/n=4096 through
// GemmAccW — the register-tiled GEMM every decode projection and the LM
// head run. The committed baseline locks the q8_vs_f16 / q4_vs_f16
// speedups at the vector levels (see scripts/check_bench.py --min and the
// CI gate). The attainable ratio is host-physics-dependent: the bytes
// ratio (1.8× q8, 3.4× q4) is the ceiling only where per-core DRAM
// bandwidth is scarce (many cores sharing one memory system); on a host
// that gives one core the whole memory system, f16 streams at full DRAM
// rate and the quantized decode hits its ALU ceiling first — see README
// "Performance".
void BM_QuantGemmDecodeShape(benchmark::State& state) {
  std::optional<ScopedSimdLevel> guard;
  if (!ForceSimdLevelArg(state, guard)) return;
  const auto dtype = static_cast<WeightDtype>(state.range(0));
  const int m = 8, k = 4096, n = 4096;
  ComputeContext ctx({.num_threads = 1});
  std::vector<WeightMatrix> ws = MakeWeightReplicas(k, n, dtype);
  Pcg32 rng(13);
  auto x = RandomGaussianVector(static_cast<std::size_t>(m) * k, 1.0f, rng);
  std::vector<float> y(static_cast<std::size_t>(m) * n, 0.0f);
  std::size_t r = 0;
  for (auto _ : state) {
    GemmAccW(x, ws[r], y, m, k, n, ctx);
    r = (r + 1) % ws.size();
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * m);
  state.counters["flops"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * m * k * n,
      benchmark::Counter::kIsRate);
  // One iteration streams the whole (dtype-sized) matrix once: the panel
  // GEMM decodes each stripe once and reuses it across the m rows.
  state.counters["weight_bytes"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(ws[0].byte_size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_QuantGemmDecodeShape)->Apply(QuantSweep);

// End-to-end single-core decode tokens/s per weight dtype, on the ambient
// dispatch path (whatever this host serves with).
void BM_QuantEngineDecodeStep(benchmark::State& state) {
  const auto dtype = static_cast<WeightDtype>(state.range(0));
  ComputeContext ctx({.num_threads = 1});
  RunEngineDecodeStepBench(state, ctx, dtype);
}
BENCHMARK(BM_QuantEngineDecodeStep)
    ->ArgName("dtype")
    ->Arg(0)
    ->Arg(1)
    ->Arg(2);

void BM_TinyLlamaDecodeStep(benchmark::State& state) {
  const auto batch = static_cast<int>(state.range(0));
  LlamaConfig c = TinyLlama();
  LlamaModel model(c, 9);
  model.AddLora(0, 8, 1);
  model.AddLora(1, 8, 2);
  PagedKvCache kv(model.MakeKvConfig(4096));
  std::vector<BatchEntry> entries;
  std::vector<std::int32_t> tokens;
  for (int i = 0; i < batch; ++i) {
    SeqId s = kv.CreateSequence();
    kv.Extend(s, 33);  // 32 context tokens + the decode slot
    // Group rows by LoRA (even ids first) so segments are maximal.
    entries.push_back({.seq = s,
                       .lora = i < (batch + 1) / 2 ? 0 : 1,
                       .num_tokens = 1,
                       .pos_offset = 32,
                       .is_prefill = false});
    tokens.push_back(static_cast<std::int32_t>(i % 100));
  }
  ModelBatch mb = ModelBatch::Build(std::move(entries));
  // The decode slot is rewritten in place every iteration — steady-state
  // cost of one decode step at context length 32.
  for (auto _ : state) {
    auto next = model.ForwardGreedy(mb, tokens, kv);
    benchmark::DoNotOptimize(next.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_TinyLlamaDecodeStep)->Arg(1)->Arg(8)->Arg(32);

}  // namespace
}  // namespace punica

BENCHMARK_MAIN();
