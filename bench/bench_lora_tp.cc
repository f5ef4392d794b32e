// LoRA/SGMV under tensor parallelism: the multi-tenant counterpart of the
// bench_fig12_70b_tp measured sweep.
//
// First half (deterministic, cost model): the per-layer SGMV addon at
// paper scale — LoraLayerAddonLatency across tp degrees. The adapter
// shards follow the backbone's Megatron split (B column-parallel at the
// Q/K/V/Gate/Up seams, A row-parallel at O/Down), so kernel IO divides by
// tp while the seven pipelined launch overheads do not, and the deltas
// fold into the backbone's existing all-reduces at zero extra
// communication (TpCostModelAgreement.LoraDeltaAddsNoAllReduceTerm).
//
// Second half: a *measured* numeric-tier sweep. A real Engine serves a
// decode-heavy two-adapter workload (half the streams on each adapter) at
// tp ∈ {1, 2, 4, 8}; SGMV shrink/expand runs sharded on every rank, every
// step, on all seven seams. --json PATH emits BENCH_lora_tp.json
// ("bench": "lora_tp"); scripts/check_bench.py gates the per_rank tp=4
// speedup floor in release CI, exactly like the backbone tp_scaling gate.
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "gpu/specs.h"
#include "model/llama.h"
#include "runtime/engine.h"
#include "util/compute_context.h"

namespace punica {
namespace {

constexpr int kRank = 16;
constexpr int kStreams = 8;
constexpr int kNewTokens = 64;

/// Projected A100 section: the in-forward SGMV addon per layer at 7B scale,
/// Uniform popularity (batch 32 over 8 adapters), swept over tp.
void RunProjected() {
  bench::PrintHeader("LoRA x TP",
                     "SGMV addon under Megatron sharding (7B, r=16)");
  CostModel cm((A100Sxm80GB()));
  LlamaConfig model = Llama7B();
  std::vector<std::int32_t> rows = bench::SegmentRowsFor(Popularity::kUniform,
                                                         32);
  std::printf("Projected per-layer LoRA addon, Uniform batch 32:\n");
  Table t({"tp", "addon/layer", "vs tp=1", "addon/step (all layers)"});
  double t1 = cm.LoraLayerAddonLatency(model, rows, kRank, 1);
  for (int tp : {1, 2, 4, 8}) {
    double t_tp = cm.LoraLayerAddonLatency(model, rows, kRank, tp);
    t.AddRow({std::to_string(tp), FormatSeconds(t_tp),
              FormatDouble(t1 / t_tp, 2) + "x",
              FormatSeconds(t_tp * model.num_layers)});
  }
  t.Print();
  std::printf(
      "\nKernel IO divides by tp; the 7 pipelined launches per layer do\n"
      "not, so the addon curve bends below ideal — and the deltas ride the\n"
      "backbone's existing all-reduces, so no communication term appears.\n");
}

/// The measured sweep's model: the bench_fig12 shape (divisible by every
/// swept degree), matching tests/model/tp_costmodel_agreement_test.cc.
LlamaConfig MeasuredConfig() {
  return {.name = "tp-bench",
          .hidden_size = 256,
          .num_layers = 4,
          .num_heads = 8,
          .num_kv_heads = 8,
          .ffn_hidden = 1024,
          .vocab_size = 512};
}

struct MeasuredPoint {
  int tp = 0;
  double tok_s = 0.0;
  std::int64_t tokens = 0;
};

/// Runs kStreams decode-heavy streams (8-token prompts, kNewTokens new
/// tokens each), the first half on adapter 0 and the second on adapter 1,
/// through a real Engine at the given TP degree on a pool of `threads`
/// workers; returns best-of-`reps` throughput. Every decode step pays the
/// sharded SGMV shrink/expand on all seven seams of every rank.
MeasuredPoint MeasureLoraTp(int tp, int threads, int reps) {
  LlamaConfig config = MeasuredConfig();
  ComputeContext ctx({.num_threads = threads});
  LlamaModel model(config, /*seed=*/7, &ctx, tp, /*tp_concurrent=*/tp > 1);
  model.AddLora(0, kRank, /*seed=*/21);
  model.AddLora(1, kRank, /*seed=*/22);
  // Draw both adapters now: no timed step pays a first-use draw.
  for (LoraId id : {0, 1}) {
    if (tp == 1) {
      model.GetLora(id);
    } else {
      model.GetLoraShards(id);
    }
  }

  double best = 1e30;
  std::int64_t tokens = 0;
  for (int r = 0; r < reps; ++r) {
    Engine engine(&model, model.MakeKvConfig(/*num_pages=*/512),
                  EngineConfig{.max_batch_size = kStreams});
    for (int s = 0; s < kStreams; ++s) {
      std::vector<std::int32_t> prompt;
      for (int i = 0; i < 8; ++i) prompt.push_back((s * 17 + i * 3) % 256);
      engine.AddRequest({.lora = s < kStreams / 2 ? 0 : 1,
                         .prompt_tokens = prompt,
                         .max_new_tokens = kNewTokens});
    }
    std::int64_t emitted = 0;
    auto start = std::chrono::steady_clock::now();
    while (engine.HasWork()) emitted += engine.Step().new_tokens;
    auto stop = std::chrono::steady_clock::now();
    double secs = std::chrono::duration<double>(stop - start).count();
    if (secs < best) best = secs;
    tokens = emitted;
  }
  return {tp, static_cast<double>(tokens) / best, tokens};
}

void RunMeasured(const char* json_path, int total_threads, int reps) {
  std::printf("\nMeasured numeric-tier LoRA TP sweep (real CPU execution)\n");
  std::printf("model: %d hidden / %d layers, f16 backbone + 2 f16 adapters "
              "r=%d; pool fixed at %d threads; best of %d\n\n",
              MeasuredConfig().hidden_size, MeasuredConfig().num_layers,
              kRank, total_threads, reps);

  // Roofline prediction with the LoRA segment shape threaded through
  // StepShape — the cross-validation column, as in bench_fig12. The SGMV
  // pipelined overhead is zeroed with the rest: what remains divides by tp
  // except the all-reduce payload.
  CostModel roofline((A100Sxm80GB()));
  auto& p = roofline.mutable_params();
  p.kernel_launch_s = 0.0;
  p.attn_kernel_overhead_s = 0.0;
  p.layer_overhead_s = 0.0;
  p.step_overhead_s = 0.0;
  p.allreduce_overhead_s = 0.0;
  p.sgmv_pipelined_overhead_s = 0.0;
  auto predict = [&](int tp) {
    StepShape shape;
    shape.decode_kv_lens.assign(kStreams, kNewTokens / 2);
    shape.lora_segment_rows = {kStreams / 2, kStreams / 2};
    shape.lora_rank = kRank;
    shape.tp_degree = tp;
    return roofline.StepLatency(MeasuredConfig(), shape);
  };
  double pred1 = predict(1);

  FILE* json = nullptr;
  if (json_path != nullptr) {
    json = std::fopen(json_path, "w");
    if (json == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path);
      std::exit(1);
    }
    std::fprintf(json,
                 "{\n  \"bench\": \"lora_tp\",\n"
                 "  \"total_threads\": %d,\n  \"rows\": [\n",
                 total_threads);
  }

  // Same two sweeps as the backbone bench: per_rank gives rank r one
  // worker (tp=N occupies N workers — the 1-vs-N-GPU curve the roofline
  // cross-validates); fixed_pool re-partitions a constant pool, isolating
  // the execution schedule.
  Table t({"mode", "tp", "tok/s", "speedup", "roofline speedup"});
  bool first = true;
  for (const char* mode : {"per_rank", "fixed_pool"}) {
    bool per_rank = std::strcmp(mode, "per_rank") == 0;
    MeasuredPoint base;
    for (int tp : {1, 2, 4, 8}) {
      MeasuredPoint pt = MeasureLoraTp(tp, per_rank ? tp : total_threads,
                                       reps);
      if (tp == 1) base = pt;
      double speedup = pt.tok_s / base.tok_s;
      double predicted = pred1 / predict(tp);
      t.AddRow({mode, std::to_string(tp), FormatDouble(pt.tok_s, 0),
                FormatDouble(speedup, 2) + "x",
                FormatDouble(predicted, 2) + "x"});
      if (json != nullptr) {
        std::fprintf(json,
                     "%s    {\"mode\": \"%s\", \"tp\": %d, "
                     "\"tok_s\": %.2f, \"speedup\": %.4f, "
                     "\"predicted_speedup\": %.4f}",
                     first ? "" : ",\n", mode, tp, pt.tok_s, speedup,
                     predicted);
        first = false;
      }
    }
  }
  t.Print();
  std::printf(
      "\nReading the table:\n"
      " * Both streams of every step run adapters: there is no\n"
      "   backbone-only fast path here. The sharded SGMV addon rides the\n"
      "   same rank groups and the same two all-reduce seams as the dense\n"
      "   projections, so the curve should track the backbone tp_scaling\n"
      "   sweep — a LoRA-specific collapse (e.g. adapters serialized on\n"
      "   one rank, or a third synchronization seam) shows up as this\n"
      "   bench lagging that one.\n"
      " * Token streams at every (mode, tp) are identical — determinism\n"
      "   is asserted by the test suite, this bench only times.\n"
      " * Absolute tok/s is machine-class specific; CI gates the same-run\n"
      "   speedup ratios and the deterministic roofline column.\n");
  if (json != nullptr) {
    std::fprintf(json, "\n  ]\n}\n");
    if (std::ferror(json) != 0 || std::fclose(json) != 0) {
      std::fprintf(stderr, "error writing %s\n", json_path);
      std::exit(1);
    }
    std::printf("\nwrote %s\n", json_path);
  }
}

}  // namespace
}  // namespace punica

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  int total_threads = 8;
  int reps = 3;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[i + 1];
    }
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      total_threads = std::atoi(argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[i + 1]);
    }
  }
  if (total_threads < 1) total_threads = 1;
  if (reps < 1) reps = 1;
  punica::RunProjected();
  punica::RunMeasured(json_path, total_threads, reps);
  return 0;
}
