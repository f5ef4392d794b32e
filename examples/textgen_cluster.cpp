// Real text generation through the full serving stack (paper Fig. 2):
//
//     Frontend → ClusterDriver → Scheduler → EngineBackend → Engine
//
// This is the unified-API payoff: the same frontend/scheduler/driver that
// runs cluster-scale simulations here drives two *numeric* engines over one
// shared tiny-Llama backbone, and every token streamed back to a user is a
// real model output. The demo cross-checks the whole stack: each stream
// must be bit-identical to driving an Engine directly with the same seed.
//
//     cmake -B build -G Ninja && cmake --build build
//     ./build/examples/textgen_cluster [--weight-dtype f16|q8_0|q4_0]
//                                      [--tp N]
//
// --tp N shards the backbone Megatron-style over N ranks, each running
// concurrently on its own disjoint worker group of the shared pool (the
// CPU analogue of N GPUs). The tenants' LoRA adapters shard right along
// with it — B column-parallel at the Q/K/V/Gate/Up seams, A row-parallel
// at O/Down, each rank's SGMV delta folding through the backbone's
// existing all-reduce — and every multi-tenant stream must STILL be
// bit-identical to the solo single-engine runs, because the
// fixed-rank-order all-reduce keeps TP execution deterministic.
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "frontend/frontend.h"
#include "model/llama.h"
#include "model/tensor_parallel.h"
#include "runtime/engine.h"
#include "runtime/engine_backend.h"
#include "sched/cluster.h"
#include "tensor/quant.h"
#include "tensor/simd.h"
#include "util/compute_context.h"

using namespace punica;

namespace {

std::string Render(const std::vector<std::int32_t>& tokens) {
  std::string s;
  for (auto t : tokens) s += std::to_string(t) + " ";
  return s;
}

struct Args {
  WeightDtype dtype = WeightDtype::kF16;
  int tp = 1;
};

// --weight-dtype f16|q8_0|q4_0 (default f16): backbone weight storage.
// --tp N (default 1): tensor-parallel degree.
Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--weight-dtype") == 0 && i + 1 < argc) {
      if (!ParseWeightDtype(argv[++i], &args.dtype)) {
        std::fprintf(stderr, "unknown weight dtype '%s' (f16|q8_0|q4_0)\n",
                     argv[i]);
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--tp") == 0 && i + 1 < argc) {
      args.tp = std::atoi(argv[++i]);
      if (args.tp < 1 || args.tp > 4 || (args.tp & (args.tp - 1)) != 0) {
        std::fprintf(stderr, "--tp must be 1, 2 or 4\n");
        std::exit(2);
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--weight-dtype f16|q8_0|q4_0] [--tp N]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  // The compute substrate: one thread pool shared by every engine over this
  // backbone (PUNICA_THREADS or hardware_concurrency wide). Streams are
  // bit-identical whatever the width — rerun under PUNICA_THREADS=1 to see.
  ComputeContext compute;
  // One backbone copy shared by every "GPU", plus per-tenant LoRA models.
  // The backbone stores its dense projections at --weight-dtype; the solo
  // reference engines below share the same model object, so the
  // bit-identity check holds at every dtype (quantized decode is
  // deterministic too, it is just a different model than f16).
  Args args = ParseArgs(argc, argv);
  LlamaConfig config = TinyLlama();
  config.weight_dtype = args.dtype;
  if (args.tp > 1) {
    // Every swept degree must divide the KV heads; TinyLlama's 4:2 GQA
    // only divides by 2, so TP mode runs the 1:1-heads variant.
    config.num_kv_heads = config.num_heads;
  }
  LlamaModel model(config, /*seed=*/1234, &compute, args.tp);
  // At tp > 1 each adapter is also distributed over the ranks on its first
  // use (ShardLoraModel); rank 4 at tp 4 exercises the rank-not-divisible
  // case — the rank dimension never shards, only the seam dimensions do.
  model.AddLora(0, 8, 111);
  model.AddLora(1, 8, 222);
  model.AddLora(2, 4, 333);

  struct Tenant {
    const char* name;
    LoraId lora;
    std::vector<std::int32_t> prompt;
    int tokens;
  };
  std::vector<Tenant> tenants = {
      {"tenant-A (lora 0)", 0, {17, 3, 42, 7}, 10},
      {"tenant-B (lora 1)", 1, {99, 5}, 8},
      {"tenant-C (lora 2)", 2, {8, 8, 8}, 12},
      {"tenant-D (backbone)", -1, {1, 2, 3}, 6},
      {"tenant-E (lora 0)", 0, {64, 32, 16}, 9},
  };
  // Reference: each request alone on a dedicated engine.
  std::map<std::string, std::vector<std::int32_t>> reference;
  for (const auto& t : tenants) {
    Engine solo(&model, model.MakeKvConfig(256), {.max_batch_size = 1});
    RequestHandle id = solo.AddRequest({.lora = t.lora,
                                        .prompt_tokens = t.prompt,
                                        .max_new_tokens = t.tokens});
    while (solo.HasWork()) solo.Step();
    reference[t.name] = *solo.Output(id);
  }

  // The serving stack: two numeric engines behind the cluster scheduler.
  Engine e0(&model, model.MakeKvConfig(256), {.max_batch_size = 4});
  Engine e1(&model, model.MakeKvConfig(256), {.max_batch_size = 4});
  EngineBackend gpu0(0, &e0);
  EngineBackend gpu1(1, &e1);
  ClusterConfig cfg;
  cfg.consolidation_interval_s = 0.05;
  ClusterDriver driver({&gpu0, &gpu1}, cfg);

  Frontend::SchedulerApi api;
  api.submit = [&](ServingRequest* req) { driver.SubmitExternal(req); };
  api.cancel = [&](std::int64_t id) { return driver.CancelExternal(id); };
  Frontend frontend(0, api, /*id_base=*/1000);
  driver.SetEmissionCallback([&](const StepResult& result, double now) {
    frontend.OnStep(result, now);
  });

  // Submit every tenant and subscribe to their streams: tokens arrive as
  // the cluster generates them, nothing is buffered.
  std::map<std::string, std::vector<std::int32_t>> streamed;
  for (const auto& t : tenants) {
    RequestHandle h = frontend.Submit({.lora = t.lora,
                                       .prompt_tokens = t.prompt,
                                       .max_new_tokens = t.tokens});
    std::string name = t.name;
    frontend.Subscribe(h, [&streamed, name](std::int32_t token, double) {
      streamed[name].push_back(token);
    });
  }
  driver.Run();

  std::printf("Frontend → Scheduler → numeric Engine, %d backends, %zu "
              "tenants, %d compute threads\n",
              driver.num_backends(), tenants.size(),
              compute.num_threads());
  std::printf("backbone weights: %s, simd dispatch: %s\n",
              WeightDtypeName(config.weight_dtype), Simd().name);
  if (model.tp() > 1) {
    LlamaConfig rank = RankConfig(config, model.tp());
    std::printf("tensor parallel: tp=%d (%s), per-rank shard %d heads / "
                "%d kv / %d ffn, %.1f KiB per layer\n",
                model.tp(),
                model.tp_concurrent() ? "concurrent worker groups"
                                      : "serial rank loop",
                rank.num_heads, rank.num_kv_heads, rank.ffn_hidden,
                static_cast<double>(RankLayerBytes(config, model.tp())) /
                    1024.0);
    for (int r = 0; r < model.tp(); ++r) {
      const ComputeContext* rc = model.rank_context(r);
      std::printf("  rank %d → worker group %d (%d worker%s)\n", r,
                  rc != nullptr ? rc->group_index() : -1,
                  rc != nullptr ? rc->num_threads() : 0,
                  rc != nullptr && rc->num_threads() == 1 ? "" : "s");
    }
    // Per-rank adapter shard shapes (layer 0; all layers are identical):
    // the column seam slices B, the row seam slices A, and the rank
    // dimension never shards — CI greps these lines.
    for (LoraId id : {LoraId{0}, LoraId{1}, LoraId{2}}) {
      const TpShardedLora* s = model.GetLoraShards(id);
      if (s == nullptr) continue;
      for (int r = 0; r < model.tp(); ++r) {
        const LoraLayerWeights& l0 = s->ranks[static_cast<std::size_t>(r)]
                                         .layers.front();
        const LoraAB& q = l0.proj[static_cast<int>(Proj::kQ)];
        const LoraAB& o = l0.proj[static_cast<int>(Proj::kO)];
        std::printf("  lora %d rank-shard %d: Q A[%lld,%lld] B[%lld,%lld] "
                    "(col-sliced B) | O A[%lld,%lld] B[%lld,%lld] "
                    "(row-sliced A)\n",
                    static_cast<int>(id), r,
                    static_cast<long long>(q.a.dim(0)),
                    static_cast<long long>(q.a.dim(1)),
                    static_cast<long long>(q.b.dim(0)),
                    static_cast<long long>(q.b.dim(1)),
                    static_cast<long long>(o.a.dim(0)),
                    static_cast<long long>(o.a.dim(1)),
                    static_cast<long long>(o.b.dim(0)),
                    static_cast<long long>(o.b.dim(1)));
      }
    }
  }
  std::printf("\n");
  bool all_equal = true;
  for (const auto& t : tenants) {
    bool equal = streamed[t.name] == reference[t.name];
    all_equal = all_equal && equal;
    std::printf("  %-20s streamed: %s%s\n", t.name,
                Render(streamed[t.name]).c_str(),
                equal ? "" : "  MISMATCH vs solo run!");
  }
  const ClusterStats& stats = driver.stats();
  std::printf("\n%lld requests finished in %lld batched invocations "
              "(mean batch %.1f), %lld migrations\n",
              static_cast<long long>(stats.finished_requests),
              static_cast<long long>(stats.total_steps),
              stats.step_batch_size.mean(),
              static_cast<long long>(stats.migrations));
  std::printf("all streams bit-identical to solo engine runs: %s\n",
              all_equal ? "YES" : "NO");
  std::printf("frontend sessions live after streaming: %zu (subscribed "
              "sessions free themselves)\n",
              frontend.live_sessions());
  return all_equal ? 0 : 1;
}
