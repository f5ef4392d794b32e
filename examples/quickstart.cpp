// Quickstart: serve multiple LoRA models over one shared backbone.
//
// This runs the real numeric path end to end on a tiny Llama-architecture
// model: one backbone copy, several LoRA adapters, and the Engine's
// continuous-batching loop (mixed prefill+decode invocations, SGMV-grouped
// batches, paged KvCache). Build and run:
//
//     cmake -B build -G Ninja && cmake --build build
//     ./build/examples/quickstart [--tp N]
//
// --tp N (1, 2 or 4) shards the backbone Megatron-style over N ranks
// running concurrently on disjoint worker groups — the CPU analogue of N
// GPUs. TP mode is backbone-only, so the LoRA tenants run without adapters
// there.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "model/llama.h"
#include "model/tensor_parallel.h"
#include "runtime/engine.h"

using namespace punica;

int main(int argc, char** argv) {
  int tp = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tp") == 0 && i + 1 < argc) {
      tp = std::atoi(argv[++i]);
    }
  }
  if (tp != 1 && tp != 2 && tp != 4) {
    std::fprintf(stderr, "usage: %s [--tp 1|2|4]\n", argv[0]);
    return 2;
  }

  // 1. One backbone model, shared by every tenant (the paper's key memory
  //    saving: a GPU holds a single copy of the pre-trained weights).
  LlamaConfig config = TinyLlama();
  if (tp > 1) config.num_kv_heads = config.num_heads;  // tp must divide KV
  LlamaModel model(config, /*seed=*/1234, /*ctx=*/nullptr, tp);
  std::printf("Backbone: %s (%lld params, %d layers)\n",
              config.name.c_str(),
              static_cast<long long>(config.total_params()),
              config.num_layers);
  if (tp > 1) {
    LlamaConfig rank = RankConfig(config, tp);
    std::printf("Tensor parallel: %d concurrent ranks, per-rank shard "
                "%d heads / %d kv / %d ffn (%lld bytes per layer)\n",
                tp, rank.num_heads, rank.num_kv_heads, rank.ffn_hidden,
                static_cast<long long>(RankLayerBytes(config, tp)));
    for (int r = 0; r < tp; ++r) {
      const ComputeContext* rc = model.rank_context(r);
      std::printf("  rank %d → worker group %d (%d worker%s)\n", r,
                  rc != nullptr ? rc->group_index() : -1,
                  rc != nullptr ? rc->num_threads() : 0,
                  rc != nullptr && rc->num_threads() == 1 ? "" : "s");
    }
  }

  // 2. Register LoRA adapters — one per tenant. Each is ~1% of the
  //    backbone's size (A [h_in, r] and B [r, h_out] per projection per
  //    layer). Registering records the adapter's recipe; its weights are
  //    drawn when the first batch naming it runs. Skipped under TP:
  //    batches there are backbone-only.
  if (tp == 1) {
    model.AddLora(/*id=*/0, /*rank=*/8, /*seed=*/111);
    model.AddLora(/*id=*/1, /*rank=*/8, /*seed=*/222);
    model.AddLora(/*id=*/2, /*rank=*/4, /*seed=*/333);
  }
  std::printf("Registered %zu LoRA adapters (rank-8 adapter: %lld bytes vs "
              "%lld-byte backbone)\n\n",
              model.num_loras(),
              static_cast<long long>(config.lora_total_bytes(8)),
              static_cast<long long>(config.total_weight_bytes()));

  // 3. Start a serving engine (one per GPU) and submit requests for
  //    *different* LoRA models. They will be batched together: dense
  //    projections run as one GEMM, LoRA addons as SGMV over per-model
  //    segments.
  Engine engine(&model, model.MakeKvConfig(/*num_pages=*/512));
  struct Submission {
    const char* tenant;
    LoraId lora;
    std::vector<std::int32_t> prompt;
  };
  std::vector<Submission> submissions = {
      {"tenant-A (lora 0)", 0, {17, 3, 42, 7}},
      {"tenant-B (lora 1)", 1, {99, 5}},
      {"tenant-C (lora 2)", 2, {8, 8, 8}},
      {"tenant-D (backbone)", -1, {1, 2, 3}},
  };
  if (tp > 1) {
    for (auto& s : submissions) s.lora = -1;  // TP is backbone-only
  }
  std::vector<RequestHandle> ids;
  for (const auto& s : submissions) {
    ids.push_back(engine.AddRequest(
        {.lora = s.lora, .prompt_tokens = s.prompt, .max_new_tokens = 8}));
  }

  // 4. Run the continuous-batching loop. Each Step() is one batched model
  //    invocation; watch the SGMV segment count stay below the batch size
  //    as requests of the same adapter share segments.
  int step = 0;
  while (engine.HasWork()) {
    auto result = engine.Step();
    std::printf("step %2d: batch=%d prefills=%d sgmv-segments=%d "
                "emitted=%zu\n",
                ++step, result.batch_size, result.prefill_requests,
                result.num_segments, result.emitted.size());
  }

  // 5. Collect per-tenant outputs.
  std::printf("\nGenerated token streams:\n");
  for (std::size_t i = 0; i < submissions.size(); ++i) {
    std::string line = "  " + std::string(submissions[i].tenant) + ": ";
    for (auto tok : *engine.Output(ids[i])) {
      line += std::to_string(tok) + " ";
    }
    std::printf("%s\n", line.c_str());
  }
  std::printf("\nAll four tenants were served by ONE backbone copy in %d "
              "batched invocations.\n",
              step);
  return 0;
}
