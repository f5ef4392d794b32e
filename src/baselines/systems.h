// Behavioural models of the baseline serving systems (paper §7.2, Figs.
// 11–12) and a closed-loop text-generation simulator that drives them and
// Punica over identical traces.
//
// What each system can and cannot do (the paper's relaxations included):
//   HuggingFace Transformers + PEFT — LoRA compute, same-LoRA-only batching,
//     inseparable KvCache (a batch finishes together), no FlashAttention,
//     unfused LayerNorm, heavy per-step framework overhead.
//   DeepSpeed + PEFT — LoRA compute, same-LoRA-only batching, inseparable
//     KvCache, optimised kernels.
//   FasterTransformer (backbone-only) — no LoRA cost at all (relaxation in
//     its favour), same-model-only batching, inseparable KvCache.
//   vLLM (backbone-only) — no LoRA cost, same-model-only batching, paged
//     KvCache + continuous batching.
//   Punica — LoRA via SGMV, cross-LoRA continuous batching, paged KvCache.
// Model-switching cost is omitted for all baselines (paper relaxation).
//
// The continuous systems run on the simulated tier's GpuRunner, with no
// KvCache limit and free adapter loads, so their step plans, prefix hits
// and latencies are the serving runtime's own; the batch-to-completion
// systems step through a batch loop here.
#pragma once

#include <span>
#include <string>

#include "gpu/costmodel.h"
#include "workload/trace.h"

namespace punica {

enum class ServingSystem {
  kHuggingFace,
  kDeepSpeed,
  kFasterTransformer,
  kVllm,
  kPunica,
};

inline constexpr ServingSystem kAllServingSystems[] = {
    ServingSystem::kHuggingFace, ServingSystem::kDeepSpeed,
    ServingSystem::kFasterTransformer, ServingSystem::kVllm,
    ServingSystem::kPunica};

struct SystemTraits {
  std::string name;
  bool lora_compute = false;       ///< pays per-layer LoRA addon cost
  bool cross_lora_batching = false;
  bool continuous_batching = false;  ///< separable KvCache
  bool prefix_sharing = false;  ///< ref-counted paged KvCache with a prefix
                                ///< index (Punica); effective only when the
                                ///< TextGenConfig opts in AND the trace
                                ///< carries shared prefixes
  double attn_inefficiency = 1.0;  ///< ×on attention (no FlashAttention etc.)
  double extra_layer_overhead_s = 0.0;  ///< unfused elementwise ops
  double step_overhead_s = 4e-3;   ///< per-invocation framework overhead
};

SystemTraits TraitsOf(ServingSystem system);

struct TextGenConfig {
  int max_batch_size = 32;  ///< paper: 32 for all systems
  int lora_rank = 16;
  int tp_degree = 1;
  int prefill_limit = 1;    ///< prefills per invocation (continuous systems)
  bool prefix_cache = false;  ///< shared-prefix reuse on capable systems
  /// Chunked-prefill step token budget (0 = unlimited) on continuous
  /// systems: decodes always all run; pending prefills consume what
  /// remains of the budget FCFS as chunks (runtime/step_planner.h — the
  /// same planner the Engine and GpuRunner step with). Bounds the decode
  /// stall a long prompt can inject.
  std::int64_t max_step_tokens = 0;
};

struct TextGenResult {
  std::string system;
  double makespan_s = 0.0;
  std::int64_t tokens_generated = 0;
  double throughput_tok_s = 0.0;
  std::int64_t invocations = 0;
  double mean_decode_batch = 0.0;  ///< the paper's "batch sizes (1–3)" claim
  std::int64_t wasted_decode_slots = 0;  ///< inseparable-KvCache padding
                                         ///< rows (Fig. 6's waste)
  std::int64_t prefill_tokens = 0;       ///< prefill rows actually computed
  std::int64_t prefill_tokens_saved = 0; ///< skipped via shared prefixes
  /// Inter-token latency over every consecutive same-request emission pair
  /// (the decode-stall distribution a long prefill inflates; continuous
  /// systems only — 0 when fewer than 2 samples).
  double mean_inter_token_s = 0.0;
  double p95_inter_token_s = 0.0;
  double max_inter_token_s = 0.0;
  /// SLO view (continuous systems only): TTFT and admission wait are dated
  /// from each request's *arrival time*, so open-loop traces charge the
  /// time spent waiting to join the working set. Closed-loop traces (all
  /// arrivals at 0) date from the start of the run — the FCFS queueing
  /// delay — which is why these are quantiles, not means alone.
  double ttft_p50_s = 0.0;
  double ttft_p95_s = 0.0;
  double queue_wait_mean_s = 0.0;  ///< admission − arrival
};

/// Closed-loop single-server simulation: all requests available at t=0,
/// FCFS, max batch 32. One GPU unless cfg.tp_degree > 1 (then one model
/// replica sharded over tp GPUs, as in Fig. 12).
TextGenResult SimulateTextGen(ServingSystem system,
                              std::span<const TraceRequest> trace,
                              const LlamaConfig& model, const CostModel& cm,
                              const TextGenConfig& cfg = {});

}  // namespace punica
