#include "baselines/systems.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "runtime/runner.h"
#include "util/check.h"
#include "util/stats.h"

namespace punica {

SystemTraits TraitsOf(ServingSystem system) {
  switch (system) {
    case ServingSystem::kHuggingFace:
      // No FlashAttention (≈3× attention cost including the KvCache
      // concatenation rewrite), unfused LayerNorm (+2·~105 µs per layer),
      // Python-heavy per-step driver.
      return {.name = "HuggingFace Transformers",
              .lora_compute = true,
              .cross_lora_batching = false,
              .continuous_batching = false,
              .attn_inefficiency = 3.0,
              .extra_layer_overhead_s = 210e-6,
              .step_overhead_s = 15e-3};
    case ServingSystem::kDeepSpeed:
      return {.name = "DeepSpeed",
              .lora_compute = true,
              .cross_lora_batching = false,
              .continuous_batching = false,
              .attn_inefficiency = 1.0,
              .extra_layer_overhead_s = 0.0,
              .step_overhead_s = 5e-3};
    case ServingSystem::kFasterTransformer:
      return {.name = "FasterTransformer (backbone-only)",
              .lora_compute = false,
              .cross_lora_batching = false,
              .continuous_batching = false,
              .attn_inefficiency = 1.0,
              .extra_layer_overhead_s = 0.0,
              .step_overhead_s = 3e-3};
    case ServingSystem::kVllm:
      return {.name = "vLLM (backbone-only)",
              .lora_compute = false,
              .cross_lora_batching = false,
              .continuous_batching = true,
              .attn_inefficiency = 1.0,
              .extra_layer_overhead_s = 0.0,
              .step_overhead_s = 4e-3};
    case ServingSystem::kPunica:
      return {.name = "Punica",
              .lora_compute = true,
              .cross_lora_batching = true,
              .continuous_batching = true,
              .prefix_sharing = true,
              .attn_inefficiency = 1.0,
              .extra_layer_overhead_s = 0.0,
              .step_overhead_s = 4e-3};
  }
  PUNICA_CHECK_MSG(false, "unknown system");
  return {};
}

namespace {

/// Step latency of a batch-to-completion system: the cost-model roofline
/// plus the system's inefficiency deltas.
double SystemStepLatency(const SystemTraits& traits, const LlamaConfig& model,
                         const CostModel& cm, const StepShape& shape) {
  double base = cm.StepLatency(model, shape);
  // Attention inefficiency and unfused-op overheads apply per layer.
  double deltas = 0.0;
  if (traits.attn_inefficiency > 1.0) {
    double attn =
        cm.AttentionPrefillLatency(model, shape.prefill_chunks,
                                   shape.prefill_kv_lens, shape.tp_degree) +
        cm.AttentionDecodeLatency(model, shape.decode_kv_lens,
                                  shape.tp_degree);
    deltas += (traits.attn_inefficiency - 1.0) * attn * model.num_layers;
  }
  deltas += traits.extra_layer_overhead_s * model.num_layers;
  deltas += traits.step_overhead_s - cm.params().step_overhead_s;
  return base + deltas;
}

struct SimRequest {
  const TraceRequest* req;
  std::int64_t kv_len = 0;  ///< resident tokens, padding rows included
  std::int32_t generated = 0;
  bool Done() const { return generated >= req->output_len; }
};

/// The shape of one batch-to-completion invocation: the whole batch
/// prefills its prompts, or every member decodes one row (finished members
/// as padding). A batch is one LoRA model, so one SGMV segment.
StepShape BatchShape(const SystemTraits& traits, const TextGenConfig& cfg,
                     std::span<const SimRequest> batch, bool prefill) {
  StepShape shape;
  shape.tp_degree = cfg.tp_degree;
  shape.lora_rank = cfg.lora_rank;
  std::int32_t rows = 0;
  for (const SimRequest& s : batch) {
    if (prefill) {
      shape.prefill_chunks.push_back(s.req->prompt_len);
      shape.prefill_kv_lens.push_back(s.req->prompt_len);
      rows += s.req->prompt_len;
    } else {
      shape.decode_kv_lens.push_back(s.kv_len + 1);
      rows += 1;
    }
  }
  if (traits.lora_compute) shape.lora_segment_rows.push_back(rows);
  return shape;
}

/// The totals every simulated run reports once its clock stops at `t`.
void FinishRun(double t, const RunningStat& decode_batch,
               TextGenResult& result) {
  result.makespan_s = t;
  result.throughput_tok_s =
      static_cast<double>(result.tokens_generated) / std::max(t, 1e-12);
  result.mean_decode_batch = decode_batch.mean();
}

/// Batch-to-completion systems (HF / DeepSpeed / FasterTransformer):
/// consecutive same-LoRA FCFS run forms a batch; the batch prefills together
/// and decodes until *every* member reaches its stop (inseparable KvCache —
/// shorter requests burn wasted slots, Fig. 6).
TextGenResult SimulateBatchToCompletion(const SystemTraits& traits,
                                        std::span<const TraceRequest> trace,
                                        const LlamaConfig& model,
                                        const CostModel& cm,
                                        const TextGenConfig& cfg) {
  TextGenResult result;
  result.system = traits.name;
  double t = 0.0;
  std::size_t idx = 0;
  RunningStat decode_batch;
  while (idx < trace.size()) {
    // Same-LoRA FCFS prefix (baselines cannot batch across LoRA models).
    std::vector<SimRequest> batch;
    LoraId lora = trace[idx].lora_id;
    while (idx < trace.size() && trace[idx].lora_id == lora &&
           static_cast<int>(batch.size()) < cfg.max_batch_size) {
      batch.push_back(SimRequest{&trace[idx]});
      ++idx;
    }

    // Batched prefill (one invocation; these systems prefill whole batches).
    t += SystemStepLatency(traits, model, cm,
                           BatchShape(traits, cfg, batch, /*prefill=*/true));
    ++result.invocations;
    for (auto& s : batch) {
      s.kv_len = s.req->prompt_len;
      s.generated = 1;
      ++result.tokens_generated;
      result.prefill_tokens += s.req->prompt_len;
    }

    // Decode until the longest member finishes; everyone stays in the batch.
    std::int32_t max_out = 0;
    for (const auto& s : batch) max_out = std::max(max_out, s.req->output_len);
    for (std::int32_t step = 1; step < max_out; ++step) {
      t += SystemStepLatency(
          traits, model, cm, BatchShape(traits, cfg, batch, /*prefill=*/false));
      ++result.invocations;
      for (auto& s : batch) {
        s.kv_len += 1;  // padding rows still consume compute and KvCache
        if (!s.Done()) {
          s.generated += 1;
          ++result.tokens_generated;
        } else {
          ++result.wasted_decode_slots;
        }
      }
      decode_batch.Add(static_cast<double>(batch.size()));
    }
  }
  FinishRun(t, decode_batch, result);
  return result;
}

/// Continuous-batching systems (vLLM / Punica) run on the simulated tier's
/// GpuRunner: separable paged KvCache, requests join and leave the working
/// set independently, prefix hits and step plans as the runner makes them.
/// vLLM still only batches one LoRA "model" at a time; Punica batches
/// across LoRA models.
TextGenResult SimulateContinuous(const SystemTraits& traits,
                                 std::span<const TraceRequest> trace,
                                 const LlamaConfig& model, const CostModel& cm,
                                 const TextGenConfig& cfg) {
  // The simulator prices no KvCache limit (so no cached prefix is ever
  // evicted) and no adapter loads; one byte per adapter lets a full batch
  // of distinct adapters stay resident.
  CostModel system_cm = cm;
  system_cm.mutable_params().step_overhead_s = traits.step_overhead_s;
  GpuRunner runner(
      0,
      {.max_batch_size = cfg.max_batch_size,
       .prefill_limit = cfg.prefill_limit,
       .max_step_tokens = cfg.max_step_tokens,
       .kv_capacity_tokens = std::numeric_limits<std::int64_t>::max(),
       .enable_prefix_cache = traits.prefix_sharing && cfg.prefix_cache,
       .tp_degree = cfg.tp_degree,
       .lora_rank = cfg.lora_rank,
       .lora_budget_bytes = cfg.max_batch_size,
       .lora_adapter_bytes = 1,
       .lora_load_latency_s = 0.0},
      model, &system_cm);
  // Request id = trace index, so the runner's id-ordered working set is in
  // admission order. Backbone-only systems run without LoRA segments.
  std::vector<ServingRequest> requests;
  requests.reserve(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    SubmitSpec spec = SpecFromTrace(trace[i]);
    if (!traits.lora_compute) spec.lora = -1;
    requests.push_back(
        ServingRequest::FromSpec(static_cast<std::int64_t>(i), spec));
  }
  // vLLM's working set holds one model, so the newest member speaks for it.
  auto can_admit_lora = [&](LoraId lora) {
    const ServingRequest* newest = runner.NewestRequest();
    return traits.cross_lora_batching || newest == nullptr ||
           trace[static_cast<std::size_t>(newest->id)].lora_id == lora;
  };

  TextGenResult result;
  result.system = traits.name;
  RunningStat decode_batch;
  LatencyRecorder itl;         ///< inter-token emission gaps
  LatencyRecorder ttft;        ///< first token − arrival
  LatencyRecorder queue_wait;  ///< admission − arrival
  double t = 0.0;
  std::size_t idx = 0;
  while (idx < trace.size() || runner.HasAnyWork()) {
    // Open-loop traces: a request only exists once it has arrived. When the
    // server drains ahead of the next arrival, fast-forward the clock to it
    // (closed-loop traces all arrive at 0, so this never fires there).
    if (!runner.HasAnyWork()) t = std::max(t, trace[idx].arrival_time);
    // Admit FCFS while the head has arrived, is compatible and the batch
    // has room.
    while (idx < trace.size() && trace[idx].arrival_time <= t &&
           runner.working_set_size() < cfg.max_batch_size &&
           can_admit_lora(trace[idx].lora_id)) {
      runner.Admit(&requests[idx], t);
      queue_wait.Add(t - trace[idx].arrival_time);
      ++idx;
    }

    const double step_start = t;
    StepResult step = runner.Step(t);
    PUNICA_CHECK_MSG(step.batch_size > 0, "step planned no work");
    t += step.latency;
    ++result.invocations;
    result.tokens_generated += step.new_tokens;
    result.prefill_tokens += step.prefill_tokens;
    result.prefill_tokens_saved += step.prefix_hit_tokens;
    const int decodes = step.batch_size - step.prefill_requests;
    if (decodes > 0) decode_batch.Add(static_cast<double>(decodes));
    // A token's tag is its sequence number, so tag 0 is a first token.
    // Every request past its prefill decodes in every step (no adapter
    // waits, no KvCache pressure), so its last token ended the previous
    // step and the gap is this step's span.
    for (const EmittedToken& e : step.emitted) {
      if (e.token == 0) {
        ttft.Add(t - requests[static_cast<std::size_t>(e.request_id)]
                         .arrival_time);
      } else {
        itl.Add(t - step_start);
      }
    }
  }
  FinishRun(t, decode_batch, result);
  result.mean_inter_token_s = itl.mean();
  result.p95_inter_token_s = itl.p95();
  result.max_inter_token_s = itl.max();
  result.ttft_p50_s = ttft.p50();
  result.ttft_p95_s = ttft.p95();
  result.queue_wait_mean_s = queue_wait.mean();
  return result;
}

}  // namespace

TextGenResult SimulateTextGen(ServingSystem system,
                              std::span<const TraceRequest> trace,
                              const LlamaConfig& model, const CostModel& cm,
                              const TextGenConfig& cfg) {
  PUNICA_CHECK(!trace.empty());
  SystemTraits traits = TraitsOf(system);
  if (traits.continuous_batching) {
    return SimulateContinuous(traits, trace, model, cm, cfg);
  }
  return SimulateBatchToCompletion(traits, trace, model, cm, cfg);
}

}  // namespace punica
