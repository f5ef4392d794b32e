#include "baselines/systems.h"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <vector>

#include "runtime/step_planner.h"
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

namespace {

struct SimRequest {
  const TraceRequest* req;
  std::int64_t kv_len = 0;  ///< resident tokens (aliased prefix + chunks)
  std::int32_t generated = 0;
  bool prefilled = false;
  std::int32_t prefix_hit = 0;  ///< prompt tokens served by a shared prefix
  double admit_time = 0.0;  ///< when the request joined the working set
  double last_emit = -1.0;  ///< completion time of the latest emitted token
  bool Done() const { return generated >= req->output_len; }
};

/// One prefill chunk of a step shape: `chunk` token rows attending over
/// `kv_len` cache positions (the causal-span term the cost model prices for
/// prefix hits and budget chunks alike).
struct PrefillChunkShape {
  std::int32_t chunk = 0;
  std::int64_t kv_len = 0;
  LoraId lora = 0;
};

StepShape MakeShape(const SystemTraits& traits, const TextGenConfig& cfg,
                    std::span<const PrefillChunkShape> prefills,
                    std::span<const SimRequest* const> decodes) {
  StepShape shape;
  shape.tp_degree = cfg.tp_degree;
  shape.lora_rank = cfg.lora_rank;
  std::unordered_map<LoraId, std::int32_t> rows_by_lora;
  for (const PrefillChunkShape& p : prefills) {
    shape.prefill_chunks.push_back(p.chunk);
    shape.prefill_kv_lens.push_back(p.kv_len);
    rows_by_lora[p.lora] += p.chunk;
  }
  for (const SimRequest* s : decodes) {
    shape.decode_kv_lens.push_back(s->kv_len + 1);
    rows_by_lora[s->req->lora_id] += 1;
  }
  if (traits.lora_compute) {
    for (const auto& [lora, rows] : rows_by_lora) {
      shape.lora_segment_rows.push_back(rows);
    }
  }
  return shape;
}

/// Fills the inter-token latency digest from the collected emission gaps.
/// LatencyRecorder quantiles share util/stats Percentile, so every tail
/// metric in the codebase uses one definition.
void FinishInterTokenStats(const LatencyRecorder& itl, TextGenResult& result) {
  if (itl.empty()) return;
  result.mean_inter_token_s = itl.mean();
  result.p95_inter_token_s = itl.p95();
  result.max_inter_token_s = itl.max();
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
    {
      std::vector<PrefillChunkShape> prefills;
      for (auto& s : batch) {
        prefills.push_back({.chunk = s.req->prompt_len,
                            .kv_len = s.req->prompt_len,
                            .lora = s.req->lora_id});
      }
      StepShape shape = MakeShape(traits, cfg, prefills, {});
      t += SystemStepLatency(traits, model, cm, shape);
      ++result.invocations;
      for (auto& s : batch) {
        s.prefilled = true;
        s.kv_len = s.req->prompt_len;
        s.generated = 1;
        ++result.tokens_generated;
        result.prefill_tokens += s.req->prompt_len;
      }
    }

    // Decode until the longest member finishes; everyone stays in the batch.
    std::int32_t max_out = 0;
    for (const auto& s : batch) max_out = std::max(max_out, s.req->output_len);
    for (std::int32_t step = 1; step < max_out; ++step) {
      std::vector<const SimRequest*> decodes;
      for (auto& s : batch) decodes.push_back(&s);
      StepShape shape = MakeShape(traits, cfg, {}, decodes);
      t += SystemStepLatency(traits, model, cm, shape);
      ++result.invocations;
      int active = 0;
      for (auto& s : batch) {
        s.kv_len += 1;  // padding rows still consume compute and KvCache
        if (!s.Done()) {
          s.generated += 1;
          ++result.tokens_generated;
          ++active;
        } else {
          ++result.wasted_decode_slots;
        }
      }
      decode_batch.Add(static_cast<double>(batch.size()));
      (void)active;
    }
  }
  result.makespan_s = t;
  result.throughput_tok_s =
      static_cast<double>(result.tokens_generated) / std::max(t, 1e-12);
  result.mean_decode_batch = decode_batch.count() > 0 ? decode_batch.mean()
                                                      : 0.0;
  return result;
}

/// Continuous-batching systems (vLLM / Punica): separable paged KvCache;
/// requests join and leave the working set independently. vLLM still only
/// batches one LoRA "model" at a time; Punica batches across LoRA models.
TextGenResult SimulateContinuous(const SystemTraits& traits,
                                 std::span<const TraceRequest> trace,
                                 const LlamaConfig& model, const CostModel& cm,
                                 const TextGenConfig& cfg) {
  TextGenResult result;
  result.system = traits.name;
  double t = 0.0;
  std::size_t idx = 0;
  std::deque<SimRequest> working;
  RunningStat decode_batch;
  // Shared-prefix cache: tenant groups whose system prompt is resident.
  // The closed-loop simulator has no KvCache capacity limit, so entries
  // are never evicted — the single-GPU counterpart of the page-level LRU.
  const bool share = traits.prefix_sharing && cfg.prefix_cache;
  std::unordered_map<std::int64_t, std::int32_t> cached;

  auto can_admit_lora = [&](LoraId lora) {
    if (traits.cross_lora_batching) return true;
    for (const auto& s : working) {
      if (s.req->lora_id != lora) return false;
    }
    return true;
  };

  LatencyRecorder itl;         ///< inter-token emission gaps
  LatencyRecorder ttft;        ///< first token − arrival
  LatencyRecorder queue_wait;  ///< admission − arrival

  while (idx < trace.size() || !working.empty()) {
    // Open-loop traces: a request only exists once it has arrived. When the
    // server drains ahead of the next arrival, fast-forward the clock to it
    // (closed-loop traces all arrive at 0, so this never fires there).
    if (working.empty() && idx < trace.size()) {
      t = std::max(t, trace[idx].arrival_time);
    }
    // Admit FCFS while the head has arrived, is compatible and the batch
    // has room.
    while (idx < trace.size() && trace[idx].arrival_time <= t &&
           static_cast<int>(working.size()) < cfg.max_batch_size &&
           can_admit_lora(trace[idx].lora_id)) {
      working.push_back(SimRequest{&trace[idx]});
      working.back().admit_time = t;
      queue_wait.Add(t - trace[idx].arrival_time);
      ++idx;
    }
    PUNICA_CHECK(!working.empty());

    // One invocation through the shared step planner: up to prefill_limit
    // prefills (FCFS) + all decodes, the prefills chunked under the step
    // token budget. The working set is in admission order, so a request's
    // position is both its id and its admission sequence number.
    std::vector<PlanSlot> slots;
    for (std::size_t i = 0; i < working.size(); ++i) {
      slots.push_back({.id = static_cast<std::int64_t>(i),
                       .admit_seq = i,
                       .needs_prefill = !working[i].prefilled});
    }
    StepPlan plan = PlanStep(
        slots, {}, cfg.prefill_limit, cfg.max_step_tokens,
        [&](std::int64_t i) {
          // A mid-prefill request resumes at kv_len; a fresh one starts at
          // its prefix hit, resolved at prefill time (a group-mate's
          // earlier prefill may have registered the prefix since this
          // request arrived) and committed only when its first chunk runs.
          const SimRequest& s = working[static_cast<std::size_t>(i)];
          PlannedPrefill p{.start = s.kv_len,
                           .total = s.req->prompt_len,
                           .first_chunk = s.kv_len == 0};
          if (p.first_chunk && share && s.req->prefix_group >= 0 &&
              s.req->shared_prefix_len > 0) {
            auto it = cached.find(s.req->prefix_group);
            if (it != cached.end()) {
              p.start = std::min({it->second, s.req->shared_prefix_len,
                                  s.req->prompt_len - 1});
            }
          }
          return p;
        });
    std::vector<SimRequest*> decodes;
    for (std::int64_t i : plan.decode_ids) {
      decodes.push_back(&working[static_cast<std::size_t>(i)]);
    }

    std::vector<PrefillChunkShape> chunk_shapes;
    for (const PlannedPrefill& p : plan.prefills) {
      if (p.chunk == 0) continue;  // budget-deferred this step
      chunk_shapes.push_back(
          {.chunk = static_cast<std::int32_t>(p.chunk),
           .kv_len = p.start + p.chunk,
           .lora = working[static_cast<std::size_t>(p.id)].req->lora_id});
    }
    StepShape shape = MakeShape(traits, cfg, chunk_shapes, decodes);
    t += SystemStepLatency(traits, model, cm, shape);
    ++result.invocations;
    if (!decodes.empty()) {
      decode_batch.Add(static_cast<double>(decodes.size()));
    }

    for (const PlannedPrefill& p : plan.prefills) {
      if (p.chunk == 0) continue;
      SimRequest& s = working[static_cast<std::size_t>(p.id)];
      if (p.first_chunk) {
        s.prefix_hit = static_cast<std::int32_t>(p.start);
        result.prefill_tokens_saved += s.prefix_hit;
      }
      s.kv_len = p.start + p.chunk;
      result.prefill_tokens += p.chunk;
      if (s.kv_len < s.req->prompt_len) continue;  // mid-prefill
      s.prefilled = true;
      s.generated = 1;
      ++result.tokens_generated;
      s.last_emit = t;  // first token: no gap sample yet
      ttft.Add(t - s.req->arrival_time);
      if (share && s.req->prefix_group >= 0 && s.req->shared_prefix_len > 0) {
        cached.try_emplace(s.req->prefix_group, s.req->shared_prefix_len);
      }
    }
    for (SimRequest* s : decodes) {
      s->kv_len += 1;
      s->generated += 1;
      ++result.tokens_generated;
      if (s->last_emit >= 0.0) itl.Add(t - s->last_emit);
      s->last_emit = t;
    }
    // Continuous batching: finished requests leave immediately.
    std::erase_if(working, [](const SimRequest& s) { return s.Done(); });
  }
  result.makespan_s = t;
  result.throughput_tok_s =
      static_cast<double>(result.tokens_generated) / std::max(t, 1e-12);
  result.mean_decode_batch = decode_batch.count() > 0 ? decode_batch.mean()
                                                      : 0.0;
  FinishInterTokenStats(itl, result);
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
