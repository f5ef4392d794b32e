// Request traces: the unit of work flowing through the serving experiments.
#pragma once

#include <cstdint>
#include <vector>

#include "core/segment.h"
#include "runtime/submit_spec.h"
#include "workload/lengths.h"
#include "workload/popularity.h"

namespace punica {

struct TraceRequest {
  std::int64_t id = 0;
  double arrival_time = 0.0;  ///< 0 for closed-loop (all available at start)
  LoraId lora_id = 0;
  std::int32_t prompt_len = 0;
  std::int32_t output_len = 0;
  /// The first `shared_prefix_len` prompt tokens are the tenant's system
  /// prompt, shared by every request with the same `prefix_group` — the
  /// prefix-cache workload knob (0 / -1 = nothing shared).
  std::int32_t shared_prefix_len = 0;
  std::int64_t prefix_group = -1;
  /// SLO class for open-loop admission (higher = more important). The
  /// serving front door defers and, under overload, sheds priority-0
  /// traffic first; 0 (the default) keeps closed-loop traces unchanged.
  std::int32_t priority = 0;
};

/// Converts one trace row into the unified submission surface (synthetic
/// prompt lengths — the simulated tier; the numeric tier builds its own
/// specs with real token ids). Copies every field a backend or the serving
/// door acts on.
SubmitSpec SpecFromTrace(const TraceRequest& r);

/// Per-tenant shared system prompts: each tenant (LoRA id) gets a system
/// prompt of a length drawn once per tenant from [min_tokens, max_tokens];
/// every request of that tenant carries it as a shared prefix on top of its
/// sampled per-request prompt. This is the multi-tenant reality the paper's
/// workload abstracts away — and what a shared-prefix KV cache exploits.
struct SharedPrefixSpec {
  bool enabled = false;
  std::int32_t min_tokens = 128;
  std::int32_t max_tokens = 512;
};

struct TraceSpec {
  int num_requests = 1000;
  Popularity popularity = Popularity::kDistinct;
  double zipf_alpha = 1.5;
  std::uint64_t seed = 0xC0FFEE;
  ShareGptLengthSampler::Params lengths = {};
  SharedPrefixSpec shared_prefix = {};
  /// SLO classes: each tenant is assigned a priority in [0, classes) drawn
  /// deterministically from (seed, tenant). 1 (the default) keeps every
  /// request at priority 0 — the closed-loop behaviour.
  std::int32_t priority_classes = 1;
};

/// Closed-loop trace (paper §7.2: "We generate 1000 requests … batch in a
/// first-come-first-serve manner"): all requests available at t=0.
std::vector<TraceRequest> GenerateClosedLoopTrace(const TraceSpec& spec);

/// Open-loop trace for the cluster experiment: arrival times supplied by a
/// Poisson process; LoRA ids drawn online from Zipf-α over `num_models`.
std::vector<TraceRequest> GenerateOpenLoopTrace(
    std::vector<double> arrival_times, int num_models, double zipf_alpha,
    std::uint64_t seed, ShareGptLengthSampler::Params lengths = {},
    SharedPrefixSpec shared_prefix = {}, std::int32_t priority_classes = 1);

/// Total output tokens of a trace (the throughput denominator).
std::int64_t TotalOutputTokens(const std::vector<TraceRequest>& trace);

/// Total prompt tokens (the prefill-work denominator for cache benches).
std::int64_t TotalPromptTokens(const std::vector<TraceRequest>& trace);

/// The system-prompt length of `tenant` under `spec` — deterministic in
/// (seed, tenant), independent of request order. 0 when disabled.
std::int32_t TenantSystemPromptLen(const SharedPrefixSpec& spec,
                                   std::uint64_t seed, LoraId tenant);

/// The SLO class of `tenant`: uniform in [0, classes), deterministic in
/// (seed, tenant), independent of request order. 0 when classes <= 1.
std::int32_t TenantPriority(std::int32_t classes, std::uint64_t seed,
                            LoraId tenant);

/// Stamps an open-loop Poisson arrival schedule (`rate` req/s) onto a
/// trace, replacing its arrival times. Gaps come from PoissonArrivalsKeyed,
/// so request i's arrival depends only on (seed, rate, i) and a saved v3
/// CSV replays bit-identically. The trace keeps its FCFS order (arrival
/// times are non-decreasing by construction).
void AssignPoissonArrivals(std::vector<TraceRequest>& trace, double rate,
                           std::uint64_t seed);

}  // namespace punica
