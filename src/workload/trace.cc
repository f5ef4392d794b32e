#include "workload/trace.h"

#include "sim/arrivals.h"
#include "util/check.h"

namespace punica {

std::int32_t TenantSystemPromptLen(const SharedPrefixSpec& spec,
                                   std::uint64_t seed, LoraId tenant) {
  if (!spec.enabled) return 0;
  PUNICA_CHECK(spec.min_tokens >= 1);
  PUNICA_CHECK(spec.max_tokens >= spec.min_tokens);
  // Hash (seed, tenant) into its own stream so the length depends only on
  // the tenant, not on how many requests preceded it in the trace.
  Pcg32 rng(seed ^ (0xA24BAED4963EE407ULL +
                    static_cast<std::uint64_t>(tenant) * 0x9E3779B97F4A7C15ULL));
  auto range =
      static_cast<std::uint32_t>(spec.max_tokens - spec.min_tokens + 1);
  return spec.min_tokens + static_cast<std::int32_t>(rng.NextBounded(range));
}

std::int32_t TenantPriority(std::int32_t classes, std::uint64_t seed,
                            LoraId tenant) {
  if (classes <= 1) return 0;
  Pcg32 rng(seed ^ (0x27D4EB2F165667C5ULL +
                    static_cast<std::uint64_t>(tenant) * 0x9E3779B97F4A7C15ULL));
  return static_cast<std::int32_t>(
      rng.NextBounded(static_cast<std::uint32_t>(classes)));
}

void AssignPoissonArrivals(std::vector<TraceRequest>& trace, double rate,
                           std::uint64_t seed) {
  std::vector<double> times = PoissonArrivalsKeyed(rate, trace.size(), seed);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    trace[i].arrival_time = times[i];
  }
}

namespace {

void ApplySharedPrefix(const SharedPrefixSpec& spec, std::uint64_t seed,
                       TraceRequest& r) {
  std::int32_t sys = TenantSystemPromptLen(spec, seed, r.lora_id);
  if (sys <= 0) return;
  r.prompt_len += sys;
  r.shared_prefix_len = sys;
  r.prefix_group = r.lora_id;
}

}  // namespace

std::vector<TraceRequest> GenerateClosedLoopTrace(const TraceSpec& spec) {
  PUNICA_CHECK(spec.num_requests >= 1);
  Pcg32 id_rng(spec.seed);
  Pcg32 len_rng(spec.seed ^ 0x9E3779B97F4A7C15ULL);
  ShareGptLengthSampler sampler(spec.lengths);
  std::vector<LoraId> lora_ids = AssignLoraIds(
      spec.popularity, spec.num_requests, id_rng, spec.zipf_alpha);

  std::vector<TraceRequest> trace;
  trace.reserve(static_cast<std::size_t>(spec.num_requests));
  for (int i = 0; i < spec.num_requests; ++i) {
    LengthSample len = sampler.Sample(len_rng);
    trace.push_back({.id = i,
                     .arrival_time = 0.0,
                     .lora_id = lora_ids[static_cast<std::size_t>(i)],
                     .prompt_len = len.prompt_len,
                     .output_len = len.output_len});
    ApplySharedPrefix(spec.shared_prefix, spec.seed, trace.back());
    trace.back().priority =
        TenantPriority(spec.priority_classes, spec.seed, trace.back().lora_id);
  }
  return trace;
}

std::vector<TraceRequest> GenerateOpenLoopTrace(
    std::vector<double> arrival_times, int num_models, double zipf_alpha,
    std::uint64_t seed, ShareGptLengthSampler::Params lengths,
    SharedPrefixSpec shared_prefix, std::int32_t priority_classes) {
  Pcg32 rng(seed);
  ShareGptLengthSampler sampler(lengths);
  ZipfAlphaSampler zipf(num_models, zipf_alpha);
  std::vector<TraceRequest> trace;
  trace.reserve(arrival_times.size());
  for (std::size_t i = 0; i < arrival_times.size(); ++i) {
    LengthSample len = sampler.Sample(rng);
    trace.push_back({.id = static_cast<std::int64_t>(i),
                     .arrival_time = arrival_times[i],
                     .lora_id = zipf.Sample(rng),
                     .prompt_len = len.prompt_len,
                     .output_len = len.output_len});
    ApplySharedPrefix(shared_prefix, seed, trace.back());
    trace.back().priority =
        TenantPriority(priority_classes, seed, trace.back().lora_id);
  }
  return trace;
}

SubmitSpec SpecFromTrace(const TraceRequest& r) {
  SubmitSpec spec;
  spec.lora = r.lora_id;
  spec.prompt_len = r.prompt_len;
  spec.max_new_tokens = r.output_len;
  spec.arrival_time = r.arrival_time;
  spec.priority = r.priority;
  spec.shared_prefix_len = r.shared_prefix_len;
  spec.prefix_group = r.prefix_group;
  return spec;
}

std::int64_t TotalOutputTokens(const std::vector<TraceRequest>& trace) {
  std::int64_t total = 0;
  for (const auto& r : trace) total += r.output_len;
  return total;
}

std::int64_t TotalPromptTokens(const std::vector<TraceRequest>& trace) {
  std::int64_t total = 0;
  for (const auto& r : trace) total += r.prompt_len;
  return total;
}

}  // namespace punica
