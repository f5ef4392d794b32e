// The per-GPU Punica runner (paper §5): a continuous-batching execution loop
// over a working set of requests, with
//   * mixed prefill + decode invocations (prefill batch limited to 1, §5),
//     chunked under an optional per-step token budget (max_step_tokens)
//     using the same split definition as the numeric Engine,
//   * LoRA-grouped batch ordering feeding SGMV segments,
//   * on-demand LoRA loading overlapped with compute (§5.2),
//   * KvCache token accounting with evict-newest victim selection for
//     migration under memory pressure (§5.3).
//
// This runner is the simulated tier of the ExecutionBackend interface: step
// latency comes from the analytical CostModel, so cluster-scale experiments
// run in virtual time. The numeric tier (real tiny-model execution) is
// EngineBackend over Engine; the scheduler drives either through the same
// interface.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "gpu/costmodel.h"
#include "model/config.h"
#include "runtime/backend.h"
#include "runtime/lora_residency.h"
#include "runtime/request.h"
#include "runtime/step_planner.h"
#include "util/stats.h"

namespace punica {

struct RunnerConfig {
  int max_batch_size = 32;  ///< profiled sweet spot on A100 (paper §5.1)
  int prefill_limit = 1;    ///< prefill requests per invocation (paper §5)
  /// Per-step token budget for chunked prefill (0 = unlimited). Decode
  /// rows count against it and are never trimmed; pending prefills consume
  /// the remainder FCFS as chunks — the same step planner
  /// (runtime/step_planner.h) the numeric Engine steps with, so both tiers
  /// produce identical chunk sequences for identical workloads.
  std::int64_t max_step_tokens = 0;
  EvictPolicy evict_policy = EvictPolicy::kNewest;
  std::int64_t kv_capacity_tokens = 0;
  /// Shared-prefix KV cache (token-granular counterpart of the numeric
  /// tier's page-level sharing). Only requests annotated with a
  /// prefix_group / shared_prefix_len participate, so traces without
  /// shared system prompts behave exactly as before.
  bool enable_prefix_cache = true;
  int tp_degree = 1;
  int lora_rank = 16;
  std::int64_t lora_budget_bytes = 2LL * 1024 * 1024 * 1024;
  std::int64_t lora_adapter_bytes = 80LL * 1024 * 1024;
  double lora_load_latency_s = 2e-3;
};

class GpuRunner : public ExecutionBackend {
 public:
  GpuRunner(int gpu_id, const RunnerConfig& config,
            const LlamaConfig& model_config, const CostModel* cost_model);

  // --- ExecutionBackend ---

  int backend_id() const override { return gpu_id_; }
  int max_batch_size() const override { return config_.max_batch_size; }

  /// Constraint check: below max batch size and enough KvCache headroom.
  bool CanAdmit(const ServingRequest& req) const override;

  /// Prefill tokens this GPU's cached tenant prefix would cover for `req`
  /// (the scheduler's affinity signal).
  std::int64_t PrefixHitTokens(const ServingRequest& req) const override;

  /// Adds a request to the working set; kicks off its LoRA load if needed.
  /// The request joins batches once its adapter is ready.
  void Admit(ServingRequest* req, double now) override;

  /// Removes a request (migration-evict or user cancel), releasing its
  /// KvCache. The snapshot carries the synthetic prompt/generated lengths;
  /// all real state lives in the caller-owned ServingRequest.
  std::optional<RequestSnapshot> Cancel(std::int64_t request_id) override;

  /// True when some request could run at time `now` (adapter ready).
  bool HasRunnableWork(double now) const override;
  /// True when any request is assigned (runnable or still loading).
  bool HasAnyWork() const override { return !slots_.empty(); }
  /// Earliest time a currently-blocked request becomes runnable (or nullopt).
  std::optional<double> NextReadyTime(double now) const override;

  /// Requests (newest first) that must be evicted before the next step fits
  /// in the KvCache — the migration victims of §5.3. Empty when the next
  /// step fits.
  std::vector<std::int64_t> SelectEvictionVictims(double now) const override;

  /// Runs one batched model invocation at time `now`. Emitted tokens carry
  /// the per-request sequence tag (generated count − 1), not real ids.
  StepResult Step(double now) override;

  int working_set_size() const override {
    return static_cast<int>(slots_.size());
  }
  /// The request with this id, or nullptr when not in the working set.
  ServingRequest* Find(std::int64_t request_id) const override;
  /// The most recently admitted request (migration-victim order), or
  /// nullptr when the working set is empty.
  ServingRequest* NewestRequest() const override;

  // --- Simulated-tier introspection ---

  /// KvCache tokens a request needs if admitted now (prompt + already
  /// generated + one step of headroom).
  std::int64_t KvTokensNeeded(const ServingRequest& req) const;
  std::int64_t kv_used_tokens() const { return kv_used_tokens_; }
  std::int64_t kv_free_tokens() const {
    return config_.kv_capacity_tokens - kv_used_tokens_;
  }
  const LoraResidency& lora_residency() const { return lora_; }
  /// Counters plus point-in-time gauges (token-denominated on this tier:
  /// pages_in_use/free report tokens, shared_pages reports cached tokens).
  PrefixCacheStats prefix_cache_stats() const;
  std::int64_t prefix_cached_tokens() const;

 private:
  /// `needs_prefill` is true from admission until the final prefill chunk;
  /// mid-prefill (chunked prefill) is `needs_prefill && kv_len > 0` —
  /// kv_len tracks the tokens resident so far (cache-aliased prefix
  /// included), growing chunk by chunk.
  struct Slot {
    ServingRequest* req = nullptr;
    std::int64_t kv_len = 0;   ///< tokens cached on this GPU
    bool needs_prefill = true;
    std::int64_t prefix_hit = 0;  ///< prefill tokens served by the cache
                                  ///< (resolved at the first chunk)
    std::uint64_t admit_seq = 0;
    double lora_ready_time = 0.0;
  };

  /// A cached tenant prefix: `tokens` KvCache tokens owned by the cache
  /// (charged once, shared by every resident request of the group).
  struct CachedPrefix {
    std::int64_t tokens = 0;
    std::uint64_t stamp = 0;  ///< logical recency (deterministic LRU)
  };

  /// The working set as the step planner sees it: a slot whose adapter is
  /// still loading at `now` is not runnable.
  std::vector<PlanSlot> PlanSlots(double now) const;
  /// The next step (runtime/step_planner.h) with the slots in `exclude`
  /// treated as evicted. A first chunk resolves its prefix hit here — the
  /// numeric tier resolves at prefill time too, so tenant-mates admitted in
  /// one wave still hit once the first registers.
  StepPlan Plan(std::span<const PlanSlot> slots,
                std::span<const std::int64_t> exclude) const;

  void ReleaseSlot(std::map<std::int64_t, Slot>::iterator it);
  /// Prefill tokens the cache covers for `req` right now (0 = cold).
  std::int64_t HitTokens(const ServingRequest& req) const;
  /// Cached tokens held by groups with no resident request — reclaimable
  /// without touching live state (the token analogue of exclusively
  /// entry-held pages).
  std::int64_t ReclaimableCacheTokens() const;
  bool EvictOneCachedPrefix();
  /// True when any resident slot belongs to `group`.
  bool GroupResident(std::int64_t group) const;

  int gpu_id_;
  RunnerConfig config_;
  LlamaConfig model_config_;
  const CostModel* cost_model_;
  std::map<std::int64_t, Slot> slots_;  ///< ordered by request id (stable)
  std::map<std::int64_t, CachedPrefix> prefix_cache_;  ///< by prefix_group
  std::map<std::int64_t, int> group_residents_;  ///< resident slots per group
  PrefixCacheStats cache_stats_;
  std::uint64_t cache_clock_ = 0;
  std::int64_t kv_used_tokens_ = 0;
  std::uint64_t next_admit_seq_ = 0;
  LoraResidency lora_;
};

}  // namespace punica
