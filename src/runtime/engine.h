// Numeric single-GPU serving engine: the runnable counterpart of GpuRunner.
//
// GpuRunner simulates paper-scale serving through the cost model; Engine
// actually executes a (tiny) Llama model on CPU with the same batching
// discipline — continuous batching over a paged KvCache, at most
// `prefill_limit` prefills per invocation, token rows grouped by LoRA id so
// SGMV segments are maximal, and cancellation/migration via prompt+generated
// recomputation. Its outputs are bit-deterministic. To drive it through the
// cluster scheduler, wrap it in EngineBackend (runtime/engine_backend.h).
//
// Chunked prefill (EngineConfig::max_step_tokens): instead of prefilling a
// request's whole uncached suffix in one invocation — stalling every
// in-flight decode stream behind a long prompt — Step splits pending
// prefills into budget-sized chunks that share each invocation with all
// runnable decodes (runtime/step_planner.h holds the step planner shared
// with the simulated tier). A chunk attends over all previously written KV
// via the BatchPrefillAttention pos_offset path; non-final chunks skip the
// LM head and emit nothing. Page demand, victim projection and mid-prefill
// cancellation are all chunk-granular.
//
// Shared-prefix KV cache (kvcache/kvcache.h): after every step the engine
// keys each page its requests filled — prefill chunk or decode — by
// (parent page, LoRA id, the page's P token ids). A request's first prefill
// chunk walks its chain's keys page by page and forks the matched pages by
// refcount (no K/V copied), so Step prefills only the uncached suffix. A
// finished or cancelled request's keyed pages stay cached as reclaimable
// pages, so a migrated request re-admitted here rebuilds from whatever
// pages survive; allocation reclaims them in PageAllocator's order, and
// free + reclaimable pages are the admission and victim-query headroom.
// A first chunk also marks its adapter's cached pages it did not fork as
// stale: those go before never-touched pages, while pages still waiting
// for their adapter's next request go last — so a unique-prompt workload
// recycles its dead pages, and a system prompt cached before its tenant's
// first request survives until that request.
// Sharing is in whole pages of P = KvCacheConfig::page_size tokens, and a
// hit always leaves one token to prefill for the logits: so no request
// ever writes into a shared page, and an exact repeat of a prompt
// recomputes up to P−1 more tokens than a token-granular cache would (a
// recomputed full page is then swapped for its cached copy).
// Because cached K/V bits are exactly what a cold prefill would write (one
// writer per element, fixed reduction order), a prefix-hit stream is
// bit-identical to the cold-start stream.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "kvcache/kvcache.h"
#include "model/llama.h"
#include "runtime/backend.h"
#include "runtime/step_planner.h"
#include "runtime/submit_spec.h"
#include "util/stats.h"

namespace punica {

struct EngineConfig {
  int max_batch_size = 32;
  int prefill_limit = 1;
  /// Per-step token budget for chunked prefill (0 = unlimited, the
  /// unchunked behaviour). A step carries at most this many token rows,
  /// decode rows included: decodes always all run, and pending prefills
  /// consume what remains of the budget FCFS as chunks (see
  /// runtime/step_planner.h for the shared split definition). SLO-derivable:
  /// budget ≈ tolerable inter-token stall / per-token step cost. Chunked
  /// streams are bit-identical to unchunked streams at any budget — only
  /// step boundaries move, never K/V bits or reduction orders.
  std::int64_t max_step_tokens = 0;
  /// Engine-wide early-stop token (-1 = none). A SubmitSpec may carry its
  /// own `eos_token`; when both are set they must agree — the snapshot /
  /// migration path asserts this so a request never changes its stopping
  /// condition by moving between engines.
  std::int32_t eos_token = -1;
  /// Shared-prefix KV cache (on by default; a cold cache is a no-op).
  bool enable_prefix_cache = true;
};

class Engine {
 public:
  /// The engine borrows the model (shared across engines — one backbone
  /// copy, as on a GPU) and owns its KvCache.
  Engine(LlamaModel* model, const KvCacheConfig& kv_config,
         EngineConfig config = {});

  /// Admits a request described by `spec` (prompt_tokens must be real ids).
  /// Refuses — an invalid handle, nothing admitted and no KvCache state
  /// changed — when the working set is full (callers queue) or the engine
  /// does not serve `spec` (see Serves); a stop token that disagrees with
  /// EngineConfig::eos_token still aborts (ResolveEos).
  RequestHandle AddRequest(const SubmitSpec& spec);

  /// True when a request admitted under `spec` can run to completion here:
  /// it is Servable, its prompt is real token ids all in [0, vocab), its
  /// adapter is registered on the model (or none is named) and its stop
  /// token agrees with EngineConfig::eos_token. External input is checked
  /// against this before admission, so it is refused instead of aborting
  /// a step.
  bool Serves(const SubmitSpec& spec) const;

  /// Re-admits a migrated request; its KvCache is rebuilt in its first step
  /// by re-prefilling prompt + generated — minus any surviving cached
  /// prefix. Asserts the snapshot's stop condition agrees with this
  /// engine's EngineConfig::eos_token.
  RequestHandle AddMigrated(const RequestSnapshot& snapshot);

  /// Cancels a request and returns its snapshot (empty when unknown).
  /// Releases the KvCache immediately (the evict half of migration) —
  /// though its full pages stay cached for a cheap rebuild.
  std::optional<RequestSnapshot> Cancel(std::int64_t id);
  std::optional<RequestSnapshot> Cancel(RequestHandle h) {
    return Cancel(h.id());
  }

  bool HasWork() const { return !active_.empty(); }
  int working_set_size() const { return static_cast<int>(active_.size()); }
  bool CanAdmit() const {
    return working_set_size() < config_.max_batch_size;
  }

  /// Runs one batched model invocation (prefill chunks first, grouped by
  /// LoRA, then every decode). Under a max_step_tokens budget a prefill may
  /// span several steps; it emits its first token only when its final chunk
  /// runs. The unified StepResult's `latency` is 0 — the engine is not
  /// time-aware; EngineBackend assigns virtual-time cost.
  StepResult Step();

  /// KvCache-pressure victim query (§5.3): engine-local ids (newest first)
  /// that must be cancelled before the next step's page demand fits.
  /// Reclaimable cached pages count as headroom — the cache yields before
  /// requests migrate.
  std::vector<std::int64_t> SelectEvictionVictims() const;

  /// Tokens generated so far (valid for finished and cancelled requests
  /// too, until Release).
  const std::vector<std::int32_t>* Output(std::int64_t id) const;
  const std::vector<std::int32_t>* Output(RequestHandle h) const {
    return Output(h.id());
  }
  /// Erases a finished or cancelled request's token record, so a
  /// long-running caller does not keep one per admission. Refuses (false)
  /// an active or unknown id.
  bool Release(std::int64_t id);

  /// The stop token a request admitted under `spec` would run with.
  std::int32_t ResolveEos(std::int32_t spec_eos) const;

  // --- Shared-prefix cache introspection (allocator → scheduler thread) ---

  /// Cached-prefix tokens an admission with this (LoRA, prompt+generated)
  /// chain would skip (0 = cold). Keyed on the LoRA id too: K/V bits carry
  /// per-request adapter addons, so same text under a different adapter
  /// shares nothing. Pure query: no recency update.
  std::int64_t PrefixHitTokens(LoraId lora,
                               std::span<const std::int32_t> prompt,
                               std::span<const std::int32_t> generated) const;
  /// New pages an admission would need for its re-prefill chain plus one
  /// decode slot, net of the cached prefix it would alias.
  std::int32_t PagesNeededForAdmission(
      LoraId lora, std::span<const std::int32_t> prompt,
      std::span<const std::int32_t> generated) const;
  /// Page-feasibility of an admission: PagesNeededForAdmission against
  /// free + reclaimable headroom, less the hit's own reclaimable pages
  /// (its fork revives them, so they cannot also be reclaimed).
  bool CanAdmitPages(LoraId lora, std::span<const std::int32_t> prompt,
                     std::span<const std::int32_t> generated) const;
  /// Free pages + reclaimable cached pages.
  std::int32_t AvailablePages() const;
  /// Counters plus point-in-time gauges.
  PrefixCacheStats prefix_cache_stats() const;

  /// Checks the KvCache's page and key invariants
  /// (PagedKvCache::AuditInvariants), then the engine's own, and returns
  /// the first violation ("" when all hold): every active request's KV
  /// length matches its progress, and no sequence outlives its request.
  /// O(pages + requests).
  std::string AuditInvariants() const;

  const EngineConfig& config() const { return config_; }
  const KvCacheConfig& kv_config() const { return kv_.config(); }
  std::int32_t kv_free_pages() const { return kv_.free_pages(); }
  std::int32_t kv_shared_pages() const { return kv_.shared_pages(); }

  /// The compute substrate every Step runs on — the model's context, so all
  /// engines sharing one model (one backbone copy) share one thread pool.
  const ComputeContext& context() const { return model_->context(); }

  /// The model's tensor-parallel degree (1 = single-GPU execution).
  int tp() const { return model_->tp(); }

 private:
  /// Slot phases: `needs_prefill` is true from admission until the final
  /// prefill chunk completes. Mid-prefill (the chunked-prefill state) is
  /// `needs_prefill && SeqLen(seq) > 0`: the cache holds the chain's first
  /// SeqLen tokens (cached-prefix alias + computed chunks) and the next
  /// chunk resumes at that position. The prefix-cache hit is resolved and
  /// forked at the FIRST chunk only. Engine ids are issued in admission
  /// order, so the id is also the slot's admission sequence number.
  struct Slot {
    LoraId lora = -1;
    std::vector<std::int32_t> prompt;  ///< original prompt
    int max_new_tokens = 0;
    std::int32_t eos_token = -1;  ///< resolved stop token for this request
    SeqId seq = -1;
    bool needs_prefill = true;
    std::int32_t resume_from = 0;  ///< generated tokens to re-prefill
  };

  /// The cached pages a (LoRA, prompt+generated) chain's first chunk would
  /// fork: whole pages only, leaving at least one token to prefill for the
  /// logits.
  std::vector<PageId> LookupChain(LoraId lora,
                                  std::span<const std::int32_t> prompt,
                                  std::span<const std::int32_t> generated)
      const;
  /// Chain tokens a fork of `pages` reuses.
  std::int64_t HitTokens(std::span<const PageId> pages) const {
    return static_cast<std::int64_t>(pages.size()) * kv_.config().page_size;
  }
  /// The distinct pages among `pages` that are reclaimable now — headroom
  /// a fork of them takes back.
  std::int32_t ReclaimableAmong(std::vector<PageId> pages) const;

  std::int64_t Admit(Slot slot, std::vector<std::int32_t> generated);
  bool IsDone(const Slot& slot, const std::vector<std::int32_t>& out) const;

  /// The working set as the step planner sees it.
  std::vector<PlanSlot> PlanSlots() const;
  /// The step everyone projects (runtime/step_planner.h) with the slots in
  /// `exclude` treated as evicted. `hits` memoizes each first chunk's
  /// matched pages by slot id: the victim loop replans while the keys
  /// cannot change, so each O(chain) walk runs once, and Step takes
  /// exactly the fork its plan priced.
  StepPlan Plan(std::span<const PlanSlot> slots,
                std::span<const std::int64_t> exclude,
                std::map<std::int64_t, std::vector<PageId>>& hits) const;
  /// New pages a plan's step needs: each chunk's growth (from its fork
  /// point on a first chunk) plus each decode's token.
  std::int32_t PagesDemanded(const StepPlan& plan) const;

  /// Pages a chain grown to `target_len` tokens needs beyond the pages of
  /// its first `held` tokens (already written, or a page-aligned aliased
  /// prefix) — the one formula admission, the victim query and Step price
  /// with.
  std::int32_t NewPagesFor(std::int64_t target_len, std::int64_t held) const;

  LlamaModel* model_;
  PagedKvCache kv_;
  EngineConfig config_;
  PrefixCacheStats cache_stats_;  ///< lookup and token counters
  std::map<std::int64_t, Slot> active_;
  std::map<std::int64_t, std::vector<std::int32_t>> outputs_;
  std::int64_t next_id_ = 0;
};

}  // namespace punica
