#include "runtime/runner.h"

#include <algorithm>
#include <unordered_map>

#include "util/check.h"

namespace punica {

GpuRunner::GpuRunner(int gpu_id, const RunnerConfig& config,
                     const LlamaConfig& model_config,
                     const CostModel* cost_model)
    : gpu_id_(gpu_id),
      config_(config),
      model_config_(model_config),
      cost_model_(cost_model),
      lora_(config.lora_budget_bytes, config.lora_adapter_bytes,
            config.lora_load_latency_s) {
  PUNICA_CHECK(cost_model_ != nullptr);
  PUNICA_CHECK(config.max_batch_size > 0);
  PUNICA_CHECK(config.kv_capacity_tokens > 0);
}

std::int64_t GpuRunner::HitTokens(const ServingRequest& req) const {
  if (!config_.enable_prefix_cache) return 0;
  if (req.prefix_group < 0 || req.shared_prefix_len <= 0) return 0;
  auto it = prefix_cache_.find(req.prefix_group);
  if (it == prefix_cache_.end()) return 0;
  // The cache covers the tenant's system prompt; at least one token always
  // prefills (the numeric tier needs a row to emit logits — the simulated
  // tier mirrors the discipline so both predict the same shapes).
  std::int64_t cap = static_cast<std::int64_t>(req.PrefillTokensNeeded()) - 1;
  return std::min({it->second.tokens,
                   static_cast<std::int64_t>(req.shared_prefix_len), cap});
}

std::int64_t GpuRunner::PrefixHitTokens(const ServingRequest& req) const {
  return HitTokens(req);
}

bool GpuRunner::GroupResident(std::int64_t group) const {
  auto it = group_residents_.find(group);
  return it != group_residents_.end() && it->second > 0;
}

std::int64_t GpuRunner::ReclaimableCacheTokens() const {
  std::int64_t total = 0;
  for (const auto& [group, entry] : prefix_cache_) {
    if (!GroupResident(group)) total += entry.tokens;
  }
  return total;
}

bool GpuRunner::EvictOneCachedPrefix() {
  // LRU over entries with no resident request (a resident request's tokens
  // alias the entry's — evicting it would orphan their accounting).
  std::optional<std::int64_t> victim;
  std::uint64_t best_stamp = 0;
  for (const auto& [group, entry] : prefix_cache_) {
    if (GroupResident(group)) continue;
    if (!victim.has_value() || entry.stamp < best_stamp) {
      victim = group;
      best_stamp = entry.stamp;
    }
  }
  if (!victim.has_value()) return false;
  kv_used_tokens_ -= prefix_cache_.at(*victim).tokens;
  prefix_cache_.erase(*victim);
  ++cache_stats_.evictions;
  return true;
}

std::int64_t GpuRunner::prefix_cached_tokens() const {
  std::int64_t total = 0;
  for (const auto& [group, entry] : prefix_cache_) total += entry.tokens;
  return total;
}

PrefixCacheStats GpuRunner::prefix_cache_stats() const {
  PrefixCacheStats s = cache_stats_;
  s.cached_entries = static_cast<std::int64_t>(prefix_cache_.size());
  s.cached_tokens = prefix_cached_tokens();
  // Token-denominated gauges on the simulated tier.
  s.pages_in_use = static_cast<std::int32_t>(kv_used_tokens_);
  s.shared_pages = static_cast<std::int32_t>(s.cached_tokens);
  s.free_pages = static_cast<std::int32_t>(kv_free_tokens());
  return s;
}

std::int64_t GpuRunner::KvTokensNeeded(const ServingRequest& req) const {
  return static_cast<std::int64_t>(req.PrefillTokensNeeded()) + 1 -
         HitTokens(req);
}

bool GpuRunner::CanAdmit(const ServingRequest& req) const {
  if (working_set_size() >= config_.max_batch_size) return false;
  // Tokens reclaimable from idle cached prefixes count as headroom — Step
  // evicts them on demand before requests must migrate. But a hit assumes
  // its own entry STAYS cached, so that entry must not double as evictable
  // headroom (double-counting admits infeasible requests, which then
  // livelock through the migration path).
  std::int64_t reclaimable = ReclaimableCacheTokens();
  if (HitTokens(req) > 0 && !GroupResident(req.prefix_group)) {
    reclaimable -= prefix_cache_.at(req.prefix_group).tokens;
  }
  return KvTokensNeeded(req) <= kv_free_tokens() + reclaimable;
}

void GpuRunner::Admit(ServingRequest* req, double now) {
  PUNICA_CHECK(req != nullptr);
  PUNICA_CHECK_MSG(!slots_.contains(req->id), "request already on this GPU");
  PUNICA_CHECK_MSG(working_set_size() < config_.max_batch_size,
                   "admission beyond max batch size");
  if (req->admit_time < 0.0) req->admit_time = now;
  Slot slot;
  slot.req = req;
  slot.admit_seq = next_admit_seq_++;
  // The prefix hit is resolved at prefill time (PlanStep), not here — a
  // tenant-mate admitted in the same wave registers the prefix first, and
  // a slot evicted before it ever prefills must not record a hit.
  if (req->prefix_group >= 0) ++group_residents_[req->prefix_group];
  if (req->lora_id >= 0) {
    slot.lora_ready_time = lora_.Touch(req->lora_id, now);
    lora_.Pin(req->lora_id);
  } else {
    slot.lora_ready_time = now;
  }
  req->phase = RequestPhase::kAssigned;
  slots_.emplace(req->id, slot);
}

void GpuRunner::ReleaseSlot(std::map<std::int64_t, Slot>::iterator it) {
  // A slot's charged tokens are kv_len minus the tokens aliased from the
  // tenant's cached prefix (those stay resident — and become reclaimable
  // once the group has no resident request). Chunk-granular: a mid-prefill
  // slot holds exactly its consumed chunks; a slot evicted before its
  // first chunk holds nothing (kv_len and prefix_hit both still 0,
  // whatever its prospective hit would have been).
  kv_used_tokens_ -= it->second.kv_len - it->second.prefix_hit;
  if (it->second.req->prefix_group >= 0) {
    auto g = group_residents_.find(it->second.req->prefix_group);
    if (--g->second == 0) group_residents_.erase(g);
  }
  if (it->second.req->lora_id >= 0) {
    lora_.Unpin(it->second.req->lora_id);
  }
  slots_.erase(it);
}

std::optional<RequestSnapshot> GpuRunner::Cancel(std::int64_t request_id) {
  auto it = slots_.find(request_id);
  if (it == slots_.end()) return std::nullopt;
  RequestSnapshot snap = RequestSnapshot::FromRequest(*it->second.req);
  ReleaseSlot(it);
  return snap;
}

bool GpuRunner::HasRunnableWork(double now) const {
  for (const auto& [id, slot] : slots_) {
    if (slot.lora_ready_time <= now + 1e-12) return true;
  }
  return false;
}

std::optional<double> GpuRunner::NextReadyTime(double now) const {
  std::optional<double> best;
  for (const auto& [id, slot] : slots_) {
    if (slot.lora_ready_time > now + 1e-12) {
      if (!best.has_value() || slot.lora_ready_time < *best) {
        best = slot.lora_ready_time;
      }
    }
  }
  return best;
}

namespace {

/// KvCache tokens a plan grows the working set by: each chunk plus one
/// token per decode.
std::int64_t KvGrowth(const StepPlan& plan) {
  std::int64_t tokens = static_cast<std::int64_t>(plan.decode_ids.size());
  for (const PlannedPrefill& p : plan.prefills) tokens += p.chunk;
  return tokens;
}

}  // namespace

std::vector<PlanSlot> GpuRunner::PlanSlots(double now) const {
  std::vector<PlanSlot> slots;
  slots.reserve(slots_.size());
  for (const auto& [id, slot] : slots_) {
    slots.push_back({.id = id,
                     .admit_seq = slot.admit_seq,
                     .needs_prefill = slot.needs_prefill,
                     .runnable = slot.lora_ready_time <= now + 1e-12});
  }
  return slots;
}

StepPlan GpuRunner::Plan(std::span<const PlanSlot> slots,
                         std::span<const std::int64_t> exclude) const {
  return PlanStep(slots, exclude, config_.prefill_limit,
                  config_.max_step_tokens, [this](std::int64_t id) {
                    // A prefix-cache hit prefills (and allocates) only the
                    // uncached suffix; a mid-prefill slot resumes at its
                    // consumed length.
                    const Slot& s = slots_.at(id);
                    bool first = s.kv_len == 0;
                    return PlannedPrefill{
                        .start = first ? HitTokens(*s.req) : s.kv_len,
                        .total = s.req->PrefillTokensNeeded(),
                        .first_chunk = first};
                  });
}

std::vector<std::int64_t> GpuRunner::SelectEvictionVictims(double now) const {
  // Token-granular accounting for the shared victim loop: a plan demands
  // its chunks plus one token per decode (prefill is NOT atomic — only the
  // next chunk's tokens). Tokens of cached prefixes with no resident
  // request count as headroom; a planned hit's group is resident, so its
  // entry never does. An evicted slot releases its exclusively held tokens
  // — its tenant's cached prefix stays, becoming reclaimable (which this
  // projection conservatively ignores).
  std::vector<PlanSlot> slots = PlanSlots(now);
  const std::int64_t headroom = config_.kv_capacity_tokens - kv_used_tokens_ +
                                ReclaimableCacheTokens();
  return SelectVictims(
      slots, config_.evict_policy,
      [&](std::span<const std::int64_t> exclude) {
        return Plan(slots, exclude);
      },
      KvGrowth, [&](const StepPlan&) { return headroom; },
      [&](std::int64_t id) {
        const Slot& s = slots_.at(id);
        return s.kv_len - s.prefix_hit;
      });
}

StepResult GpuRunner::Step(double now) {
  StepPlan plan = Plan(PlanSlots(now), {});
  StepResult result;
  if (plan.prefills.empty() && plan.decode_ids.empty()) return result;
  const std::int64_t kv_growth = KvGrowth(plan);
  while (kv_used_tokens_ + kv_growth > config_.kv_capacity_tokens &&
         EvictOneCachedPrefix()) {
  }
  PUNICA_CHECK_MSG(kv_used_tokens_ + kv_growth <= config_.kv_capacity_tokens,
                   "step would overflow KvCache; evict victims first");

  // Build the cost-model shape. Token rows group by LoRA id (the runtime
  // orders same-LoRA requests consecutively before building SGMV segments).
  // A prefill contributes only its chunk as token rows — the uncached
  // suffix slice the budget grants it this step — but attention still
  // reads the whole kv span up to the chunk's end: the
  // (kv − chunk) + (chunk+1)/2 causal-span term the cost model prices, for
  // prefix hits and budget chunks alike (one shared definition).
  StepShape shape;
  shape.tp_degree = config_.tp_degree;
  shape.lora_rank = config_.lora_rank;
  std::unordered_map<LoraId, std::int32_t> rows_by_lora;
  int chunked_prefills = 0;
  for (const PlannedPrefill& p : plan.prefills) {
    if (p.chunk == 0) continue;  // budget-deferred this step
    const Slot* s = &slots_.at(p.id);
    ++chunked_prefills;
    shape.prefill_chunks.push_back(static_cast<std::int32_t>(p.chunk));
    shape.prefill_kv_lens.push_back(p.start + p.chunk);
    if (s->req->lora_id >= 0) {
      rows_by_lora[s->req->lora_id] += static_cast<std::int32_t>(p.chunk);
    }
    cache_stats_.prefill_tokens += p.chunk;
    if (p.first_chunk) {
      result.prefix_hit_tokens += static_cast<int>(p.start);
      if (config_.enable_prefix_cache && s->req->prefix_group >= 0 &&
          s->req->shared_prefix_len > 0) {
        ++cache_stats_.lookups;
        if (p.start > 0) {
          prefix_cache_.at(s->req->prefix_group).stamp = cache_clock_++;
          ++cache_stats_.hits;
          cache_stats_.hit_tokens += p.start;
        }
      }
    }
  }
  for (std::int64_t id : plan.decode_ids) {
    const Slot& s = slots_.at(id);
    shape.decode_kv_lens.push_back(s.kv_len + 1);
    if (s.req->lora_id >= 0) rows_by_lora[s.req->lora_id] += 1;
  }
  for (const auto& [lora, rows] : rows_by_lora) {
    shape.lora_segment_rows.push_back(rows);
  }

  result.latency = cost_model_->StepLatency(model_config_, shape);
  result.batch_size =
      static_cast<int>(chunked_prefills + plan.decode_ids.size());
  result.prefill_requests = chunked_prefills;
  result.num_segments = static_cast<int>(shape.lora_segment_rows.size());
  for (auto c : shape.prefill_chunks) result.prefill_tokens += c;

  double completion = now + result.latency;

  // Apply state transitions. The plan names slots by id, so releasing
  // finished slots below cannot invalidate it.
  // The emitted "token" on this tier is the per-request sequence tag
  // (generated count − 1): content is synthetic, ordering and timing are
  // what the simulation is responsible for. A non-final chunk emits
  // nothing — the request's first token waits for its last chunk.
  for (const PlannedPrefill& p : plan.prefills) {
    if (p.chunk == 0) continue;
    std::int64_t id = p.id;
    Slot& slot = slots_.at(id);
    if (p.first_chunk) {
      // The hit resolved at plan time becomes the slot's share of the
      // tenant's cache-owned tokens.
      slot.prefix_hit = p.start;
    }
    slot.kv_len = p.start + p.chunk;
    kv_used_tokens_ += p.chunk;
    if (slot.kv_len < p.total) {
      ++result.partial_prefills;
      continue;
    }
    slot.needs_prefill = false;
    // The tenant's system prompt is now resident — register it so the next
    // group-mate's prefill skips it (ownership of those tokens moves to
    // the cache entry; memory totals are unchanged, mirroring refcounted
    // page aliasing on the numeric tier).
    if (config_.enable_prefix_cache && slot.req->prefix_group >= 0 &&
        slot.req->shared_prefix_len > 0 && slot.prefix_hit == 0) {
      auto covered = std::min(
          p.total, static_cast<std::int64_t>(slot.req->shared_prefix_len));
      auto [it, inserted] = prefix_cache_.try_emplace(
          slot.req->prefix_group,
          CachedPrefix{.tokens = covered, .stamp = cache_clock_});
      ++cache_clock_;
      if (inserted) {
        slot.prefix_hit = covered;  // those tokens now belong to the cache
        ++cache_stats_.insertions;
      } else {
        it->second.stamp = cache_clock_ - 1;
      }
    }
    slot.req->generated += 1;
    ++result.new_tokens;
    result.emitted.push_back({id, slot.req->generated - 1});
    if (slot.req->first_token_time < 0.0) {
      slot.req->first_token_time = completion;
    }
  }
  for (std::int64_t id : plan.decode_ids) {
    Slot& slot = slots_.at(id);
    slot.kv_len += 1;
    kv_used_tokens_ += 1;
    slot.req->generated += 1;
    ++result.new_tokens;
    result.emitted.push_back({id, slot.req->generated - 1});
  }

  auto finish_if_done = [&](std::int64_t id) {
    auto it = slots_.find(id);
    if (!it->second.req->Done()) return;
    it->second.req->phase = RequestPhase::kFinished;
    it->second.req->finish_time = completion;
    result.finished.push_back(id);
    ReleaseSlot(it);
  };
  for (const PlannedPrefill& p : plan.prefills) {
    if (p.chunk > 0) finish_if_done(p.id);
  }
  for (std::int64_t id : plan.decode_ids) finish_if_done(id);
  for (const auto& [id, slot] : slots_) {
    if (!slot.needs_prefill) continue;
    result.deferred_prefill_tokens +=
        slot.req->PrefillTokensNeeded() - slot.kv_len;
  }
  return result;
}

ServingRequest* GpuRunner::Find(std::int64_t request_id) const {
  auto it = slots_.find(request_id);
  return it == slots_.end() ? nullptr : it->second.req;
}

ServingRequest* GpuRunner::NewestRequest() const {
  const Slot* newest = nullptr;
  for (const auto& [id, slot] : slots_) {
    if (newest == nullptr || slot.admit_seq > newest->admit_seq) {
      newest = &slot;
    }
  }
  return newest == nullptr ? nullptr : newest->req;
}

}  // namespace punica
