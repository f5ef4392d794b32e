// The step planner — the ONE definition of how a serving step is composed
// and of which requests migrate when it does not fit. The numeric Engine
// and the simulated GpuRunner (which the closed-loop text-gen simulator's
// continuous systems step through) plan through PlanStep, and both serving
// tiers name KvCache-pressure victims through SelectVictims, so a workload
// yields identical step plans (prefill cut, chunk sequence, decode set) on
// every tier. Each tier supplies only its accounting: where a prefill
// resumes, and what a plan demands of its KvCache in pages or tokens.
// tests/runtime/chunking_test.cc pins the semantics.
//
// A step (paper §5) carries every runnable decode plus up to
// `prefill_limit` pending prefills, FCFS by admission, chunked under the
// step token budget: at most `max_step_tokens` token rows, decode rows
// included. Decodes are never trimmed — they are the latency-sensitive work
// the budget protects — so prefills consume what remains FCFS; the head
// prefill always gets at least one token (prefill must make progress, or a
// full decode batch would starve admissions forever). max_step_tokens <= 0
// means unlimited: every prefill runs its whole remaining suffix.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace punica {

/// Splits a step's prefill token budget over the planned prefills.
/// `remaining[i]` is prefill i's uncomputed suffix length (FCFS order);
/// `num_decodes` is the count of decode rows sharing the step. Returns one
/// chunk length per prefill, aligned with `remaining`; a 0 means the
/// prefill sits this step out entirely (budget exhausted by earlier
/// prefills). Chunks never exceed `remaining[i]`.
inline std::vector<std::int64_t> SplitPrefillChunks(
    std::span<const std::int64_t> remaining, std::int64_t num_decodes,
    std::int64_t max_step_tokens) {
  std::vector<std::int64_t> chunks(remaining.size(), 0);
  if (remaining.empty()) return chunks;
  if (max_step_tokens <= 0) {
    for (std::size_t i = 0; i < remaining.size(); ++i) {
      chunks[i] = remaining[i];
    }
    return chunks;
  }
  // The progress floor: at least one prefill token per step, whatever the
  // decode batch size.
  std::int64_t budget =
      std::max<std::int64_t>(max_step_tokens - num_decodes, 1);
  for (std::size_t i = 0; i < remaining.size() && budget > 0; ++i) {
    chunks[i] = std::min(remaining[i], budget);
    budget -= chunks[i];
  }
  return chunks;
}

/// One request as the planner sees it.
struct PlanSlot {
  std::int64_t id = -1;
  std::uint64_t admit_seq = 0;  ///< the FCFS key and the victim order
  bool needs_prefill = true;    ///< until its final prefill chunk runs
  /// False: never planned (its adapter is still loading), though it holds
  /// KvCache and may be named as a victim.
  bool runnable = true;
};

struct PlannedPrefill {
  std::int64_t id = -1;
  std::int64_t start = 0;  ///< chain tokens already resident (the cached
                           ///< prefix hit, for a first chunk)
  std::int64_t chunk = 0;  ///< tokens this step (0 = budget-deferred)
  std::int64_t total = 0;  ///< full re-prefill chain length
  bool first_chunk = false;  ///< this chunk resolves the prefix hit
};

struct StepPlan {
  std::vector<PlannedPrefill> prefills;  ///< FCFS, cut to prefill_limit
  std::vector<std::int64_t> decode_ids;  ///< in input order
};

/// Victim order under KvCache pressure. The paper evicts the *newest*
/// request, preserving FCFS (§5.3); kOldest is kept for the ablation bench
/// (it migrates the requests with the largest caches, maximising wasted
/// recomputation and starving the oldest requests).
enum class EvictPolicy { kNewest, kOldest };

/// Plans the next step over `slots`, treating the ids in `exclude` (victim
/// simulation) as already evicted. `extent(id)` returns a PlannedPrefill
/// with start, total and first_chunk set, and is called only for the
/// prefills that make the prefill_limit cut. A mid-prefill slot made the
/// cut when its first chunk ran and the cut is stable, so it keeps its
/// place until its final chunk completes.
template <typename ExtentFn>
StepPlan PlanStep(std::span<const PlanSlot> slots,
                  std::span<const std::int64_t> exclude, int prefill_limit,
                  std::int64_t max_step_tokens, ExtentFn&& extent) {
  StepPlan plan;
  std::vector<const PlanSlot*> pending;
  for (const PlanSlot& s : slots) {
    if (!s.runnable ||
        std::find(exclude.begin(), exclude.end(), s.id) != exclude.end()) {
      continue;
    }
    if (s.needs_prefill) {
      pending.push_back(&s);
    } else {
      plan.decode_ids.push_back(s.id);
    }
  }
  std::sort(pending.begin(), pending.end(),
            [](const PlanSlot* a, const PlanSlot* b) {
              return a->admit_seq < b->admit_seq;
            });
  if (static_cast<std::int64_t>(pending.size()) > prefill_limit) {
    pending.resize(static_cast<std::size_t>(std::max(prefill_limit, 0)));
  }
  std::vector<std::int64_t> remaining;
  for (const PlanSlot* s : pending) {
    PlannedPrefill p = extent(s->id);
    p.id = s->id;
    remaining.push_back(p.total - p.start);
    plan.prefills.push_back(p);
  }
  std::vector<std::int64_t> chunks = SplitPrefillChunks(
      remaining, static_cast<std::int64_t>(plan.decode_ids.size()),
      max_step_tokens);
  for (std::size_t i = 0; i < plan.prefills.size(); ++i) {
    plan.prefills[i].chunk = chunks[i];
  }
  return plan;
}

/// KvCache-pressure victim query (§5.3): the ids (in eviction order) to
/// cancel before the next step fits. `plan(exclude)` plans the step with
/// the victims so far evicted; the loop stops once `demand(plan)` fits in
/// `headroom(plan)` plus the units the victims free (`freed(id)`: what a
/// cancel returns exclusively), or when no candidate is left. Evicting a
/// victim changes the plan itself — its budget share redistributes to the
/// remaining chunks, a pending prefill may be promoted into the
/// prefill_limit cut — so every eviction replans instead of decrementing
/// a stale demand total: the projection and the realized step cannot
/// disagree. Every slot is a candidate, runnable or not.
template <typename PlanFn, typename DemandFn, typename HeadroomFn,
          typename FreedFn>
std::vector<std::int64_t> SelectVictims(std::span<const PlanSlot> slots,
                                        EvictPolicy policy, PlanFn&& plan,
                                        DemandFn&& demand,
                                        HeadroomFn&& headroom,
                                        FreedFn&& freed) {
  const bool newest_first = policy == EvictPolicy::kNewest;
  std::vector<std::int64_t> victims;
  std::int64_t freed_so_far = 0;
  while (true) {
    StepPlan p = plan(std::span<const std::int64_t>(victims));
    if (demand(p) <= headroom(p) + freed_so_far) break;
    const PlanSlot* victim = nullptr;
    for (const PlanSlot& s : slots) {
      if (std::find(victims.begin(), victims.end(), s.id) != victims.end()) {
        continue;
      }
      if (victim == nullptr ||
          (newest_first ? s.admit_seq > victim->admit_seq
                        : s.admit_seq < victim->admit_seq)) {
        victim = &s;
      }
    }
    if (victim == nullptr) break;  // nothing left to evict
    freed_so_far += freed(victim->id);
    victims.push_back(victim->id);
  }
  return victims;
}

}  // namespace punica
