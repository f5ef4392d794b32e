#include "runtime/engine.h"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "util/check.h"

namespace punica {
Engine::Engine(LlamaModel* model, const KvCacheConfig& kv_config,
               EngineConfig config)
    : model_(model), kv_(kv_config), config_(config) {
  PUNICA_CHECK(model_ != nullptr);
  PUNICA_CHECK(config_.max_batch_size > 0);
  PUNICA_CHECK(config_.prefill_limit >= 1);
}

std::int32_t Engine::ResolveEos(std::int32_t spec_eos) const {
  if (spec_eos >= 0 && config_.eos_token >= 0) {
    PUNICA_CHECK_MSG(spec_eos == config_.eos_token,
                     "request and engine disagree on the EOS token");
  }
  return spec_eos >= 0 ? spec_eos : config_.eos_token;
}

bool Engine::Serves(const SubmitSpec& spec) const {
  const std::int32_t vocab = model_->config().vocab_size;
  return spec.Servable() && !spec.prompt_tokens.empty() &&
         (spec.lora < 0 || model_->HasLora(spec.lora)) &&
         std::all_of(spec.prompt_tokens.begin(), spec.prompt_tokens.end(),
                     [vocab](std::int32_t t) { return t >= 0 && t < vocab; }) &&
         (spec.eos_token < 0 || config_.eos_token < 0 ||
          spec.eos_token == config_.eos_token);
}

std::int64_t Engine::Admit(Slot slot, std::vector<std::int32_t> generated) {
  // Admission-failure audit: every check precedes KvCache mutation, so a
  // failed admission can never leak a sequence or page references. The
  // prefix-cache lookup happens at prefill time (not here): a tenant-mate
  // admitted in the same wave may key the prefix before this slot's
  // prefill runs.
  PUNICA_CHECK_MSG(CanAdmit(), "working set full; queue at the caller");
  PUNICA_CHECK(!slot.prompt.empty());
  slot.seq = kv_.CreateSequence();
  std::int64_t id = next_id_++;
  outputs_[id] = std::move(generated);
  active_.emplace(id, std::move(slot));
  return id;
}

RequestHandle Engine::AddRequest(const SubmitSpec& spec) {
  // A stop token that disagrees with the engine's stays a caller error
  // (ResolveEos asserts); everything else Serves checks is refused.
  const std::int32_t eos = ResolveEos(spec.eos_token);
  if (!CanAdmit() || !Serves(spec)) return RequestHandle();
  Slot slot;
  slot.lora = spec.lora;
  slot.prompt = spec.prompt_tokens;
  slot.max_new_tokens = spec.max_new_tokens;
  slot.eos_token = eos;
  return RequestHandle(Admit(std::move(slot), {}));
}

RequestHandle Engine::AddMigrated(const RequestSnapshot& snapshot) {
  // A migrated request must keep the stopping condition it started with:
  // the destination engine may not silently apply a different EOS token.
  if (config_.eos_token >= 0) {
    PUNICA_CHECK_MSG(snapshot.eos_token == config_.eos_token,
                     "migration changed the EOS stop condition");
  }
  Slot slot;
  slot.lora = snapshot.lora;
  slot.prompt = snapshot.prompt;
  slot.max_new_tokens = snapshot.max_new_tokens;
  slot.eos_token = snapshot.eos_token;
  slot.resume_from = static_cast<std::int32_t>(snapshot.generated.size());
  // The first chunk's lookup covers prompt + generated, so surviving
  // cached pages (keyed while this request ran here, or by a sibling with
  // the same system prompt) shrink the rebuild instead of recomputing the
  // whole history.
  return RequestHandle(Admit(std::move(slot), snapshot.generated));
}

std::optional<RequestSnapshot> Engine::Cancel(std::int64_t id) {
  auto it = active_.find(id);
  if (it == active_.end()) return std::nullopt;
  Slot& slot = it->second;
  RequestSnapshot snap;
  snap.request_id = id;
  snap.lora = slot.lora;
  snap.prompt = slot.prompt;
  snap.generated = outputs_.at(id);
  snap.prompt_len = static_cast<std::int32_t>(snap.prompt.size());
  snap.generated_len = static_cast<std::int32_t>(snap.generated.size());
  snap.max_new_tokens = slot.max_new_tokens;
  snap.eos_token = slot.eos_token;
  // The evict half of migration. The chain's full pages are keyed already,
  // so they stay cached for a rebuild here until allocation reclaims them.
  kv_.FreeSequence(slot.seq);
  active_.erase(it);
  return snap;
}

bool Engine::IsDone(const Slot& slot,
                    const std::vector<std::int32_t>& out) const {
  if (static_cast<int>(out.size()) >= slot.max_new_tokens) return true;
  return slot.eos_token >= 0 && !out.empty() &&
         out.back() == slot.eos_token;
}

std::vector<PlanSlot> Engine::PlanSlots() const {
  std::vector<PlanSlot> slots;
  slots.reserve(active_.size());
  for (const auto& [id, slot] : active_) {
    slots.push_back({.id = id,
                     .admit_seq = static_cast<std::uint64_t>(id),
                     .needs_prefill = slot.needs_prefill});
  }
  return slots;
}

StepPlan Engine::Plan(std::span<const PlanSlot> slots,
                      std::span<const std::int64_t> exclude,
                      std::map<std::int64_t, std::vector<PageId>>& hits)
    const {
  return PlanStep(
      slots, exclude, config_.prefill_limit, config_.max_step_tokens,
      [&](std::int64_t id) {
        const Slot& slot = active_.at(id);
        PlannedPrefill p{
            .start = kv_.SeqLen(slot.seq),
            .total = static_cast<std::int64_t>(slot.prompt.size()) +
                     slot.resume_from};
        p.first_chunk = p.start == 0;
        if (p.first_chunk) {
          // The fork the first chunk will take. Pure query; no key changes
          // between this plan and the fork inside the same Step, so Step
          // reuses the match verbatim.
          auto [it, fresh] = hits.try_emplace(id);
          if (fresh) {
            it->second = LookupChain(
                slot.lora, slot.prompt,
                std::span(outputs_.at(id))
                    .first(static_cast<std::size_t>(slot.resume_from)));
          }
          p.start = HitTokens(it->second);
        }
        return p;
      });
}

std::int32_t Engine::NewPagesFor(std::int64_t target_len,
                                 std::int64_t held) const {
  // The one growth formula admission (CanAdmitPages,
  // PagesNeededForAdmission), the victim projection (PagesDemanded) and
  // Step's fork+Extend agree on. Exact because every page an
  // engine sequence shares is full, so growth never copies a page.
  return kv_.config().PagesNeeded(target_len) -
         kv_.config().PagesNeeded(held);
}

std::int32_t Engine::PagesDemanded(const StepPlan& plan) const {
  // A chunk grows its chain from `start` (the fork point on a first chunk)
  // to start+chunk; a decode grows its sequence by one token.
  std::int32_t pages = 0;
  for (const PlannedPrefill& p : plan.prefills) {
    pages += NewPagesFor(p.start + p.chunk, p.start);
  }
  for (std::int64_t id : plan.decode_ids) {
    std::int64_t len = kv_.SeqLen(active_.at(id).seq);
    pages += NewPagesFor(len + 1, len);
  }
  return pages;
}

std::int32_t Engine::ReclaimableAmong(std::vector<PageId> pages) const {
  std::sort(pages.begin(), pages.end());
  pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
  return static_cast<std::int32_t>(
      std::count_if(pages.begin(), pages.end(),
                    [&](PageId p) { return kv_.PageRefCount(p) == 0; }));
}

std::int32_t Engine::AvailablePages() const {
  return kv_.free_pages() + kv_.reclaimable_pages();
}

std::vector<PageId> Engine::LookupChain(
    LoraId lora, std::span<const std::int32_t> prompt,
    std::span<const std::int32_t> generated) const {
  if (!config_.enable_prefix_cache) return {};
  TokenChain chain{prompt, generated};
  if (chain.size() == 0) return {};
  // Keep one token to prefill for the logits; a fork shares whole pages.
  return kv_.MatchCachedPages(
      static_cast<std::int32_t>(lora), chain,
      static_cast<std::int32_t>((chain.size() - 1) / kv_.config().page_size));
}

std::int64_t Engine::PrefixHitTokens(
    LoraId lora, std::span<const std::int32_t> prompt,
    std::span<const std::int32_t> generated) const {
  return HitTokens(LookupChain(lora, prompt, generated));
}

std::int32_t Engine::PagesNeededForAdmission(
    LoraId lora, std::span<const std::int32_t> prompt,
    std::span<const std::int32_t> generated) const {
  auto chain_len = static_cast<std::int64_t>(prompt.size()) +
                   static_cast<std::int64_t>(generated.size());
  // Re-prefill chain plus one decode slot, net of the aliased prefix.
  return NewPagesFor(chain_len + 1,
                     HitTokens(LookupChain(lora, prompt, generated)));
}

bool Engine::CanAdmitPages(LoraId lora,
                           std::span<const std::int32_t> prompt,
                           std::span<const std::int32_t> generated) const {
  auto chain_len = static_cast<std::int64_t>(prompt.size()) +
                   static_cast<std::int64_t>(generated.size());
  std::vector<PageId> hit = LookupChain(lora, prompt, generated);
  std::int32_t pages = NewPagesFor(chain_len + 1, HitTokens(hit));
  // The hit nets out the aliased pages, and its fork revives those that
  // are reclaimable — so they must not also count as headroom
  // (double-counting admits infeasible requests, which then bounce through
  // the migration path forever).
  return pages <= AvailablePages() - ReclaimableAmong(std::move(hit));
}

PrefixCacheStats Engine::prefix_cache_stats() const {
  PrefixCacheStats s = cache_stats_;
  s.insertions = kv_.pages_keyed();
  s.evictions = kv_.pages_reclaimed();
  s.cached_entries = kv_.cached_pages();
  s.cached_tokens = s.cached_entries * kv_.config().page_size;
  s.pages_in_use = kv_.used_pages();
  s.shared_pages = kv_.shared_pages();
  s.free_pages = kv_.free_pages();
  return s;
}

std::vector<std::int64_t> Engine::SelectEvictionVictims() const {
  // Page-granular accounting for the shared victim loop: a plan demands
  // its chunks' pages (only the next chunk — prefill is NOT atomic) plus
  // each decode's growth. Free and reclaimable pages are the headroom,
  // less the reclaimable pages the plan's first chunks fork: Step forks
  // them before any extend, so they cannot be reclaimed that step. A
  // cancel frees the victim's exclusively held pages (they become free or
  // reclaimable); shared pages stay with their other holders. No planned
  // first chunk forks a page a victim holds: a victim holding pages has
  // run its first chunk. Prefills are planned FCFS by id, so every older
  // request ran its first chunk no later than the victim did, and victims
  // are named newest id first, so every newer request is already a victim,
  // out of the plan.
  std::vector<PlanSlot> slots = PlanSlots();
  std::map<std::int64_t, std::vector<PageId>> hits;
  return SelectVictims(
      slots, EvictPolicy::kNewest,
      [&](std::span<const std::int64_t> exclude) {
        return Plan(slots, exclude, hits);
      },
      [&](const StepPlan& plan) { return PagesDemanded(plan); },
      [&](const StepPlan& plan) {
        std::vector<PageId> forked;
        for (const PlannedPrefill& p : plan.prefills) {
          if (p.first_chunk && p.chunk > 0) {
            const std::vector<PageId>& hit = hits.at(p.id);
            forked.insert(forked.end(), hit.begin(), hit.end());
          }
        }
        return AvailablePages() - ReclaimableAmong(std::move(forked));
      },
      [&](std::int64_t id) {
        const std::span<const PageId> pages =
            kv_.PageTable(active_.at(id).seq);
        return static_cast<std::int32_t>(
            std::count_if(pages.begin(), pages.end(), [&](PageId page) {
              return kv_.PageRefCount(page) == 1;
            }));
      });
}

StepResult Engine::Step() {
  StepResult result;
  if (active_.empty()) return result;

  // The one step plan SelectEvictionVictims projects page demand for:
  // up to prefill_limit prefills (FCFS), chunked by max_step_tokens, plus
  // all decodes. Budget-deferred prefills (chunk 0) sit this step out.
  std::map<std::int64_t, std::vector<PageId>> hits;
  StepPlan plan = Plan(PlanSlots(), {}, hits);
  struct PrefillWork {
    Slot* slot = nullptr;
    PlannedPrefill planned;
  };
  std::vector<PrefillWork> prefills;
  for (const PlannedPrefill& p : plan.prefills) {
    if (p.chunk > 0) prefills.push_back({&active_.at(p.id), p});
  }
  std::vector<std::pair<std::int64_t, Slot*>> decodes;
  for (std::int64_t id : plan.decode_ids) {
    decodes.emplace_back(id, &active_.at(id));
  }
  if (prefills.empty() && decodes.empty()) return result;

  // Group by LoRA id within each section (admission order within a group)
  // so SGMV segments are maximal; the prefill tail and decode head can then
  // share a segment (paper §6).
  std::stable_sort(prefills.begin(), prefills.end(),
                   [](const PrefillWork& a, const PrefillWork& b) {
                     return std::tie(a.slot->lora, a.planned.id) <
                            std::tie(b.slot->lora, b.planned.id);
                   });
  std::stable_sort(decodes.begin(), decodes.end(),
                   [](const auto& a, const auto& b) {
                     return std::tie(a.second->lora, a.first) <
                            std::tie(b.second->lora, b.first);
                   });
  if (!prefills.empty() && !decodes.empty()) {
    // Rotate decodes so the head shares the last prefill's LoRA when one
    // exists.
    LoraId tail = prefills.back().slot->lora;
    auto match = std::find_if(decodes.begin(), decodes.end(),
                              [&](const auto& d) {
                                return d.second->lora == tail;
                              });
    if (match != decodes.end()) {
      std::rotate(decodes.begin(), match, decodes.end());
    }
  }

  // Resolve every first-chunk prefill's cache hit and take its fork BEFORE
  // any Extend runs: forking is refcount-only (never allocates) and
  // revives reclaimable pages, so no allocation in this step can reclaim a
  // page a later prefill was projected to hit — the demand
  // SelectEvictionVictims projected stays exactly the demand this step
  // realizes. Hits resolve at prefill time, not admission: a tenant-mate
  // admitted in the same wave has keyed its prompt by now. Later chunks
  // resume the fork taken here.
  for (PrefillWork& pw : prefills) {
    if (!pw.planned.first_chunk || !config_.enable_prefix_cache) continue;
    Slot* slot = pw.slot;
    ++cache_stats_.lookups;
    // The match resolved at plan time IS the fork taken — no key changed
    // between the plan and here.
    const std::vector<PageId>& hit = hits.at(pw.planned.id);
    if (!hit.empty()) {
      kv_.FreeSequence(slot->seq);
      slot->seq = kv_.ForkCached(hit);
      ++cache_stats_.hits;
      cache_stats_.hit_tokens += HitTokens(hit);
      // Credit the skip at the fork, where it is realized — a first chunk
      // deferred by pool drift after forking still reported its hit.
      result.prefix_hit_tokens += static_cast<int>(HitTokens(hit));
    }
    // The adapter's cached pages this request did not fork had their
    // chance: they go before never-touched pages from now on.
    kv_.ExpireUnforked(static_cast<std::int32_t>(slot->lora));
  }

  // Build batch entries and token rows. KvCache is extended chunk-by-chunk
  // (the fork aliases whole pages, so Extend only appends pages) so the
  // layer can write K/V at every row position. A chunk covers rows
  // [start, start+chunk) of its chain and attends over everything before
  // it via pos_offset; only the final chunk emits logits.
  std::vector<BatchEntry> entries;
  std::vector<std::int32_t> token_ids;
  std::vector<PrefillWork> ran_prefills;  ///< chunks that made it in
  for (PrefillWork& pw : prefills) {
    Slot* slot = pw.slot;
    PUNICA_CHECK(kv_.SeqLen(slot->seq) == pw.planned.start);
    PUNICA_CHECK(pw.planned.chunk >= 1);
    // Graceful degradation when the world drifted between the victim
    // projection and this step (a caller that stepped without asking, or
    // changed the working set in between). Chunk boundaries never change
    // bits, so shrink the chunk to what the pool actually holds (halving
    // keeps the probe logarithmic) and defer the prefill entirely when not
    // even one token fits.
    std::int64_t chunk = pw.planned.chunk;
    while (chunk > 0 && !kv_.Extend(slot->seq, chunk)) {
      chunk /= 2;
    }
    if (chunk == 0) continue;  // deferred; decodes still run
    pw.planned.chunk = chunk;
    bool final_chunk = pw.planned.start + chunk == pw.planned.total;
    entries.push_back({.seq = slot->seq,
                       .lora = slot->lora,
                       .num_tokens = static_cast<std::int32_t>(chunk),
                       .pos_offset = pw.planned.start,
                       .is_prefill = true,
                       .emit_logits = final_chunk});
    // Rows [start, start+chunk) of the chain prompt ⧺ generated[:resume] —
    // indexed in place, no per-chunk chain copy.
    const auto& out = outputs_.at(pw.planned.id);
    auto prompt_len = static_cast<std::int64_t>(slot->prompt.size());
    for (std::int64_t i = pw.planned.start; i < pw.planned.start + chunk;
         ++i) {
      token_ids.push_back(
          i < prompt_len
              ? slot->prompt[static_cast<std::size_t>(i)]
              : out[static_cast<std::size_t>(i - prompt_len)]);
    }
    result.prefill_tokens += static_cast<int>(chunk);
    cache_stats_.prefill_tokens += chunk;
    ran_prefills.push_back(pw);
  }
  for (auto& [id, slot] : decodes) {
    std::int64_t pos = kv_.SeqLen(slot->seq);
    // A decode must run — if its one token cannot fit even with every
    // cached page reclaimed, the engine is genuinely over-committed and the
    // caller failed to migrate first.
    PUNICA_CHECK_MSG(kv_.Extend(slot->seq, 1),
                     "KvCache exhausted; migrate requests first");
    entries.push_back({.seq = slot->seq,
                       .lora = slot->lora,
                       .num_tokens = 1,
                       .pos_offset = pos,
                       .is_prefill = false});
    token_ids.push_back(outputs_.at(id).back());
  }
  PUNICA_CHECK_MSG(!entries.empty(),
                   "KvCache exhausted; migrate requests first");

  ModelBatch batch = ModelBatch::Build(std::move(entries));
  result.num_segments = batch.segments.num_segments();
  result.batch_size = static_cast<int>(ran_prefills.size() + decodes.size());
  result.prefill_requests = static_cast<int>(ran_prefills.size());

  std::vector<std::int32_t> next = model_->ForwardGreedy(batch, token_ids,
                                                         kv_);
  // Key the pages this step filled, before any finished sequence is freed:
  // their K/V is written now, and the chain tokens are prompt + the
  // outputs emitted before this step.
  if (config_.enable_prefix_cache) {
    auto key = [&](std::int64_t id, const Slot& slot) {
      kv_.KeyFullPages(slot.seq, static_cast<std::int32_t>(slot.lora),
                       {slot.prompt, outputs_.at(id)});
    };
    for (const PrefillWork& pw : ran_prefills) key(pw.planned.id, *pw.slot);
    for (const auto& [id, slot] : decodes) key(id, *slot);
  }

  // Apply results in entry order: prefill chunks first, then decodes. A
  // non-final chunk consumes its (zeroed) logits row and emits nothing —
  // the slot stays in the prefilling phase with its progress in SeqLen.
  std::size_t out_idx = 0;
  auto apply = [&](std::int64_t id, Slot* slot, bool was_prefill) {
    std::int32_t token = next[out_idx++];
    auto& out = outputs_.at(id);
    out.push_back(token);
    result.emitted.push_back({id, token});
    ++result.new_tokens;
    if (was_prefill) slot->needs_prefill = false;
    if (IsDone(*slot, out)) {
      kv_.FreeSequence(slot->seq);
      result.finished.push_back(id);
      active_.erase(id);
    }
  };
  for (PrefillWork& pw : ran_prefills) {
    bool final_chunk =
        pw.planned.start + pw.planned.chunk == pw.planned.total;
    if (final_chunk) {
      apply(pw.planned.id, pw.slot, true);
    } else {
      ++out_idx;  // skip the non-emitting entry's logits row
      ++result.partial_prefills;
    }
  }
  for (auto& [id, slot] : decodes) apply(id, slot, false);
  for (const auto& [id, slot] : active_) {
    if (!slot.needs_prefill) continue;
    result.deferred_prefill_tokens +=
        static_cast<std::int64_t>(slot.prompt.size()) + slot.resume_from -
        kv_.SeqLen(slot.seq);
  }
  return result;
}

std::string Engine::AuditInvariants() const {
  std::string kv_err = kv_.AuditInvariants();
  if (!kv_err.empty()) return kv_err;
  std::ostringstream err;
  for (const auto& [id, slot] : active_) {
    if (!kv_.Contains(slot.seq)) {
      err << "request " << id << " holds freed sequence " << slot.seq;
      return err.str();
    }
    // Prefilling: the chain's written prefix, short of its last token.
    // Decoding: prompt + every emitted token but the newest, which the
    // next decode writes.
    std::int64_t len = kv_.SeqLen(slot.seq);
    auto chain = static_cast<std::int64_t>(slot.prompt.size()) +
                 slot.resume_from;
    auto emitted = static_cast<std::int64_t>(outputs_.at(id).size());
    bool ok = slot.needs_prefill
                  ? len < chain && emitted == slot.resume_from
                  : len == static_cast<std::int64_t>(slot.prompt.size()) +
                               emitted - 1;
    if (!ok) {
      err << "request " << id << " has " << len << " KV tokens after "
          << emitted << " emitted (prompt " << slot.prompt.size()
          << ", resume " << slot.resume_from
          << (slot.needs_prefill ? ", prefilling)" : ", decoding)");
      return err.str();
    }
  }
  if (kv_.num_sequences() != active_.size()) {
    err << kv_.num_sequences() << " live sequences for " << active_.size()
        << " requests";
    return err.str();
  }
  return "";
}

const std::vector<std::int32_t>* Engine::Output(std::int64_t id) const {
  auto it = outputs_.find(id);
  return it == outputs_.end() ? nullptr : &it->second;
}

bool Engine::Release(std::int64_t id) {
  if (active_.contains(id)) return false;
  return outputs_.erase(id) > 0;
}

}  // namespace punica
