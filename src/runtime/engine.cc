#include "runtime/engine.h"

#include <algorithm>
#include <sstream>
#include <tuple>
#include <unordered_map>

#include "util/check.h"

namespace punica {
namespace {

/// The re-prefill chain of a request: prompt followed by the generated
/// tokens that must be recomputed (migration resume).
std::vector<std::int32_t> Chain(std::span<const std::int32_t> prompt,
                                std::span<const std::int32_t> generated,
                                std::int64_t resume) {
  std::vector<std::int32_t> chain(prompt.begin(), prompt.end());
  chain.insert(chain.end(), generated.begin(),
               generated.begin() + static_cast<std::ptrdiff_t>(resume));
  return chain;
}

/// Prefix-index key: the LoRA id leads the token string, because cached
/// K/V bits depend on the adapter (the K/V projections carry per-request
/// LoRA addons) — two tenants sharing literal prompt text share nothing in
/// the cache. Every key carries the tag, so position 0 only ever compares
/// tags against tags.
std::vector<std::int32_t> IndexKey(LoraId lora,
                                   std::span<const std::int32_t> chain) {
  std::vector<std::int32_t> key;
  key.reserve(chain.size() + 1);
  key.push_back(static_cast<std::int32_t>(lora));
  key.insert(key.end(), chain.begin(), chain.end());
  return key;
}

}  // namespace

Engine::Engine(LlamaModel* model, const KvCacheConfig& kv_config,
               EngineConfig config)
    : model_(model), kv_(kv_config), config_(config) {
  PUNICA_CHECK(model_ != nullptr);
  PUNICA_CHECK(config_.max_batch_size > 0);
  PUNICA_CHECK(config_.prefill_limit >= 1);
  PUNICA_CHECK(config_.min_prefix_tokens >= 1);
  PUNICA_CHECK(config_.max_cached_prefixes >= 0);
}

std::int32_t Engine::ResolveEos(std::int32_t spec_eos) const {
  if (spec_eos >= 0 && config_.eos_token >= 0) {
    PUNICA_CHECK_MSG(spec_eos == config_.eos_token,
                     "request and engine disagree on the EOS token");
  }
  return spec_eos >= 0 ? spec_eos : config_.eos_token;
}

std::int64_t Engine::Admit(Slot slot, std::vector<std::int32_t> generated) {
  // Admission-failure audit: every check precedes KvCache mutation, so a
  // failed admission can never leak a sequence or page references. The
  // prefix-cache lookup happens at prefill time (not here): a tenant-mate
  // admitted in the same wave may register the prefix before this slot's
  // prefill runs, and a fork taken now could go stale under eviction.
  PUNICA_CHECK_MSG(CanAdmit(), "working set full; queue at the caller");
  PUNICA_CHECK(!slot.prompt.empty());
  slot.seq = kv_.CreateSequence();
  std::int64_t id = next_id_++;
  outputs_[id] = std::move(generated);
  active_.emplace(id, std::move(slot));
  return id;
}

RequestHandle Engine::AddRequest(const SubmitSpec& spec) {
  PUNICA_CHECK(spec.max_new_tokens >= 1);
  PUNICA_CHECK_MSG(!spec.prompt_tokens.empty(),
                   "the numeric engine needs real prompt tokens");
  Slot slot;
  slot.lora = spec.lora;
  slot.prompt = spec.prompt_tokens;
  slot.max_new_tokens = spec.max_new_tokens;
  slot.eos_token = ResolveEos(spec.eos_token);
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
  // Admit's index lookup covers prompt + generated, so a surviving prefix
  // (registered when this request was evicted here, or by a sibling with
  // the same system prompt) shrinks the rebuild instead of recomputing the
  // whole history.
  return RequestHandle(Admit(std::move(slot), snapshot.generated));
}

SeqId Engine::ForkWholePages(SeqId src, std::int64_t n_tokens) {
  PUNICA_CHECK_MSG(n_tokens % kv_.config().page_size == 0,
                   "engine fork boundary is not page-aligned");
  return kv_.ForkFrom(src, n_tokens);
}

void Engine::RegisterPrefix(const Slot& slot,
                            std::span<const std::int32_t> chain,
                            std::int64_t n_tokens) {
  if (!config_.enable_prefix_cache) return;
  // Whole pages only: the holder then shares no partial tail page, so the
  // request keeps writing its own tail and never copies it.
  // (min_prefix_tokens ≥ 1, so an empty prefix is skipped too.)
  n_tokens -= n_tokens % kv_.config().page_size;
  if (n_tokens < config_.min_prefix_tokens ||
      config_.max_cached_prefixes == 0) {
    return;
  }
  std::vector<std::int32_t> key = IndexKey(
      slot.lora, chain.subspan(0, static_cast<std::size_t>(n_tokens)));
  if (std::optional<std::int64_t> existing = prefix_.FindExact(key)) {
    // Already cached — the hot steady-state path. Touch and stop before
    // any fork (no Retain/Release churn over the prompt's pages) and
    // before any cap eviction (re-registration must not thrash unrelated
    // entries).
    prefix_.Touch(*existing);
    return;
  }
  SeqId holder = ForkWholePages(slot.seq, n_tokens);
  PrefixIndex::InsertResult r = prefix_.Insert(key, holder);
  PUNICA_CHECK(r.inserted);
  ++cache_stats_.insertions;
  // Respect the entry cap (LRU yields; the just-inserted entry carries
  // the freshest stamp, so it is only ever evicted when everything older
  // is pinned).
  while (static_cast<std::int32_t>(prefix_.size()) >
         config_.max_cached_prefixes) {
    if (!EvictOneCachedPrefix()) break;
  }
}

bool Engine::EvictOneCachedPrefix() {
  std::optional<std::int64_t> victim = prefix_.LruVictim();
  if (!victim.has_value()) return false;
  kv_.FreeSequence(prefix_.Erase(*victim));
  ++cache_stats_.evictions;
  return true;
}

bool Engine::TryExtendOrReclaim(SeqId seq, std::int64_t tokens) {
  while (!kv_.Extend(seq, tokens)) {
    if (!EvictOneCachedPrefix()) return false;
  }
  return true;
}

void Engine::ExtendOrReclaim(SeqId seq, std::int64_t tokens) {
  PUNICA_CHECK_MSG(TryExtendOrReclaim(seq, tokens),
                   "KvCache exhausted; migrate requests first");
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
  // The evict half of migration: register the computed chain prefix before
  // releasing it, so a re-admission (AddMigrated, consolidation bounce-back)
  // rebuilds from the surviving prefix instead of re-prefilling everything.
  // Chunk-granular: a mid-prefill slot registers the whole pages its chunks
  // (plus any forked prefix) have written so far — the partial chain a
  // chunked prefill leaves behind is just as rebuildable as a whole one.
  // Never-stepped slots hold nothing.
  if (kv_.SeqLen(slot.seq) > 0) {
    std::vector<std::int32_t> chain =
        Chain(slot.prompt, snap.generated,
              static_cast<std::int64_t>(snap.generated.size()));
    RegisterPrefix(slot, chain, kv_.SeqLen(slot.seq));
  }
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
                      std::map<std::int64_t, ChainMatch>& hits) const {
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
          // The fork the first chunk will take. Pure query; the index
          // cannot change between this plan and the fork inside the same
          // Step, so Step reuses the match verbatim.
          auto [it, fresh] = hits.try_emplace(id);
          if (fresh) {
            it->second = LookupChain(
                slot.lora, slot.prompt,
                std::span(outputs_.at(id))
                    .first(static_cast<std::size_t>(slot.resume_from)));
          }
          p.start = it->second.usable;
        }
        return p;
      });
}

std::int32_t Engine::NewPagesFor(std::int64_t target_len,
                                 std::int64_t held) const {
  // The one growth formula admission (CanAdmitPages,
  // PagesNeededForAdmission), the victim projection (PagesDemanded) and
  // Step's fork+ExtendOrReclaim agree on. Exact because every page an
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

std::int32_t Engine::ReclaimableCachePages(
    std::span<const std::int64_t> keep) const {
  // A page returns to the pool when every reference is dropped; evicting
  // all unpinned entries frees exactly the pages whose references all come
  // from those entries. Entries in `keep` are treated as staying cached —
  // admission and the victim query pass the hits they price, so a hit's
  // own entry never doubles as evictable headroom.
  std::unordered_map<PageId, std::int32_t> entry_refs;
  for (const auto& [id, seq] : prefix_.EvictableEntries()) {
    if (std::find(keep.begin(), keep.end(), id) != keep.end()) continue;
    for (PageId p : kv_.PageTable(seq)) ++entry_refs[p];
  }
  std::int32_t reclaimable = 0;
  for (const auto& [page, refs] : entry_refs) {
    if (kv_.PageRefCount(page) == refs) ++reclaimable;
  }
  return reclaimable;
}

std::int32_t Engine::AvailablePages() const {
  return kv_.free_pages() + ReclaimableCachePages();
}

Engine::ChainMatch Engine::LookupChain(
    LoraId lora, std::span<const std::int32_t> prompt,
    std::span<const std::int32_t> generated) const {
  ChainMatch cm;
  if (!config_.enable_prefix_cache) return cm;
  auto chain_len = static_cast<std::int64_t>(prompt.size()) +
                   static_cast<std::int64_t>(generated.size());
  if (chain_len == 0) return cm;
  // One flat key: LoRA tag + prompt + generated, no intermediate chain
  // copy — this runs per backend per routing decision.
  std::vector<std::int32_t> key;
  key.reserve(static_cast<std::size_t>(chain_len) + 1);
  key.push_back(static_cast<std::int32_t>(lora));
  key.insert(key.end(), prompt.begin(), prompt.end());
  key.insert(key.end(), generated.begin(), generated.end());
  PrefixIndex::Match m = prefix_.Lookup(key);
  // Keep one token to prefill for the logits, then round down to a page
  // boundary: a fork shares whole pages only.
  std::int64_t usable = std::min(m.matched_tokens - 1, chain_len - 1);
  usable -= usable % kv_.config().page_size;
  if (usable < config_.min_prefix_tokens) return cm;
  cm.entry = m.entry;
  cm.seq = m.seq;
  cm.usable = usable;
  return cm;
}

std::int64_t Engine::PrefixHitTokens(
    LoraId lora, std::span<const std::int32_t> prompt,
    std::span<const std::int32_t> generated) const {
  return LookupChain(lora, prompt, generated).usable;
}

std::int32_t Engine::PagesNeededForAdmission(
    LoraId lora, std::span<const std::int32_t> prompt,
    std::span<const std::int32_t> generated) const {
  auto chain_len = static_cast<std::int64_t>(prompt.size()) +
                   static_cast<std::int64_t>(generated.size());
  // Re-prefill chain plus one decode slot, net of the aliased prefix.
  return NewPagesFor(chain_len + 1,
                     LookupChain(lora, prompt, generated).usable);
}

bool Engine::CanAdmitPages(LoraId lora,
                           std::span<const std::int32_t> prompt,
                           std::span<const std::int32_t> generated) const {
  auto chain_len = static_cast<std::int64_t>(prompt.size()) +
                   static_cast<std::int64_t>(generated.size());
  ChainMatch cm = LookupChain(lora, prompt, generated);
  std::int32_t pages = NewPagesFor(chain_len + 1, cm.usable);
  // The hit nets out the aliased pages on the assumption that its entry
  // stays cached — so that same entry must not be counted as reclaimable
  // headroom (double-counting admits infeasible requests, which then
  // bounce through the migration path forever).
  return pages <= kv_.free_pages() +
                      ReclaimableCachePages(std::span(&cm.entry, 1));
}

PrefixCacheStats Engine::prefix_cache_stats() const {
  PrefixCacheStats s = cache_stats_;
  s.cached_entries = static_cast<std::int64_t>(prefix_.size());
  // Every index key leads with its LoRA tag, which is not a cached token.
  s.cached_tokens = prefix_.cached_tokens() - s.cached_entries;
  s.pages_in_use = kv_.used_pages();
  s.shared_pages = kv_.shared_pages();
  s.free_pages = kv_.free_pages();
  return s;
}

std::vector<std::int64_t> Engine::SelectEvictionVictims() const {
  // Page-granular accounting for the shared victim loop: a plan demands
  // its chunks' pages (only the next chunk — prefill is NOT atomic) plus
  // each decode's growth. Pages reclaimable from the prefix cache count as
  // headroom — Step evicts cached prefixes on demand before any request
  // must migrate — except the entries the plan's first chunks fork: Step
  // pins those, so their pages cannot be reclaimed that step. A cancel
  // frees the victim's exclusively held pages; shared pages stay with
  // their other holders (at worst becoming cache-reclaimable, which this
  // projection conservatively ignores).
  std::vector<PlanSlot> slots = PlanSlots();
  std::map<std::int64_t, ChainMatch> hits;
  return SelectVictims(
      slots, EvictPolicy::kNewest,
      [&](std::span<const std::int64_t> exclude) {
        return Plan(slots, exclude, hits);
      },
      [&](const StepPlan& plan) { return PagesDemanded(plan); },
      [&](const StepPlan& plan) {
        std::vector<std::int64_t> forked;
        for (const PlannedPrefill& p : plan.prefills) {
          if (p.first_chunk && p.chunk > 0) {
            forked.push_back(hits.at(p.id).entry);
          }
        }
        return kv_.free_pages() + ReclaimableCachePages(forked);
      },
      [&](std::int64_t id) {
        SeqId seq = active_.at(id).seq;
        std::int32_t pages = 0;
        for (std::int32_t i = 0; i < kv_.SeqPages(seq); ++i) {
          if (kv_.PageRefCount(seq, i) == 1) ++pages;
        }
        return pages;
      });
}

StepResult Engine::Step() {
  StepResult result;
  if (active_.empty()) return result;

  // The one step plan SelectEvictionVictims projects page demand for:
  // up to prefill_limit prefills (FCFS), chunked by max_step_tokens, plus
  // all decodes. Budget-deferred prefills (chunk 0) sit this step out.
  std::map<std::int64_t, ChainMatch> hits;
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
  // any ExtendOrReclaim runs: forking is refcount-only (never allocates),
  // and once a slot holds its aliased pages, reclaim-eviction of the
  // source entry cannot change the slot's page demand — so the demand
  // SelectEvictionVictims projected stays exactly the demand this step
  // realizes. (Resolving lazily instead would let an earlier prefill's
  // reclaim evict an entry a later prefill was projected to hit, aborting
  // in a state the victim query declared safe.) Hits resolve at prefill
  // time, not admission: a tenant-mate admitted in the same wave has
  // registered its prompt by now. Later chunks resume the fork taken here.
  std::vector<std::int64_t> pinned_entries;
  for (PrefillWork& pw : prefills) {
    if (!pw.planned.first_chunk || !config_.enable_prefix_cache) continue;
    Slot* slot = pw.slot;
    ++cache_stats_.lookups;
    // The match resolved at plan time IS the fork taken — nothing touched
    // the index between the plan and here.
    const ChainMatch& cm = hits.at(pw.planned.id);
    if (cm.entry >= 0) {
      kv_.FreeSequence(slot->seq);
      slot->seq = ForkWholePages(cm.seq, cm.usable);
      slot->prefix_cached = cm.usable;
      prefix_.Touch(cm.entry);
      // Pin the source for the rest of this step: page refcounts already
      // keep the forked K/V alive, but pinning stops ExtendOrReclaim in
      // this same batch from evicting an entry that is demonstrably hot.
      prefix_.Pin(cm.entry);
      pinned_entries.push_back(cm.entry);
      ++cache_stats_.hits;
      cache_stats_.hit_tokens += cm.usable;
      // Credit the skip at the fork, where it is realized — a first chunk
      // deferred by pool drift after forking still reported its hit.
      result.prefix_hit_tokens += static_cast<int>(cm.usable);
    }
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
    // projection and this step: cancelling a victim REGISTERS its chain,
    // and a planned prefill hitting that fresh entry redistributes the
    // budget to later prefills — demanding pages the projection never
    // counted. Chunk boundaries never change bits, so shrink the chunk to
    // what the pool actually holds (halving keeps the probe logarithmic)
    // and defer the prefill entirely when not even one token fits.
    std::int64_t chunk = pw.planned.chunk;
    while (chunk > 0 && !TryExtendOrReclaim(slot->seq, chunk)) {
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
    // A decode must run — if its one token cannot fit even with an empty
    // cache, the engine is genuinely over-committed and the caller failed
    // to migrate first.
    ExtendOrReclaim(slot->seq, 1);
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
    if (was_prefill) {
      slot->needs_prefill = false;
      // A prefill that missed makes its prompt's whole pages discoverable
      // for the next tenant-mate (a refcount alias, no copy). A hit already
      // found its trunk cached; its suffix is private, so registering it
      // would only pin pages no later request can hit. GpuRunner applies
      // the same rule.
      if (slot->prefix_cached == 0) {
        RegisterPrefix(*slot, slot->prompt,
                       static_cast<std::int64_t>(slot->prompt.size()));
      }
    }
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
  for (std::int64_t entry : pinned_entries) prefix_.Unpin(entry);
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
  prefix_.ForEachEntry([&](std::int64_t entry, SeqId seq,
                           std::int64_t key_len) {
    // The key leads with the LoRA tag; the holder covers the rest.
    if (err.tellp() > 0) return;
    if (!kv_.Contains(seq)) {
      err << "prefix entry " << entry << " holds freed sequence " << seq;
    } else if (kv_.SeqLen(seq) != key_len - 1) {
      err << "prefix entry " << entry << " caches " << key_len - 1
          << " tokens on a " << kv_.SeqLen(seq) << "-token holder";
    } else if (kv_.SeqLen(seq) % kv_.config().page_size != 0) {
      err << "prefix entry " << entry << " caches " << key_len - 1
          << " tokens, not whole pages";
    }
  });
  if (err.tellp() > 0) return err.str();
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
  if (kv_.num_sequences() != active_.size() + prefix_.size()) {
    err << kv_.num_sequences() << " live sequences for " << active_.size()
        << " requests and " << prefix_.size() << " cached prefixes";
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
