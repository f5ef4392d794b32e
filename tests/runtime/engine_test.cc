#include "runtime/engine.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "model/llama.h"

namespace punica {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : model_(TinyLlama(), 99) {
    model_.AddLora(0, 8, 1);
    model_.AddLora(1, 8, 2);
  }

  Engine MakeEngine(int max_batch = 4, int prefill_limit = 1,
                    int page_size = 16) {
    EngineConfig cfg;
    cfg.max_batch_size = max_batch;
    cfg.prefill_limit = prefill_limit;
    return Engine(&model_, model_.MakeKvConfig(256, page_size), cfg);
  }

  /// One Step, then the engine's invariant audit (KvCache pages and page
  /// keys, per-request KV progress).
  static StepResult StepAudited(Engine& e) {
    StepResult r = e.Step();
    EXPECT_EQ(e.AuditInvariants(), "");
    return r;
  }
  static void DrainAudited(Engine& e) {
    while (e.HasWork()) StepAudited(e);
  }

  LlamaModel model_;
};

TEST_F(EngineTest, EmptyEngineNoWork) {
  Engine e = MakeEngine();
  EXPECT_FALSE(e.HasWork());
  EXPECT_TRUE(e.CanAdmit());
  EXPECT_EQ(e.working_set_size(), 0);
  auto r = e.Step();
  EXPECT_EQ(r.batch_size, 0);
  EXPECT_TRUE(r.emitted.empty());
}

TEST_F(EngineTest, PrefillEmitsFirstToken) {
  Engine e = MakeEngine();
  RequestHandle id = e.AddRequest(
      {.lora = 0, .prompt_tokens = {1, 2, 3}, .max_new_tokens = 5});
  EXPECT_TRUE(id.valid());
  auto r = e.Step();
  EXPECT_EQ(r.batch_size, 1);
  EXPECT_EQ(r.prefill_requests, 1);
  EXPECT_EQ(r.prefill_tokens, 3);
  ASSERT_EQ(r.emitted.size(), 1u);
  EXPECT_EQ(r.emitted[0].request_id, id.id());
  EXPECT_EQ(e.Output(id)->size(), 1u);
  EXPECT_EQ(e.Output(id)->front(), r.emitted[0].token);
}

TEST_F(EngineTest, PrefillLimitRespected) {
  Engine e = MakeEngine(4, 2);
  e.AddRequest({.lora = 0, .prompt_tokens = {1}, .max_new_tokens = 4});
  e.AddRequest({.lora = 0, .prompt_tokens = {2}, .max_new_tokens = 4});
  e.AddRequest({.lora = 1, .prompt_tokens = {3}, .max_new_tokens = 4});
  auto r = e.Step();
  EXPECT_EQ(r.prefill_requests, 2);  // limit 2
  EXPECT_EQ(r.batch_size, 2);
  auto r2 = e.Step();
  EXPECT_EQ(r2.prefill_requests, 1);
  EXPECT_EQ(r2.batch_size, 3);
}

TEST_F(EngineTest, OutputOfUnknownIdIsNull) {
  Engine e = MakeEngine();
  EXPECT_EQ(e.Output(123), nullptr);
  EXPECT_EQ(e.Output(RequestHandle()), nullptr);
}

TEST_F(EngineTest, OutputsPersistAfterFinish) {
  Engine e = MakeEngine();
  RequestHandle id =
      e.AddRequest({.lora = 0, .prompt_tokens = {9}, .max_new_tokens = 3});
  while (e.HasWork()) e.Step();
  ASSERT_NE(e.Output(id), nullptr);
  EXPECT_EQ(e.Output(id)->size(), 3u);
}

TEST_F(EngineTest, ReleaseErasesEndedRecordsAndRefusesActiveOnes) {
  Engine e = MakeEngine();
  RequestHandle done =
      e.AddRequest({.lora = 0, .prompt_tokens = {9}, .max_new_tokens = 1});
  RequestHandle live =
      e.AddRequest({.lora = 1, .prompt_tokens = {4, 2}, .max_new_tokens = 8});
  RequestHandle cancelled =
      e.AddRequest({.lora = 0, .prompt_tokens = {3}, .max_new_tokens = 8});
  StepAudited(e);  // done's prefill finishes it
  ASSERT_TRUE(e.Cancel(cancelled).has_value());
  EXPECT_FALSE(e.Release(live.id()));  // an active record is live state
  EXPECT_NE(e.Output(live), nullptr);
  EXPECT_TRUE(e.Release(done.id()));
  EXPECT_TRUE(e.Release(cancelled.id()));
  EXPECT_EQ(e.Output(done), nullptr);
  EXPECT_EQ(e.Output(cancelled), nullptr);
  EXPECT_FALSE(e.Release(done.id()));  // already gone
  EXPECT_FALSE(e.Release(123));
  DrainAudited(e);
  EXPECT_EQ(e.Output(live)->size(), 8u);
}

TEST_F(EngineTest, SameLoraRequestsShareOneSegment) {
  Engine e = MakeEngine(4);
  e.AddRequest({.lora = 0, .prompt_tokens = {1}, .max_new_tokens = 8});
  e.AddRequest({.lora = 0, .prompt_tokens = {2}, .max_new_tokens = 8});
  e.AddRequest({.lora = 0, .prompt_tokens = {3}, .max_new_tokens = 8});
  for (int i = 0; i < 3; ++i) e.Step();  // drain prefills
  auto r = e.Step();
  EXPECT_EQ(r.batch_size, 3);
  EXPECT_EQ(r.num_segments, 1);  // all rows share lora 0
}

TEST_F(EngineTest, BackboneRowsExcludedFromLoraSegments) {
  Engine e = MakeEngine(4);
  e.AddRequest({.lora = -1, .prompt_tokens = {1}, .max_new_tokens = 8});
  e.AddRequest({.lora = 0, .prompt_tokens = {2}, .max_new_tokens = 8});
  for (int i = 0; i < 2; ++i) e.Step();
  auto r = e.Step();
  EXPECT_EQ(r.batch_size, 2);
  // Two segments in the token ordering (backbone id -1 and lora 0); the
  // backbone segment carries no adapter.
  EXPECT_EQ(r.num_segments, 2);
}

TEST_F(EngineTest, PrefillTailSharesSegmentWithDecodeHead) {
  // Paper §6: "The tail of Prefill requests and the head of Decode requests
  // can share a LoRA model if possible."
  Engine e = MakeEngine(4);
  e.AddRequest({.lora = 1, .prompt_tokens = {1, 2}, .max_new_tokens = 8});
  e.Step();  // prefilled, now decoding with lora 1
  // Same lora, needs prefill.
  e.AddRequest({.lora = 1, .prompt_tokens = {3, 4}, .max_new_tokens = 8});
  auto r = e.Step();  // prefill(lora 1) + decode(lora 1)
  EXPECT_EQ(r.batch_size, 2);
  EXPECT_EQ(r.prefill_requests, 1);
  EXPECT_EQ(r.num_segments, 1);  // shared segment across the boundary
}

TEST_F(EngineTest, CancelFreesCapacity) {
  Engine e = MakeEngine(2);
  RequestHandle a =
      e.AddRequest({.lora = 0, .prompt_tokens = {1}, .max_new_tokens = 50});
  e.AddRequest({.lora = 1, .prompt_tokens = {2}, .max_new_tokens = 50});
  EXPECT_FALSE(e.CanAdmit());
  auto snap = e.Cancel(a);
  ASSERT_TRUE(snap.has_value());
  EXPECT_TRUE(e.CanAdmit());
  EXPECT_EQ(e.working_set_size(), 1);
}

TEST_F(EngineTest, StepAfterAllCancelledIsEmpty) {
  Engine e = MakeEngine();
  RequestHandle a =
      e.AddRequest({.lora = 0, .prompt_tokens = {1}, .max_new_tokens = 5});
  e.Cancel(a);
  EXPECT_FALSE(e.HasWork());
  auto r = e.Step();
  EXPECT_EQ(r.batch_size, 0);
}

TEST_F(EngineTest, ManyShortRequestsAllFinish) {
  Engine e = MakeEngine(4);
  std::vector<RequestHandle> ids;
  int finished = 0;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(e.AddRequest({.lora = i % 2,
                                .prompt_tokens = {i + 1},
                                .max_new_tokens = 2 + i}));
  }
  while (e.HasWork()) {
    finished += static_cast<int>(e.Step().finished.size());
  }
  EXPECT_EQ(finished, 4);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(e.Output(ids[i])->size(), 2 + i);
  }
}

TEST_F(EngineTest, EmittedTokensMatchOutputs) {
  Engine e = MakeEngine(3);
  RequestHandle a =
      e.AddRequest({.lora = 0, .prompt_tokens = {5, 6}, .max_new_tokens = 4});
  RequestHandle b =
      e.AddRequest({.lora = 1, .prompt_tokens = {7}, .max_new_tokens = 4});
  std::map<std::int64_t, std::vector<std::int32_t>> streamed;
  while (e.HasWork()) {
    for (auto [id, tok] : e.Step().emitted) {
      streamed[id].push_back(tok);
    }
  }
  EXPECT_EQ(streamed[a.id()], *e.Output(a));
  EXPECT_EQ(streamed[b.id()], *e.Output(b));
}

TEST_F(EngineTest, PerRequestEosStopsEarly) {
  // Find what the model emits unconstrained, then resubmit with the first
  // token that differs from the opener (streams may repeat a token) as a
  // per-request EOS: generation must stop right there.
  Engine free_engine = MakeEngine();
  RequestHandle free_id = free_engine.AddRequest(
      {.lora = 0, .prompt_tokens = {7, 7}, .max_new_tokens = 6});
  while (free_engine.HasWork()) free_engine.Step();
  const std::vector<std::int32_t>& free_run = *free_engine.Output(free_id);
  std::size_t stop_at = 1;
  while (stop_at < free_run.size() && free_run[stop_at] == free_run[0]) {
    ++stop_at;
  }
  ASSERT_LT(stop_at, free_run.size());
  std::int32_t stop = free_run[stop_at];

  Engine e = MakeEngine();
  RequestHandle id = e.AddRequest({.lora = 0,
                                   .prompt_tokens = {7, 7},
                                   .max_new_tokens = 6,
                                   .eos_token = stop});
  while (e.HasWork()) e.Step();
  EXPECT_EQ(e.Output(id)->size(), stop_at + 1);
  EXPECT_EQ(e.Output(id)->back(), stop);
}

TEST_F(EngineTest, SpecEosMustAgreeWithEngineEos) {
  EngineConfig cfg;
  cfg.max_batch_size = 2;
  cfg.eos_token = 42;
  Engine e(&model_, model_.MakeKvConfig(64), cfg);
  // Matching spec EOS is fine; a conflicting one aborts.
  e.AddRequest({.lora = 0,
                .prompt_tokens = {1},
                .max_new_tokens = 2,
                .eos_token = 42});
  EXPECT_DEATH(e.AddRequest({.lora = 0,
                             .prompt_tokens = {2},
                             .max_new_tokens = 2,
                             .eos_token = 7}),
               "disagree on the EOS");
}

TEST_F(EngineTest, SnapshotCarriesResolvedEos) {
  EngineConfig cfg;
  cfg.max_batch_size = 2;
  cfg.eos_token = 42;
  Engine e(&model_, model_.MakeKvConfig(64), cfg);
  RequestHandle id =
      e.AddRequest({.lora = 0, .prompt_tokens = {1, 2}, .max_new_tokens = 9});
  e.Step();
  auto snap = e.Cancel(id);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->eos_token, 42);  // engine-wide default was resolved in

  // A destination with a different engine-wide EOS must refuse the
  // migration instead of silently changing the stop condition.
  EngineConfig other;
  other.max_batch_size = 2;
  other.eos_token = 7;
  Engine dest(&model_, model_.MakeKvConfig(64), other);
  EXPECT_DEATH(dest.AddMigrated(*snap), "changed the EOS");
}

TEST_F(EngineTest, DISABLED_KvExhaustionAborts) {
  // Documented behaviour: the engine aborts rather than silently dropping
  // tokens when the cache is exhausted (callers must migrate first). Kept
  // disabled by default because death tests on large state are slow.
  Engine tiny(&model_, model_.MakeKvConfig(1), EngineConfig{});
  tiny.AddRequest(
      {.lora = 0, .prompt_tokens = {1, 2, 3}, .max_new_tokens = 100});
  EXPECT_DEATH({
    while (tiny.HasWork()) tiny.Step();
  }, "KvCache exhausted");
}

TEST_F(EngineTest, EvictionVictimQueryNewestFirst) {
  // Tight cache: page demand of the planned step exceeds the free pool, so
  // the newest request must be named as the victim.
  Engine e(&model_, model_.MakeKvConfig(/*num_pages=*/3, /*page_size=*/4),
           EngineConfig{.max_batch_size = 4});
  RequestHandle a = e.AddRequest(
      {.lora = 0, .prompt_tokens = {1, 2, 3, 4, 5, 6}, .max_new_tokens = 20});
  e.Step();  // a holds 2 pages (6 tokens), decodes grow it
  EXPECT_TRUE(e.SelectEvictionVictims().empty());
  RequestHandle b = e.AddRequest(
      {.lora = 0, .prompt_tokens = {9, 9, 9, 9, 9}, .max_new_tokens = 20});
  // b's prefill needs 2 pages; only 1 is free → b (newest) is the victim.
  auto victims = e.SelectEvictionVictims();
  ASSERT_FALSE(victims.empty());
  EXPECT_EQ(victims[0], b.id());
  EXPECT_NE(victims[0], a.id());
}

// --- Shared-prefix KV cache ---

TEST_F(EngineTest, SharedPromptSecondRequestPrefillsOnlySuffix) {
  Engine e = MakeEngine(4, 1, /*page_size=*/4);
  const std::vector<std::int32_t> sys = {7,  8,  9,  10, 11, 12, 13,
                                         14, 15, 16, 17, 18, 19};
  RequestHandle a =
      e.AddRequest({.lora = 0, .prompt_tokens = sys, .max_new_tokens = 3});
  DrainAudited(e);
  std::vector<std::int32_t> expected = *e.Output(a);

  // Same tenant prompt again: the prefill must alias the cached prefix and
  // compute only the final token row (≥ 50% prefill-token reduction — the
  // 13-token prompt cached its 3 whole pages, so 12 of 13 tokens are
  // served from cache).
  RequestHandle b =
      e.AddRequest({.lora = 0, .prompt_tokens = sys, .max_new_tokens = 3});
  auto r = StepAudited(e);
  EXPECT_EQ(r.prefill_requests, 1);
  EXPECT_EQ(r.prefill_tokens, 1);
  EXPECT_EQ(r.prefix_hit_tokens, 12);
  DrainAudited(e);
  // Bit-identical to the cold run — cached K/V are exactly the bits a cold
  // prefill would have written.
  EXPECT_EQ(*e.Output(b), expected);

  PrefixCacheStats s = e.prefix_cache_stats();
  EXPECT_EQ(s.lookups, 2);
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.hit_tokens, 12);
  // a keyed its 3 full prompt pages; b forked them, and its own tail page
  // never filled.
  EXPECT_EQ(s.insertions, 3);
  EXPECT_GT(s.TokenSaveRate(), 0.4);
}

TEST_F(EngineTest, HitSuffixPagesStayCachedBesideTheTrunk) {
  // Every full page is keyed, a hit's private suffix too: after the
  // tenant-mates finish, the cache holds the trunk's 2 pages plus one
  // full suffix page per mate, all reclaimable.
  const std::vector<std::int32_t> sys = {7, 8, 9, 10, 11, 12, 13, 14};
  auto mate = [&](std::int32_t first) {
    std::vector<std::int32_t> p = sys;
    for (std::int32_t t = first; t < first + 5; ++t) p.push_back(t);
    return p;
  };
  const std::vector<std::vector<std::int32_t>> mates = {mate(30), mate(40),
                                                        mate(50)};
  auto run = [&](bool enable) {
    EngineConfig cfg;
    cfg.max_batch_size = 4;
    cfg.enable_prefix_cache = enable;
    Engine e(&model_, model_.MakeKvConfig(256, /*page_size=*/4), cfg);
    e.AddRequest({.lora = 0, .prompt_tokens = sys, .max_new_tokens = 2});
    DrainAudited(e);  // cold: keys the 8-token system prompt
    std::vector<RequestHandle> ids;
    for (const auto& p : mates) {
      ids.push_back(
          e.AddRequest({.lora = 0, .prompt_tokens = p, .max_new_tokens = 3}));
    }
    for (std::size_t i = 0; i < mates.size(); ++i) {
      StepResult r = StepAudited(e);  // prefill_limit 1: one mate per step
      EXPECT_EQ(r.prefill_requests, 1);
      EXPECT_EQ(r.prefix_hit_tokens, enable ? 8 : 0);
      EXPECT_EQ(r.prefill_tokens, enable ? 5 : 13);
    }
    DrainAudited(e);
    std::vector<std::vector<std::int32_t>> outs;
    for (auto id : ids) outs.push_back(*e.Output(id));
    if (enable) {
      PrefixCacheStats s = e.prefix_cache_stats();
      EXPECT_EQ(s.hits, 3);
      EXPECT_EQ(s.hit_tokens, 24);
      EXPECT_EQ(s.insertions, 5);
      EXPECT_EQ(s.cached_entries, 5);
      EXPECT_EQ(s.cached_tokens, 20);
      EXPECT_EQ(s.evictions, 0);
      EXPECT_EQ(s.pages_in_use, 5);  // cached pages, all reclaimable
      EXPECT_EQ(e.AvailablePages(), 256);
      EXPECT_EQ(s.shared_pages, 0);
    }
    return outs;
  };
  EXPECT_EQ(run(true), run(false));
}

TEST_F(EngineTest, CancelAfterHitKeepsChainCachedForRebuild) {
  // A hit's own pages are keyed as they fill, prefill and decode alike, so
  // after its Cancel (the migration evict) the rebuild still skips every
  // whole page it had computed.
  const std::vector<std::int32_t> sys = {7, 8, 9, 10, 11, 12, 13, 14};
  const std::vector<std::int32_t> prompt = {7,  8,  9,  10, 11, 12, 13,
                                            14, 60, 61, 62, 63, 64};
  Engine ref = MakeEngine(4, 1, /*page_size=*/4);
  RequestHandle r0 = ref.AddRequest(
      {.lora = 0, .prompt_tokens = prompt, .max_new_tokens = 10});
  DrainAudited(ref);
  const std::vector<std::int32_t> expected = *ref.Output(r0);

  Engine e = MakeEngine(4, 1, /*page_size=*/4);
  e.AddRequest({.lora = 0, .prompt_tokens = sys, .max_new_tokens = 1});
  DrainAudited(e);  // cold: keys the system prompt
  RequestHandle id = e.AddRequest(
      {.lora = 0, .prompt_tokens = prompt, .max_new_tokens = 10});
  StepResult r = StepAudited(e);  // hit prefill: 5 suffix tokens
  EXPECT_EQ(r.prefix_hit_tokens, 8);
  EXPECT_EQ(r.prefill_tokens, 5);
  // The trunk's 2 pages, and the suffix page the prefill filled.
  EXPECT_EQ(e.prefix_cache_stats().insertions, 3);
  for (int i = 0; i < 4; ++i) StepAudited(e);  // 4 decodes
  auto snap = e.Cancel(id);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(e.AuditInvariants(), "");
  ASSERT_EQ(snap->generated.size(), 5u);
  // The sequence held prompt (13) + 4 decoded positions = 17 tokens; the
  // decode that filled the fourth page keyed it.
  PrefixCacheStats s = e.prefix_cache_stats();
  EXPECT_EQ(s.insertions, 4);
  EXPECT_EQ(s.cached_tokens, 16);

  // The 18-token rebuild chain hits all 16 cached tokens and prefills the
  // other 2.
  RequestHandle back = e.AddMigrated(*snap);
  r = StepAudited(e);
  EXPECT_EQ(r.prefix_hit_tokens, 16);
  EXPECT_EQ(r.prefill_tokens, 2);
  DrainAudited(e);
  EXPECT_EQ(*e.Output(back), expected);
}

TEST_F(EngineTest, KeyingCachesWholePagesAndDecodeCopiesNothing) {
  // One full page plus two tokens: only the full page is keyed, so the
  // partial tail stays the request's own and its decode writes there
  // without a copy-on-write page. A keyed page holds no extra reference.
  Engine e = MakeEngine(4, 1, /*page_size=*/4);
  e.AddRequest({.lora = 0,
                .prompt_tokens = {1, 2, 3, 4, 5, 6},
                .max_new_tokens = 4});
  StepAudited(e);  // prefill: 6 tokens on 2 pages
  PrefixCacheStats s = e.prefix_cache_stats();
  EXPECT_EQ(s.cached_entries, 1);
  EXPECT_EQ(s.cached_tokens, 4);
  EXPECT_EQ(s.shared_pages, 0);
  EXPECT_EQ(s.pages_in_use, 2);
  StepAudited(e);  // decode: token 7 fills the request's own tail page
  s = e.prefix_cache_stats();
  EXPECT_EQ(s.shared_pages, 0);
  EXPECT_EQ(s.pages_in_use, 2);
}

TEST_F(EngineTest, PrefixHitMidBatchMatchesColdEngine) {
  // Hits with other requests in flight: the batch mixes a suffix-prefill
  // with decodes. Streams must equal a cache-disabled engine's.
  auto run = [&](bool enable) {
    EngineConfig cfg;
    cfg.max_batch_size = 4;
    cfg.enable_prefix_cache = enable;
    Engine e(&model_, model_.MakeKvConfig(256, /*page_size=*/4), cfg);
    std::vector<RequestHandle> ids;
    ids.push_back(e.AddRequest({.lora = 0,
                                .prompt_tokens = {5, 5, 5, 5, 5, 5, 5, 5},
                                .max_new_tokens = 8}));
    ids.push_back(e.AddRequest(
        {.lora = 1, .prompt_tokens = {9, 1, 9}, .max_new_tokens = 6}));
    StepAudited(e);
    StepAudited(e);
    // Same tenant prompt as the first request, admitted mid-flight.
    ids.push_back(e.AddRequest({.lora = 0,
                                .prompt_tokens = {5, 5, 5, 5, 5, 5, 5, 5},
                                .max_new_tokens = 8}));
    DrainAudited(e);
    // The 8-token prompt is cached whole (2 pages); keeping one token for
    // the logits rounds the hit down to 1 page.
    EXPECT_EQ(e.prefix_cache_stats().hit_tokens, enable ? 4 : 0);
    std::vector<std::vector<std::int32_t>> outs;
    for (auto id : ids) outs.push_back(*e.Output(id));
    return outs;
  };
  EXPECT_EQ(run(true), run(false));
}

TEST_F(EngineTest, CancelKeepsChainCachedForCheapMigrationRebuild) {
  const std::vector<std::int32_t> prompt = {3, 1, 4, 1, 5, 9, 2, 6};
  // Uninterrupted reference.
  Engine ref = MakeEngine();
  RequestHandle r0 = ref.AddRequest(
      {.lora = 0, .prompt_tokens = prompt, .max_new_tokens = 10});
  while (ref.HasWork()) ref.Step();
  std::vector<std::int32_t> expected = *ref.Output(r0);

  Engine e = MakeEngine(4, 1, /*page_size=*/4);
  RequestHandle id = e.AddRequest(
      {.lora = 0, .prompt_tokens = prompt, .max_new_tokens = 10});
  for (int i = 0; i < 5; ++i) StepAudited(e);  // prefill + 4 decodes
  auto snap = e.Cancel(id);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->generated.size(), 5u);
  EXPECT_EQ(e.AuditInvariants(), "");

  // The evicted chain stays cached: the rebuild prefills one token instead
  // of prompt + generated.
  RequestHandle back = e.AddMigrated(*snap);
  auto r = StepAudited(e);
  EXPECT_EQ(r.prefill_tokens, 1);
  // The cancelled sequence covered prompt (8) + 4 decoded positions = 12
  // tokens, 3 whole pages; the 13-token rebuild chain hits all of them.
  EXPECT_EQ(r.prefix_hit_tokens, 12);
  DrainAudited(e);
  EXPECT_EQ(*e.Output(back), expected);
}

TEST_F(EngineTest, RepeatedAlignedPromptKeepsKeyingPastItsDuplicatePage) {
  // Keep-one-token makes an exact repeat of a page-aligned prompt recompute
  // its last page, a duplicate of the cached copy. The repeat swaps the
  // cached page in and keeps keying, so a cancel after it decodes past a
  // page leaves the decoded page cached for the rebuild.
  const std::vector<std::int32_t> prompt = {3, 1, 4, 1, 5, 9, 2, 6};
  Engine ref = MakeEngine(4, 1, /*page_size=*/4);
  RequestHandle r0 = ref.AddRequest(
      {.lora = 0, .prompt_tokens = prompt, .max_new_tokens = 10});
  while (ref.HasWork()) ref.Step();
  const std::vector<std::int32_t> expected = *ref.Output(r0);

  Engine e = MakeEngine(4, 1, /*page_size=*/4);
  // The first run's decode leaves a touched free page, which the repeat's
  // recompute takes before it would reclaim the stale cached copy.
  e.AddRequest({.lora = 0, .prompt_tokens = prompt, .max_new_tokens = 2});
  DrainAudited(e);
  ASSERT_EQ(e.prefix_cache_stats().insertions, 2);
  RequestHandle id = e.AddRequest(
      {.lora = 0, .prompt_tokens = prompt, .max_new_tokens = 10});
  StepResult first = StepAudited(e);
  EXPECT_EQ(first.prefix_hit_tokens, 4);  // all but the last page
  EXPECT_EQ(first.prefill_tokens, 4);
  // The recomputed page went back to the pool: the repeat holds the two
  // cached prompt pages.
  EXPECT_EQ(e.prefix_cache_stats().pages_in_use, 2);
  EXPECT_EQ(e.prefix_cache_stats().insertions, 2);
  for (int i = 0; i < 5; ++i) StepAudited(e);  // 5 decodes
  auto snap = e.Cancel(id);
  ASSERT_TRUE(snap.has_value());
  ASSERT_EQ(snap->generated.size(), 6u);
  // The cancelled sequence covered prompt (8) + 5 decoded positions = 13
  // tokens; its third page, filled by decodes, was keyed.
  EXPECT_EQ(e.prefix_cache_stats().insertions, 3);
  RequestHandle back = e.AddMigrated(*snap);
  StepResult r = StepAudited(e);
  EXPECT_EQ(r.prefix_hit_tokens, 12);
  EXPECT_EQ(r.prefill_tokens, 2);
  DrainAudited(e);
  EXPECT_EQ(*e.Output(back), expected);
}

TEST_F(EngineTest, CacheYieldsUnderPagePressureInsteadOfAborting) {
  // Pool sized so that cached pages must be reclaimed to run the second
  // request — allocation reclaims them instead of aborting or naming
  // migration victims.
  Engine e(&model_, model_.MakeKvConfig(/*num_pages=*/6, /*page_size=*/4),
           EngineConfig{.max_batch_size = 2});
  RequestHandle a = e.AddRequest({.lora = 0,
                                  .prompt_tokens = {1, 2, 3, 4, 5, 6, 7, 8},
                                  .max_new_tokens = 4});
  DrainAudited(e);
  EXPECT_GT(e.prefix_cache_stats().cached_entries, 0);

  RequestHandle b = e.AddRequest(
      {.lora = 1,
       .prompt_tokens = {21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32,
                         33, 34, 35, 36},
       .max_new_tokens = 6});
  DrainAudited(e);
  ASSERT_NE(e.Output(b), nullptr);
  EXPECT_EQ(e.Output(b)->size(), 6u);
  EXPECT_GT(e.prefix_cache_stats().evictions, 0);
  (void)a;
}

TEST_F(EngineTest, AdmissionFailurePathsLeakNothing) {
  // The admission-failure audit: every admission-path check fires before
  // any KvCache mutation, so cancel-after-admit always restores the pool
  // regardless of fork/cold path, and a full working set never strands
  // pages.
  Engine e(&model_, model_.MakeKvConfig(64, 4),
           EngineConfig{.max_batch_size = 2});
  std::int32_t before = e.AvailablePages();
  RequestHandle a = e.AddRequest({.lora = 0,
                                  .prompt_tokens = {1, 2, 3, 4, 5, 6},
                                  .max_new_tokens = 8});
  StepAudited(e);
  // Admit a fork-path request (hits a's keyed prompt page), then cancel it
  // before its prefill ever runs.
  RequestHandle b = e.AddRequest({.lora = 0,
                                  .prompt_tokens = {1, 2, 3, 4, 5, 6},
                                  .max_new_tokens = 8});
  EXPECT_FALSE(e.CanAdmit());  // working set full — callers must queue
  auto snap = e.Cancel(b);
  ASSERT_TRUE(snap.has_value());
  EXPECT_TRUE(snap->generated.empty());
  auto snap_a = e.Cancel(a);
  ASSERT_TRUE(snap_a.has_value());
  EXPECT_EQ(e.AuditInvariants(), "");
  // All request references released; whatever the cache retains is
  // reclaimable.
  EXPECT_EQ(e.AvailablePages(), before);
}

TEST_F(EngineTest, AddRequestRefusesWhatItCannotServe) {
  // An unregistered adapter, a token outside [0, vocab) and a full working
  // set each get an invalid handle, with no request, KvCache page or
  // adapter draw left behind; the requests already admitted run on.
  Engine e = MakeEngine(/*max_batch=*/2);
  const std::int32_t vocab = model_.config().vocab_size;
  RequestHandle a = e.AddRequest(
      {.lora = 0, .prompt_tokens = {1, 2, 3}, .max_new_tokens = 4});
  ASSERT_TRUE(a.valid());
  StepAudited(e);
  const std::int32_t pages = e.AvailablePages();
  const std::size_t lora_bytes = model_.lora_bytes();
  const SubmitSpec refused[] = {
      {.lora = 7, .prompt_tokens = {1, 2}, .max_new_tokens = 4},
      {.lora = 0, .prompt_tokens = {1, vocab}, .max_new_tokens = 4},
      {.lora = -1, .prompt_tokens = {-1, 2}, .max_new_tokens = 4}};
  for (const SubmitSpec& spec : refused) {
    EXPECT_FALSE(e.Serves(spec));
    EXPECT_FALSE(e.AddRequest(spec).valid());
    EXPECT_EQ(e.working_set_size(), 1);
    EXPECT_EQ(e.AvailablePages(), pages);
    EXPECT_EQ(e.AuditInvariants(), "");
  }
  EXPECT_EQ(model_.lora_bytes(), lora_bytes);  // adapter 7 drew nothing
  RequestHandle b = e.AddRequest(
      {.lora = 1, .prompt_tokens = {4, 5}, .max_new_tokens = 2});
  ASSERT_TRUE(b.valid());
  const SubmitSpec fits{.lora = 0, .prompt_tokens = {6}, .max_new_tokens = 2};
  EXPECT_TRUE(e.Serves(fits));
  EXPECT_FALSE(e.AddRequest(fits).valid());  // working set full
  EXPECT_EQ(e.working_set_size(), 2);
  EXPECT_EQ(e.AvailablePages(), pages);
  DrainAudited(e);
  EXPECT_EQ(e.Output(a)->size(), 4u);
  EXPECT_EQ(e.Output(b)->size(), 2u);
}

TEST_F(EngineTest, HitPagesNotDoubleCountedAsReclaimable) {
  // Regression: CanAdmitPages must not count the hit's own pages as
  // reclaimable headroom while simultaneously netting them out — that
  // admits infeasible requests which then livelock through the migration
  // path.
  Engine e(&model_, model_.MakeKvConfig(/*num_pages=*/3, /*page_size=*/4),
           EngineConfig{.max_batch_size = 2});
  const std::vector<std::int32_t> prompt = {1, 2, 3, 4, 5, 6, 7, 8};
  RequestHandle a =
      e.AddRequest({.lora = 0, .prompt_tokens = prompt, .max_new_tokens = 1});
  DrainAudited(e);
  (void)a;
  // The cached prompt holds 2 pages; 1 page is free. A hit keeps one token
  // for the logits, so it rounds down to the first page.
  ASSERT_EQ(e.kv_free_pages(), 1);
  ASSERT_EQ(e.PrefixHitTokens(0, prompt, {}), 4);
  EXPECT_EQ(e.PagesNeededForAdmission(0, prompt, {}), 2);
  EXPECT_EQ(e.AvailablePages(), 3);
  // Feasible: the free page and the prompt's second page, which the hit
  // does not fork, cover the 2 pages.
  EXPECT_TRUE(e.CanAdmitPages(0, prompt, {}));
  // A longer turn hits both cached pages and needs 2 more. The naive math
  // says feasible (2 ≤ 1 free + 2 reclaimable) — but those reclaimable
  // pages ARE the hit, so CanAdmitPages refuses.
  std::vector<std::int32_t> turn = prompt;
  for (std::int32_t t : {9, 10, 11, 12, 13}) turn.push_back(t);
  ASSERT_EQ(e.PrefixHitTokens(0, turn, {}), 8);
  EXPECT_EQ(e.PagesNeededForAdmission(0, turn, {}), 2);
  EXPECT_FALSE(e.CanAdmitPages(0, turn, {}));
  // A request that fits without the contradiction is still admissible.
  const std::vector<std::int32_t> small = {1, 2, 3};
  EXPECT_TRUE(e.CanAdmitPages(0, small, {}));
}

TEST_F(EngineTest, VictimQueryKeepsForkedHitPagesOutOfHeadroom) {
  // Regression: the victim projection must not count the reclaimable pages
  // a planned first chunk forks as headroom — Step forks them before any
  // extend, so they cannot be reclaimed for the decode sharing the step,
  // and the decode's extend would abort on a query that named no victims.
  Engine e(&model_, model_.MakeKvConfig(/*num_pages=*/4, /*page_size=*/4),
           EngineConfig{.max_batch_size = 4});
  RequestHandle d = e.AddRequest(
      {.lora = 1, .prompt_tokens = {11, 12, 13, 14}, .max_new_tokens = 20});
  StepAudited(e);  // D's prompt fills 1 page
  const std::vector<std::int32_t> prompt = {1, 2, 3, 4, 5, 6, 7, 8};
  e.AddRequest({.lora = 0, .prompt_tokens = prompt, .max_new_tokens = 1});
  StepAudited(e);  // A's prompt fills 2 pages, D's decode opens its 2nd
  for (int i = 0; i < 3; ++i) StepAudited(e);  // D fills its 2nd page
  ASSERT_EQ(e.kv_free_pages(), 0);
  ASSERT_EQ(e.AvailablePages(), 2);  // A's cached prompt
  std::vector<std::int32_t> turn = prompt;
  turn.push_back(9);
  RequestHandle b =
      e.AddRequest({.lora = 0, .prompt_tokens = turn, .max_new_tokens = 4});
  // Next step: B forks both of A's pages and its 1-token chunk opens a
  // page; D's decode opens one too. The only reclaimable pages are the
  // ones B forks — so B must go.
  EXPECT_EQ(e.SelectEvictionVictims(), std::vector<std::int64_t>{b.id()});
  ASSERT_TRUE(e.Cancel(b).has_value());
  EXPECT_TRUE(e.SelectEvictionVictims().empty());
  StepResult r = StepAudited(e);
  ASSERT_EQ(r.emitted.size(), 1u);
  EXPECT_EQ(r.emitted[0].request_id, d.id());
}

TEST_F(EngineTest, SystemPromptsWaitForTheirTenantWhileUnusedPagesAreRecycled) {
  // A miniature prefix-tp2: two tenants' system prompts are warmed and one
  // of them is hit; then bursts of unique prompts from a third tenant, and
  // one from the second, run through the pool. A cached page waits for its
  // tenant's next request: the burst touches new pages rather than reclaim
  // either prompt, and reclaims a page before any new one only once its
  // tenant has started a request without it.
  model_.AddLora(2, 8, 3);
  Engine e(&model_, model_.MakeKvConfig(/*num_pages=*/22, /*page_size=*/4),
           EngineConfig{.max_batch_size = 8, .prefill_limit = 8});
  const std::vector<std::int32_t> sys_x = {10, 11, 12, 13, 14, 15, 16, 17};
  const std::vector<std::int32_t> sys_y = {40, 41, 42, 43, 44, 45, 46, 47};
  auto with = [](std::vector<std::int32_t> p,
                 std::initializer_list<std::int32_t> turn) {
    p.insert(p.end(), turn);
    return p;
  };
  auto burst = [&](LoraId lora, std::int32_t first) {
    for (std::int32_t i = 0; i < 3; ++i) {
      std::vector<std::int32_t> p;
      for (std::int32_t t = 0; t < 12; ++t) p.push_back(first + 12 * i + t);
      e.AddRequest({.lora = lora, .prompt_tokens = p, .max_new_tokens = 1});
    }
    DrainAudited(e);
  };
  // Set-up: both prompts (plus one token each) prefill in one step.
  e.AddRequest({.lora = 0, .prompt_tokens = with(sys_x, {0}),
                .max_new_tokens = 1});
  e.AddRequest({.lora = 1, .prompt_tokens = with(sys_y, {0}),
                .max_new_tokens = 1});
  DrainAudited(e);
  // X's tenant-mate hits X's 2 pages.
  e.AddRequest({.lora = 0, .prompt_tokens = with(sys_x, {50, 51, 52}),
                .max_new_tokens = 1});
  EXPECT_EQ(StepAudited(e).prefix_hit_tokens, 8);
  ASSERT_FALSE(e.HasWork());
  // 2 touched free pages, X's and Y's 4 cached pages, 16 untouched pages.
  ASSERT_EQ(e.kv_free_pages(), 18);
  ASSERT_EQ(e.AvailablePages(), 22);
  // Tenant 2's first burst, 3 prompts of 3 whole pages: the 2 touched pages
  // and 7 new ones. Neither system prompt is reclaimed.
  burst(2, 100);
  EXPECT_EQ(e.prefix_cache_stats().evictions, 0);
  EXPECT_EQ(e.kv_free_pages(), 9);
  // Its second burst: the first burst's pages had their chance, so they
  // are reclaimed before any new page is touched.
  burst(2, 200);
  EXPECT_EQ(e.prefix_cache_stats().evictions, 9);
  EXPECT_EQ(e.kv_free_pages(), 9);
  // Both system prompts are still cached in full.
  EXPECT_EQ(e.PrefixHitTokens(0, with(sys_x, {1}), {}), 8);
  EXPECT_EQ(e.PrefixHitTokens(1, with(sys_y, {1}), {}), 8);
  // Y's tenant starts a request without Y's prompt: Y's pages had their
  // chance and go first, then the second burst's (still waiting) pages
  // stay while a new page is touched.
  e.AddRequest({.lora = 1, .prompt_tokens = {70, 71, 72, 73, 74, 75, 76, 77,
                                              78, 79, 80, 81},
                .max_new_tokens = 1});
  DrainAudited(e);
  EXPECT_EQ(e.prefix_cache_stats().evictions, 11);
  EXPECT_EQ(e.kv_free_pages(), 8);
  EXPECT_EQ(e.PrefixHitTokens(1, with(sys_y, {1}), {}), 0);
  const std::vector<std::int32_t> turn = with(sys_x, {60, 61});
  EXPECT_EQ(e.PrefixHitTokens(0, turn, {}), 8);
  e.AddRequest({.lora = 0, .prompt_tokens = turn, .max_new_tokens = 1});
  EXPECT_EQ(StepAudited(e).prefix_hit_tokens, 8);
}

TEST_F(EngineTest, PrefixHitTokensQueryIsPureAndPageAware) {
  Engine e(&model_, model_.MakeKvConfig(64, /*page_size=*/4), EngineConfig{});
  const std::vector<std::int32_t> prompt = {4, 4, 4, 4, 4, 4, 4, 4};
  EXPECT_EQ(e.PrefixHitTokens(0, prompt, {}), 0);
  auto lookups_before = e.prefix_cache_stats().lookups;
  RequestHandle id =
      e.AddRequest({.lora = 0, .prompt_tokens = prompt, .max_new_tokens = 2});
  DrainAudited(e);
  (void)id;
  // The 8-token prompt is cached on 2 pages; a hit keeps one token for the
  // logits and so rounds down to 1 page.
  EXPECT_EQ(e.PrefixHitTokens(0, prompt, {}), 4);
  // Same text under a different adapter shares nothing: K/V bits carry the
  // LoRA addon.
  EXPECT_EQ(e.PrefixHitTokens(1, prompt, {}), 0);
  // The query is pure: it never counts as a lookup.
  EXPECT_EQ(e.prefix_cache_stats().lookups, lookups_before + 1);
  // Admission needs fewer pages with the prefix cached than the cold
  // formula would claim: 9 tokens on 3 pages, one of them aliased.
  EXPECT_EQ(e.kv_config().PagesNeeded(
                static_cast<std::int64_t>(prompt.size()) + 1),
            3);
  EXPECT_EQ(e.PagesNeededForAdmission(0, prompt, {}), 2);
}

// --- Chunked prefill (EngineConfig::max_step_tokens) ---

std::vector<std::int32_t> LongPrompt(int len) {
  std::vector<std::int32_t> p(static_cast<std::size_t>(len));
  for (int i = 0; i < len; ++i) {
    p[static_cast<std::size_t>(i)] = (i * 13 + 7) % 97;
  }
  return p;
}

TEST_F(EngineTest, ChunkedPrefillEmitsNothingUntilFinalChunk) {
  EngineConfig cfg;
  cfg.max_step_tokens = 8;
  Engine e(&model_, model_.MakeKvConfig(256), cfg);
  RequestHandle id = e.AddRequest(
      {.lora = 0, .prompt_tokens = LongPrompt(20), .max_new_tokens = 3});
  // 20 tokens at budget 8: chunks of 8, 8, 4 — the first two steps carry a
  // partial chunk and emit nothing.
  for (int expected : {8, 8}) {
    auto r = e.Step();
    EXPECT_EQ(r.prefill_tokens, expected);
    EXPECT_EQ(r.partial_prefills, 1);
    EXPECT_TRUE(r.emitted.empty());
    EXPECT_EQ(r.new_tokens, 0);
  }
  EXPECT_EQ(e.Output(id)->size(), 0u);
  auto r = e.Step();
  EXPECT_EQ(r.prefill_tokens, 4);
  EXPECT_EQ(r.partial_prefills, 0);
  ASSERT_EQ(r.emitted.size(), 1u);
  EXPECT_EQ(r.emitted[0].request_id, id.id());
  EXPECT_EQ(r.deferred_prefill_tokens, 0);
}

TEST_F(EngineTest, ChunkedStreamsBitIdenticalToUnchunked) {
  auto run = [&](std::int64_t budget) {
    EngineConfig cfg;
    cfg.max_step_tokens = budget;
    Engine e(&model_, model_.MakeKvConfig(256), cfg);
    RequestHandle a = e.AddRequest(
        {.lora = 0, .prompt_tokens = LongPrompt(33), .max_new_tokens = 6});
    RequestHandle b = e.AddRequest(
        {.lora = 1, .prompt_tokens = {4, 2}, .max_new_tokens = 8});
    while (e.HasWork()) e.Step();
    return std::vector<std::vector<std::int32_t>>{*e.Output(a),
                                                  *e.Output(b)};
  };
  auto unchunked = run(0);
  for (std::int64_t budget : {5, 16, 128}) {
    EXPECT_EQ(run(budget), unchunked) << "budget " << budget;
  }
}

TEST_F(EngineTest, DecodesShareEveryStepWithPrefillChunks) {
  EngineConfig cfg;
  cfg.max_step_tokens = 6;
  Engine e(&model_, model_.MakeKvConfig(256), cfg);
  // Get one request decoding first.
  RequestHandle dec = e.AddRequest(
      {.lora = 0, .prompt_tokens = {1, 2}, .max_new_tokens = 32});
  e.Step();
  // A long prompt arrives: every subsequent step must mix a prefill chunk
  // with the in-flight decode (no decode stall behind the prompt).
  e.AddRequest(
      {.lora = 0, .prompt_tokens = LongPrompt(20), .max_new_tokens = 2});
  std::size_t before = e.Output(dec)->size();
  int chunk_steps = 0;
  while (e.Output(dec) != nullptr &&
         static_cast<int>(e.Output(dec)->size()) < 8) {
    auto r = e.Step();
    if (r.partial_prefills > 0) {
      ++chunk_steps;
      // The decode emitted in the same invocation as the partial chunk.
      ASSERT_EQ(r.emitted.size(), 1u);
      EXPECT_EQ(r.emitted[0].request_id, dec.id());
      // Budget 6 with one decode row → 5-token chunks.
      EXPECT_EQ(r.prefill_tokens, 5);
    }
  }
  EXPECT_GT(chunk_steps, 2);
  EXPECT_GT(e.Output(dec)->size(), before);
}

TEST_F(EngineTest, MidPrefillCancelKeepsPartialChainCachedAndRebuilds) {
  const std::vector<std::int32_t> prompt = LongPrompt(24);
  // Uninterrupted reference stream.
  Engine ref = MakeEngine();
  RequestHandle r0 = ref.AddRequest(
      {.lora = 0, .prompt_tokens = prompt, .max_new_tokens = 5});
  while (ref.HasWork()) ref.Step();
  std::vector<std::int32_t> expected = *ref.Output(r0);

  EngineConfig cfg;
  cfg.max_step_tokens = 8;
  Engine e(&model_, model_.MakeKvConfig(256, /*page_size=*/4), cfg);
  RequestHandle id = e.AddRequest(
      {.lora = 0, .prompt_tokens = prompt, .max_new_tokens = 5});
  StepAudited(e);  // one 8-token chunk; the prefill is mid-flight
  auto snap = e.Cancel(id);
  ASSERT_TRUE(snap.has_value());
  EXPECT_TRUE(snap->generated.empty());  // no token emitted yet
  EXPECT_EQ(e.AuditInvariants(), "");

  // The chunk's 2 whole pages were keyed and stay cached: the rebuild
  // forks the 8 consumed tokens and prefills only the remaining 16.
  EXPECT_EQ(e.PrefixHitTokens(0, prompt, {}), 8);
  RequestHandle back = e.AddMigrated(*snap);
  auto r = StepAudited(e);
  EXPECT_EQ(r.prefix_hit_tokens, 8);
  EXPECT_EQ(r.prefill_tokens, 8);  // budget-sized chunk of the suffix
  DrainAudited(e);
  EXPECT_EQ(*e.Output(back), expected);
}

TEST_F(EngineTest, VictimProjectionIsChunkGranular) {
  // Pool sized so the WHOLE prompt cannot fit next to the resident
  // request, but the next chunk can: with chunked prefill the victim
  // query must not name victims for pages the next step does not demand.
  EngineConfig cfg;
  cfg.max_step_tokens = 8;
  cfg.enable_prefix_cache = false;
  Engine e(&model_, model_.MakeKvConfig(/*num_pages=*/6, /*page_size=*/4),
           cfg);
  RequestHandle small = e.AddRequest(
      {.lora = 0, .prompt_tokens = {1, 2, 3}, .max_new_tokens = 2});
  e.Step();  // small prefilled: 1 page (3 tokens of 4 slots)
  e.AddRequest(
      {.lora = 0, .prompt_tokens = LongPrompt(16), .max_new_tokens = 2});
  // An atomic projection would price the whole 16-token prefill + a decode
  // slot (5 pages) against the 5 free pages alongside small's growth. The
  // chunked projection demands only the next chunk: budget 8 minus one
  // decode row = 7 tokens → 2 pages, plus small's decode (0 new pages:
  // 3+1 fits its page). 5 free → no victims.
  EXPECT_TRUE(e.SelectEvictionVictims().empty());
  auto r = e.Step();
  EXPECT_EQ(r.prefill_tokens, 7);  // budget 8 minus one decode row
  (void)small;
}

}  // namespace
}  // namespace punica
