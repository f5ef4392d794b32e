// The step planner (runtime/step_planner.h) is the ONE definition every tier
// steps with (numeric Engine, simulated GpuRunner, closed-loop text-gen
// simulator): SplitPrefillChunks, PlanStep and the replan-on-eviction
// victim loop SelectVictims. These tests pin their semantics and check that
// the two serving tiers realize identical chunk sequences for the same
// workload.
#include "runtime/step_planner.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "gpu/costmodel.h"
#include "gpu/specs.h"
#include "model/config.h"
#include "runtime/engine.h"
#include "runtime/runner.h"

namespace punica {
namespace {

std::vector<std::int64_t> Split(std::vector<std::int64_t> remaining,
                                std::int64_t decodes, std::int64_t budget) {
  return SplitPrefillChunks(remaining, decodes, budget);
}

TEST(SplitPrefillChunksTest, UnlimitedBudgetRunsWholeSuffixes) {
  EXPECT_EQ(Split({100, 7}, 5, 0), (std::vector<std::int64_t>{100, 7}));
  EXPECT_EQ(Split({100}, 31, -3), (std::vector<std::int64_t>{100}));
}

TEST(SplitPrefillChunksTest, DecodesComeOffTheTopOfTheBudget) {
  // 64-token budget, 16 decodes → 48 prefill tokens FCFS.
  EXPECT_EQ(Split({100}, 16, 64), (std::vector<std::int64_t>{48}));
  EXPECT_EQ(Split({30, 100}, 16, 64), (std::vector<std::int64_t>{30, 18}));
}

TEST(SplitPrefillChunksTest, BudgetExhaustedDefersLaterPrefills) {
  EXPECT_EQ(Split({100, 50}, 0, 64), (std::vector<std::int64_t>{64, 0}));
  EXPECT_EQ(Split({64, 50}, 0, 64), (std::vector<std::int64_t>{64, 0}));
}

TEST(SplitPrefillChunksTest, ProgressFloorWhenDecodesSaturateBudget) {
  // Decodes alone exceed the budget: the head prefill still gets one token,
  // later prefills get none — prefill can never starve behind a full
  // decode batch.
  EXPECT_EQ(Split({100, 50}, 64, 64), (std::vector<std::int64_t>{1, 0}));
  EXPECT_EQ(Split({100}, 1000, 8), (std::vector<std::int64_t>{1}));
}

TEST(SplitPrefillChunksTest, ChunksNeverExceedRemaining) {
  EXPECT_EQ(Split({3, 2, 10}, 0, 8), (std::vector<std::int64_t>{3, 2, 3}));
}

TEST(SplitPrefillChunksTest, NoPrefillsIsEmpty) {
  EXPECT_TRUE(Split({}, 12, 64).empty());
}

/// Cross-tier agreement: a single long prefill stepped under the same
/// budget must produce the same per-step prefill-token sequence on the
/// numeric Engine and the simulated GpuRunner — both call the shared
/// split, and neither may drift from it.
TEST(SplitPrefillChunksTest, EngineAndRunnerRealizeIdenticalChunkSequences) {
  constexpr std::int64_t kBudget = 24;
  constexpr int kPromptLen = 100;

  // Numeric tier.
  LlamaModel model(TinyLlama(), 11);
  Engine engine(&model, model.MakeKvConfig(/*num_pages=*/64),
                EngineConfig{.max_step_tokens = kBudget,
                             .enable_prefix_cache = false});
  std::vector<std::int32_t> prompt(kPromptLen);
  for (int i = 0; i < kPromptLen; ++i) prompt[i] = (i * 7 + 3) % 97;
  engine.AddRequest({.prompt_tokens = prompt, .max_new_tokens = 2});
  std::vector<int> engine_chunks;
  while (engine.HasWork()) {
    StepResult r = engine.Step();
    if (r.prefill_tokens > 0) engine_chunks.push_back(r.prefill_tokens);
  }

  // Simulated tier, identical shape: one cold prefill, no decodes.
  CostModel cm((A100Sxm80GB()));
  GpuRunner runner(0,
                   {.max_step_tokens = kBudget,
                    .kv_capacity_tokens = 4096,
                    .enable_prefix_cache = false},
                   Llama7B(), &cm);
  ServingRequest req;
  req.id = 1;
  req.lora_id = -1;
  req.prompt_len = kPromptLen;
  req.output_len = 2;
  runner.Admit(&req, 0.0);
  std::vector<int> runner_chunks;
  double now = 0.0;
  while (runner.HasAnyWork()) {
    StepResult r = runner.Step(now);
    now += r.latency;
    if (r.prefill_tokens > 0) runner_chunks.push_back(r.prefill_tokens);
  }

  EXPECT_EQ(engine_chunks, runner_chunks);
  // And the sequence is what the shared definition says: full-budget
  // chunks (no decodes in flight), then the 4-token remainder.
  EXPECT_EQ(engine_chunks, (std::vector<int>{24, 24, 24, 24, 4}));
}

// --- PlanStep ---

/// Plans over `slots` where every pending prefill has `remaining[id]`
/// tokens left from position 0; records which ids were asked for extents.
StepPlan PlanWith(const std::vector<PlanSlot>& slots,
                  std::map<std::int64_t, std::int64_t> remaining,
                  int prefill_limit, std::int64_t budget,
                  std::vector<std::int64_t> exclude = {},
                  std::vector<std::int64_t>* asked = nullptr) {
  return PlanStep(slots, exclude, prefill_limit, budget,
                  [&](std::int64_t id) {
                    if (asked != nullptr) asked->push_back(id);
                    return PlannedPrefill{.start = 0,
                                         .total = remaining.at(id),
                                         .first_chunk = true};
                  });
}

std::vector<std::int64_t> PrefillIds(const StepPlan& plan) {
  std::vector<std::int64_t> ids;
  for (const PlannedPrefill& p : plan.prefills) ids.push_back(p.id);
  return ids;
}

std::vector<std::int64_t> Chunks(const StepPlan& plan) {
  std::vector<std::int64_t> chunks;
  for (const PlannedPrefill& p : plan.prefills) chunks.push_back(p.chunk);
  return chunks;
}

TEST(PlanStepTest, FcfsCutAtPrefillLimit) {
  // Ids out of admission order: the cut follows admit_seq, not id, and
  // only the prefills that make the cut are resolved by the tier.
  std::vector<PlanSlot> slots = {
      {.id = 1, .admit_seq = 3, .needs_prefill = true},
      {.id = 2, .admit_seq = 0, .needs_prefill = false},
      {.id = 3, .admit_seq = 1, .needs_prefill = true},
      {.id = 4, .admit_seq = 4, .needs_prefill = false},
      {.id = 5, .admit_seq = 2, .needs_prefill = true},
  };
  std::vector<std::int64_t> asked;
  StepPlan plan = PlanWith(slots, {{1, 10}, {3, 10}, {5, 10}},
                           /*prefill_limit=*/2, /*budget=*/0, {}, &asked);
  EXPECT_EQ(PrefillIds(plan), (std::vector<std::int64_t>{3, 5}));
  EXPECT_EQ(Chunks(plan), (std::vector<std::int64_t>{10, 10}));
  EXPECT_EQ(asked, (std::vector<std::int64_t>{3, 5}));
  // Decodes keep input order.
  EXPECT_EQ(plan.decode_ids, (std::vector<std::int64_t>{2, 4}));
}

TEST(PlanStepTest, ExtentSetsStartAndRemaining) {
  // A mid-prefill slot resumes at its start; the chunk covers only the
  // rest, and the budget counts the decode row.
  std::vector<PlanSlot> slots = {
      {.id = 0, .admit_seq = 0, .needs_prefill = true},
      {.id = 1, .admit_seq = 1, .needs_prefill = false},
  };
  StepPlan plan = PlanStep(slots, {}, 1, /*max_step_tokens=*/8,
                           [](std::int64_t) {
                             return PlannedPrefill{.start = 20, .total = 30};
                           });
  ASSERT_EQ(plan.prefills.size(), 1u);
  EXPECT_EQ(plan.prefills[0].start, 20);
  EXPECT_EQ(plan.prefills[0].total, 30);
  EXPECT_FALSE(plan.prefills[0].first_chunk);
  EXPECT_EQ(plan.prefills[0].chunk, 7);
}

TEST(PlanStepTest, ExcludingAPrefillPromotesTheNextWithFreedBudget) {
  std::vector<PlanSlot> slots = {
      {.id = 0, .admit_seq = 0, .needs_prefill = true},
      {.id = 1, .admit_seq = 1, .needs_prefill = true},
      {.id = 2, .admit_seq = 2, .needs_prefill = true},
  };
  std::map<std::int64_t, std::int64_t> remaining = {{0, 6}, {1, 8}, {2, 9}};
  StepPlan plan = PlanWith(slots, remaining, 2, /*budget=*/10);
  EXPECT_EQ(PrefillIds(plan), (std::vector<std::int64_t>{0, 1}));
  EXPECT_EQ(Chunks(plan), (std::vector<std::int64_t>{6, 4}));
  // Evicting the head promotes id 2 into the cut, and id 1 takes the
  // budget id 0 no longer uses.
  plan = PlanWith(slots, remaining, 2, 10, {0});
  EXPECT_EQ(PrefillIds(plan), (std::vector<std::int64_t>{1, 2}));
  EXPECT_EQ(Chunks(plan), (std::vector<std::int64_t>{8, 2}));
}

TEST(PlanStepTest, NotRunnableSlotsAreNeverPlanned) {
  std::vector<PlanSlot> slots = {
      {.id = 0, .admit_seq = 0, .needs_prefill = true, .runnable = false},
      {.id = 1, .admit_seq = 1, .needs_prefill = false, .runnable = false},
      {.id = 2, .admit_seq = 2, .needs_prefill = true},
  };
  StepPlan plan = PlanWith(slots, {{2, 5}}, 1, 0);
  EXPECT_EQ(PrefillIds(plan), (std::vector<std::int64_t>{2}));
  EXPECT_TRUE(plan.decode_ids.empty());
}

// --- SelectVictims ---

/// Four decoding slots admitted out of id order (admission: 2, 0, 3, 1).
std::vector<PlanSlot> DecodeSlots() {
  return {{.id = 0, .admit_seq = 1, .needs_prefill = false},
          {.id = 1, .admit_seq = 3, .needs_prefill = false},
          {.id = 2, .admit_seq = 0, .needs_prefill = false},
          {.id = 3, .admit_seq = 2, .needs_prefill = false}};
}

/// Victims when each planned decode demands one unit against `headroom`,
/// and each victim frees `freed` units.
std::vector<std::int64_t> Victims(const std::vector<PlanSlot>& slots,
                                  EvictPolicy policy, std::int64_t headroom,
                                  std::int64_t freed = 0,
                                  int* plans = nullptr) {
  return SelectVictims(
      slots, policy,
      [&](std::span<const std::int64_t> exclude) {
        if (plans != nullptr) ++*plans;
        return PlanWith(slots, {}, 1, 0,
                        {exclude.begin(), exclude.end()});
      },
      [](const StepPlan& plan) {
        return static_cast<std::int64_t>(plan.decode_ids.size());
      },
      [&](const StepPlan&) { return headroom; },
      [&](std::int64_t) { return freed; });
}

TEST(SelectVictimsTest, NothingWhenTheStepFits) {
  int plans = 0;
  EXPECT_TRUE(Victims(DecodeSlots(), EvictPolicy::kNewest, 4, 0, &plans)
                  .empty());
  EXPECT_EQ(plans, 1);
}

TEST(SelectVictimsTest, NewestFirstStopsOnceDemandFits) {
  // Demand 4 against headroom 2: the two newest admissions go, and every
  // eviction replans (3 plans for 2 victims).
  int plans = 0;
  EXPECT_EQ(Victims(DecodeSlots(), EvictPolicy::kNewest, 2, 0, &plans),
            (std::vector<std::int64_t>{1, 3}));
  EXPECT_EQ(plans, 3);
}

TEST(SelectVictimsTest, OldestFirstUnderKOldest) {
  EXPECT_EQ(Victims(DecodeSlots(), EvictPolicy::kOldest, 2),
            (std::vector<std::int64_t>{2, 0}));
}

TEST(SelectVictimsTest, FreedUnitsCountAsHeadroom) {
  // Each victim also frees 2 units: 4 > 0, then 3 > 2, then 2 ≤ 4.
  EXPECT_EQ(Victims(DecodeSlots(), EvictPolicy::kNewest, 0, 2),
            (std::vector<std::int64_t>{1, 3}));
}

TEST(SelectVictimsTest, StopsWhenNoCandidateIsLeft) {
  // Negative headroom never fits: every slot goes, newest first.
  EXPECT_EQ(Victims(DecodeSlots(), EvictPolicy::kNewest, -1),
            (std::vector<std::int64_t>{1, 3, 0, 2}));
}

TEST(SelectVictimsTest, NotRunnableSlotIsStillAVictim) {
  // The newest slot is still loading its adapter: it is not in the plan,
  // but it holds KvCache and is the first candidate.
  std::vector<PlanSlot> slots = DecodeSlots();
  slots[1].runnable = false;  // id 1, the newest admission
  EXPECT_EQ(Victims(slots, EvictPolicy::kNewest, 1),
            (std::vector<std::int64_t>{1, 3, 0}));
}

}  // namespace
}  // namespace punica
