// Migration correctness on real numerics (paper §5.3): cancelling a request
// mid-generation and re-adding it to another GPU (engine) with
// prompt+generated recomputation must reproduce exactly the token stream of
// an uninterrupted run. This is the property that makes evict+re-add a safe
// scheduling primitive — asserted both at the Engine level and through the
// unified Scheduler/ExecutionBackend path.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "model/llama.h"
#include "runtime/engine.h"
#include "runtime/engine_backend.h"
#include "sched/scheduler.h"

namespace punica {
namespace {

struct Harness {
  Harness() : model(TinyLlama4L(), 777) {
    model.AddLora(0, 8, 10);
    model.AddLora(1, 8, 20);
  }

  Engine MakeEngine(int max_batch = 8) {
    EngineConfig cfg;
    cfg.max_batch_size = max_batch;
    return Engine(&model, model.MakeKvConfig(512), cfg);
  }

  std::vector<std::int32_t> Uninterrupted(LoraId lora,
                                          std::vector<std::int32_t> prompt,
                                          int tokens) {
    Engine e = MakeEngine(1);
    RequestHandle id = e.AddRequest({.lora = lora,
                                     .prompt_tokens = std::move(prompt),
                                     .max_new_tokens = tokens});
    while (e.HasWork()) e.Step();
    return *e.Output(id);
  }

  LlamaModel model;
};

TEST(MigrationTest, SnapshotCarriesState) {
  Harness h;
  Engine e = h.MakeEngine();
  RequestHandle id = e.AddRequest(
      {.lora = 0, .prompt_tokens = {3, 1, 4}, .max_new_tokens = 10});
  for (int i = 0; i < 4; ++i) e.Step();
  auto snap = e.Cancel(id);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->lora, 0);
  EXPECT_EQ(snap->prompt, (std::vector<std::int32_t>{3, 1, 4}));
  EXPECT_EQ(snap->generated.size(), 4u);
  EXPECT_EQ(snap->prompt_len, 3);
  EXPECT_EQ(snap->generated_len, 4);
  EXPECT_EQ(snap->max_new_tokens, 10);
  EXPECT_FALSE(e.HasWork());
}

TEST(MigrationTest, CancelUnknownReturnsEmpty) {
  Harness h;
  Engine e = h.MakeEngine();
  EXPECT_FALSE(e.Cancel(1234).has_value());
}

class MigrationPointSweep : public ::testing::TestWithParam<int> {};

TEST_P(MigrationPointSweep, MigratedStreamEqualsUninterrupted) {
  int migrate_after = GetParam();
  Harness h;
  const std::vector<std::int32_t> prompt = {11, 7, 5, 2};
  const int total = 12;
  auto expected = h.Uninterrupted(0, prompt, total);

  // Source GPU runs `migrate_after` steps.
  Engine source = h.MakeEngine();
  RequestHandle id = source.AddRequest(
      {.lora = 0, .prompt_tokens = prompt, .max_new_tokens = total});
  for (int i = 0; i < migrate_after; ++i) source.Step();
  auto snap = source.Cancel(id);
  ASSERT_TRUE(snap.has_value());

  // Destination GPU re-prefills prompt + generated and finishes.
  Engine dest = h.MakeEngine();
  RequestHandle id2 = dest.AddMigrated(*snap);
  while (dest.HasWork()) dest.Step();

  EXPECT_EQ(*dest.Output(id2), expected)
      << "migration after step " << migrate_after << " changed the stream";
}

INSTANTIATE_TEST_SUITE_P(AfterSteps, MigrationPointSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 11));

TEST(MigrationTest, DoubleMigration) {
  Harness h;
  const std::vector<std::int32_t> prompt = {9, 9, 1};
  const int total = 10;
  auto expected = h.Uninterrupted(1, prompt, total);

  Engine a = h.MakeEngine();
  RequestHandle id = a.AddRequest(
      {.lora = 1, .prompt_tokens = prompt, .max_new_tokens = total});
  for (int i = 0; i < 3; ++i) a.Step();
  auto snap1 = a.Cancel(id);
  ASSERT_TRUE(snap1.has_value());

  Engine b = h.MakeEngine();
  RequestHandle id_b = b.AddMigrated(*snap1);
  for (int i = 0; i < 3; ++i) b.Step();
  auto snap2 = b.Cancel(id_b);
  ASSERT_TRUE(snap2.has_value());
  EXPECT_GT(snap2->generated.size(), snap1->generated.size());

  Engine c = h.MakeEngine();
  RequestHandle id_c = c.AddMigrated(*snap2);
  while (c.HasWork()) c.Step();
  EXPECT_EQ(*c.Output(id_c), expected);
}

TEST(MigrationTest, MigrationIntoBusyEngine) {
  // The destination already serves other LoRA requests; the migrated
  // request joins the mixed batch and its stream is still exact.
  Harness h;
  const std::vector<std::int32_t> prompt = {4, 8, 15};
  const int total = 9;
  auto expected = h.Uninterrupted(0, prompt, total);

  Engine source = h.MakeEngine();
  RequestHandle id = source.AddRequest(
      {.lora = 0, .prompt_tokens = prompt, .max_new_tokens = total});
  for (int i = 0; i < 4; ++i) source.Step();
  auto snap = source.Cancel(id);
  ASSERT_TRUE(snap.has_value());

  Engine dest = h.MakeEngine();
  dest.AddRequest(
      {.lora = 1, .prompt_tokens = {16, 23, 42}, .max_new_tokens = 15});
  for (int i = 0; i < 3; ++i) dest.Step();  // busy mid-flight
  RequestHandle id2 = dest.AddMigrated(*snap);
  while (dest.HasWork()) dest.Step();
  EXPECT_EQ(*dest.Output(id2), expected);
}

TEST(MigrationTest, SourceKvReleasedOnCancel) {
  Harness h;
  // 4-token pages, so the cancelled 12-token chain caches 3 whole pages.
  Engine e(&h.model, h.model.MakeKvConfig(512, /*page_size=*/4),
           EngineConfig{.max_batch_size = 8});
  std::int32_t before = e.kv_free_pages();
  const std::vector<std::int32_t> prompt = {1, 2, 3, 4, 5, 6, 7, 8};
  RequestHandle id = e.AddRequest(
      {.lora = 0, .prompt_tokens = prompt, .max_new_tokens = 20});
  for (int i = 0; i < 5; ++i) e.Step();
  EXPECT_EQ(e.kv_free_pages(), before - 3);  // 12 tokens: prompt + 4 decodes
  std::optional<RequestSnapshot> snap = e.Cancel(id);
  ASSERT_TRUE(snap.has_value());
  // The evict half of migration releases the request's references; the
  // computed chain's full pages stay cached (so a bounce-back rebuild is
  // cheap), but every held page must remain reclaimable.
  EXPECT_EQ(e.AvailablePages(), before);
  EXPECT_EQ(e.AuditInvariants(), "");
  // The rebuild chain (prompt + 5 generated) hits all 12 cached tokens.
  EXPECT_EQ(e.PrefixHitTokens(0, prompt, snap->generated), 12);
  // The prompt alone hits 4, not 8: a hit always leaves at least one token
  // to prefill so the model emits the next-token logits, and it rounds down
  // to a whole page.
  EXPECT_EQ(e.PrefixHitTokens(0, prompt, {}), 4);
}

// --- Scheduler-level migration over numeric backends (unified API) ---

TEST(SchedulerMigrationTest, ConsolidationMoveIsBitIdentical) {
  // A request is cancelled on one numeric backend and resumed on another
  // *through the Scheduler* (the consolidation move — the same
  // Cancel/Admit primitive KV-pressure migration uses). Its final output
  // must be bit-identical to an unmigrated run.
  Harness h;
  const std::vector<std::int32_t> prompt = {11, 7, 5, 2};
  const int total = 12;
  auto expected = h.Uninterrupted(0, prompt, total);

  Engine e0 = h.MakeEngine();
  Engine e1 = h.MakeEngine();
  EngineBackend b0(0, &e0);
  EngineBackend b1(1, &e1);
  Scheduler sched({&b0, &b1});

  // The target lands on backend 1 (empty cluster → highest UUID).
  ServingRequest target = ServingRequest::FromSpec(
      100, {.lora = 0, .prompt_tokens = prompt, .max_new_tokens = total});
  ASSERT_EQ(sched.Submit(&target, 0.0, /*exclude_gpu=*/1), 0);

  // Two other tenants keep backend 1 busier than backend 0.
  ServingRequest other1 = ServingRequest::FromSpec(
      101, {.lora = 1, .prompt_tokens = {1, 2, 3}, .max_new_tokens = 30});
  ServingRequest other2 = ServingRequest::FromSpec(
      102, {.lora = 1, .prompt_tokens = {4, 5}, .max_new_tokens = 30});
  b1.Admit(&other1, 0.0);
  b1.Admit(&other2, 0.0);

  // Run the target partway on its source backend.
  for (int i = 0; i < 5; ++i) b0.Step(0.0);
  ASSERT_EQ(target.generated, 5);

  // Consolidation: backend 0 (load 1) donates its newest request to
  // backend 1 (load 2) through the scheduler's Cancel + Admit path.
  std::int64_t migrations = 0;
  ASSERT_EQ(sched.ConsolidateOnce(1.0, &migrations), 1);
  EXPECT_EQ(migrations, 1);
  EXPECT_EQ(target.migrations, 1);
  EXPECT_EQ(b0.working_set_size(), 0);
  ASSERT_EQ(b1.Find(target.id), &target);

  // Drain the destination; the migrated stream must be exact.
  while (b1.HasAnyWork()) b1.Step(2.0);
  EXPECT_EQ(target.phase, RequestPhase::kFinished);
  EXPECT_EQ(target.generated_tokens, expected)
      << "scheduler-level migration changed the stream";
}

TEST(SchedulerMigrationTest, MigrationPreservesResolvedEos) {
  // A request that inherited the source engine's engine-wide EOS must keep
  // that stop condition when migrated to an engine with no EOS configured —
  // the stop token is resolved once, at first admission, and pinned.
  Harness h;
  const std::vector<std::int32_t> prompt = {7, 7, 7};

  // Learn a stop token: the 3rd unconstrained output.
  auto free_run = h.Uninterrupted(0, prompt, 10);
  std::int32_t stop = free_run[2];

  EngineConfig with_eos;
  with_eos.max_batch_size = 4;
  with_eos.eos_token = stop;
  Engine source_engine(&h.model, h.model.MakeKvConfig(256), with_eos);
  Engine dest_engine(&h.model, h.model.MakeKvConfig(256));  // no EOS
  EngineBackend src(1, &source_engine);
  EngineBackend dst(0, &dest_engine);

  ServingRequest req = ServingRequest::FromSpec(
      300, {.lora = 0, .prompt_tokens = prompt, .max_new_tokens = 10});
  src.Admit(&req, 0.0);
  EXPECT_EQ(req.eos_token, stop);  // resolved and pinned at admission
  src.Step(0.0);                   // one token generated
  ASSERT_TRUE(src.Cancel(req.id).has_value());

  dst.Admit(&req, 1.0);
  while (dst.HasAnyWork()) dst.Step(1.0);
  // Stopped at the EOS inherited from the source, not at max_new_tokens.
  ASSERT_EQ(req.generated_tokens.size(), 3u);
  EXPECT_EQ(req.generated_tokens.back(), stop);
  EXPECT_TRUE(req.stopped_early);
}

TEST(SchedulerMigrationTest, KvPressureMigrationIsBitIdentical) {
  // KV-pressure path: the source backend's cache is too small for both
  // tenants, so the scheduler evicts the newest and re-routes it to the
  // other backend mid-generation. The migrated stream stays exact.
  Harness h;
  const std::vector<std::int32_t> prompt = {6, 1, 6, 1};
  const int total = 14;
  auto expected = h.Uninterrupted(1, prompt, total);

  EngineConfig cfg;
  cfg.max_batch_size = 4;
  // Source: a tight page pool (page_size 4) that two growing sequences
  // will overflow. Destination: roomy.
  Engine tight(&h.model, h.model.MakeKvConfig(/*num_pages=*/6,
                                              /*page_size=*/4), cfg);
  Engine roomy(&h.model, h.model.MakeKvConfig(512), cfg);
  EngineBackend b_src(1, &tight);
  EngineBackend b_dst(0, &roomy);
  // Index 0 = destination, index 1 = source (highest UUID attracts load).
  Scheduler sched({&b_dst, &b_src});

  // The keeper fits the tight pool alone (5 + 12 ≤ 24 slots) but the two
  // growing sequences together overflow it mid-generation.
  ServingRequest keeper = ServingRequest::FromSpec(
      200, {.lora = 0,
            .prompt_tokens = {9, 8, 7, 6, 5},
            .max_new_tokens = 12});
  ServingRequest target = ServingRequest::FromSpec(
      201, {.lora = 1, .prompt_tokens = prompt, .max_new_tokens = total});
  ASSERT_EQ(sched.Submit(&keeper, 0.0), 1);
  ASSERT_EQ(sched.Submit(&target, 0.1), 1);

  // Step the source until its victim query names the newest request.
  std::int64_t migrations = 0;
  int guard = 0;
  while (b_src.SelectEvictionVictims(1.0).empty()) {
    ASSERT_TRUE(b_src.HasAnyWork());
    b_src.Step(1.0);
    ASSERT_LT(++guard, 100) << "KV pressure never materialised";
  }
  ASSERT_GT(target.generated, 0);  // migration happens mid-generation
  auto touched = sched.MigrateForKvPressure(1, 2.0, &migrations);
  ASSERT_EQ(touched, (std::vector<int>{0}));
  EXPECT_EQ(migrations, 1);
  EXPECT_EQ(target.migrations, 1);
  ASSERT_EQ(b_dst.Find(target.id), &target);

  while (b_dst.HasAnyWork()) b_dst.Step(3.0);
  while (b_src.HasAnyWork()) b_src.Step(3.0);
  EXPECT_EQ(target.phase, RequestPhase::kFinished);
  EXPECT_EQ(target.generated_tokens, expected)
      << "KV-pressure migration changed the stream";
}

}  // namespace
}  // namespace punica
