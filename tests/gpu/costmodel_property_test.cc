// Property sweeps over the cost model: orderings that must hold at *every*
// point of the (batch × sequence-length × model × tp) grid, not just the
// calibration anchors. These protect the figure-generating benches against
// recalibration regressions.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "gpu/costmodel.h"
#include "gpu/specs.h"
#include "model/config.h"

namespace punica {
namespace {

using GridParam = std::tuple<int, int>;  // (batch, kv_len)

class DecodeGrid : public ::testing::TestWithParam<GridParam> {
 protected:
  CostModel cm_{A100Sxm80GB()};
};

TEST_P(DecodeGrid, MonotoneInBatch) {
  auto [batch, len] = GetParam();
  LlamaConfig c = Llama7B();
  double t = cm_.DecodeStepLatency(c, batch, len);
  double t_next = cm_.DecodeStepLatency(c, batch + 1, len);
  EXPECT_GE(t_next, t);
  // And always sublinear: doubling the batch never doubles decode latency.
  double t_double = cm_.DecodeStepLatency(c, batch * 2, len);
  EXPECT_LT(t_double, t * 2.0);
}

TEST_P(DecodeGrid, MonotoneInSequenceLength) {
  auto [batch, len] = GetParam();
  LlamaConfig c = Llama7B();
  EXPECT_LE(cm_.DecodeStepLatency(c, batch, len),
            cm_.DecodeStepLatency(c, batch, len * 2));
}

TEST_P(DecodeGrid, BiggerModelNeverFaster) {
  auto [batch, len] = GetParam();
  EXPECT_LE(cm_.DecodeStepLatency(Llama7B(), batch, len),
            cm_.DecodeStepLatency(Llama13B(), batch, len));
  EXPECT_LE(cm_.DecodeStepLatency(Llama13B(), batch, len),
            cm_.DecodeStepLatency(Llama70B(), batch, len));
}

TEST_P(DecodeGrid, PerTokenCostImprovesWithBatch) {
  // The whole point of batching: amortised per-token latency falls.
  auto [batch, len] = GetParam();
  LlamaConfig c = Llama7B();
  double per_token = cm_.DecodeStepLatency(c, batch, len) / batch;
  double per_token_2x = cm_.DecodeStepLatency(c, batch * 2, len) / (batch * 2);
  EXPECT_LT(per_token_2x, per_token);
}

TEST_P(DecodeGrid, LoraAddonIsBoundedOverhead) {
  // Punica's "+2 ms per token" claim: the LoRA addon adds a bounded, small
  // fraction on top of the backbone step at every grid point.
  auto [batch, len] = GetParam();
  LlamaConfig c = Llama7B();
  StepShape backbone;
  backbone.decode_kv_lens.assign(static_cast<std::size_t>(batch), len);
  StepShape with_lora = backbone;
  with_lora.lora_segment_rows.assign(static_cast<std::size_t>(batch), 1);
  double t_backbone = cm_.StepLatency(c, backbone);
  double t_lora = cm_.StepLatency(c, with_lora);
  EXPECT_GT(t_lora, t_backbone);
  EXPECT_LT(t_lora - t_backbone, 10e-3);  // ≲ a few ms even fully Distinct
  EXPECT_LT(t_lora / t_backbone, 1.75);
}

INSTANTIATE_TEST_SUITE_P(Grid, DecodeGrid,
                         ::testing::Combine(::testing::Values(1, 4, 16, 32),
                                            ::testing::Values(64, 512,
                                                              2048)));

class TpGrid : public ::testing::TestWithParam<int> {
 protected:
  CostModel cm_{A100Sxm40GB()};
};

TEST_P(TpGrid, MoreShardsNeverSlower) {
  int tp = GetParam();
  LlamaConfig c = Llama70B();
  double t = cm_.DecodeStepLatency(c, 32, 512, tp);
  double t2 = cm_.DecodeStepLatency(c, 32, 512, tp * 2);
  EXPECT_LT(t2, t);
  // Sub-ideal scaling: communication overheads keep speedup below 2×.
  EXPECT_GT(t2, t / 2.0);
}

TEST_P(TpGrid, LoraCostShrinksWithShards) {
  int tp = GetParam();
  LlamaConfig c = Llama70B();
  std::vector<std::int32_t> distinct(32, 1);
  EXPECT_GT(cm_.LoraLayerAddonLatency(c, distinct, 16, tp),
            cm_.LoraLayerAddonLatency(c, distinct, 16, tp * 2));
}

INSTANTIATE_TEST_SUITE_P(Degrees, TpGrid, ::testing::Values(1, 2, 4));

class SegmentShapeGrid : public ::testing::TestWithParam<int> {
 protected:
  CostModel cm_{A100Sxm80GB()};
};

TEST_P(SegmentShapeGrid, FewerSegmentsSameRowsNeverSlower) {
  // Merging segments (more weight sharing) can only help SGMV.
  int batch = GetParam();
  for (int segs = 1; segs * 2 <= batch; segs *= 2) {
    std::vector<std::int32_t> coarse(static_cast<std::size_t>(segs),
                                     batch / segs);
    std::vector<std::int32_t> fine(static_cast<std::size_t>(segs * 2),
                                   batch / (segs * 2));
    EXPECT_LE(cm_.SgmvPairLatency(coarse, 4096, 4096, 16),
              cm_.SgmvPairLatency(fine, 4096, 4096, 16) + 1e-12)
        << "batch " << batch << " segs " << segs;
  }
}

TEST_P(SegmentShapeGrid, RankMonotone) {
  int batch = GetParam();
  std::vector<std::int32_t> distinct(static_cast<std::size_t>(batch), 1);
  double prev = 0.0;
  for (int rank : {8, 16, 32, 64}) {
    double t = cm_.SgmvPairLatency(distinct, 4096, 4096, rank);
    EXPECT_GE(t, prev);
    prev = t;
  }
}

INSTANTIATE_TEST_SUITE_P(Batches, SegmentShapeGrid,
                         ::testing::Values(4, 8, 16, 32, 64));

// --- Shared-prefix prefill (the prefix-hit term) ---

class PrefixHitGrid : public ::testing::TestWithParam<int> {
 protected:
  CostModel cm_{A100Sxm80GB()};
};

TEST_P(PrefixHitGrid, SuffixPrefillCheaperThanColdNeverFree) {
  // A chunk that is the suffix of a longer cached span must cost less than
  // prefilling the whole span cold, but more than a cold prefill of just
  // the chunk (it attends over the full cached kv).
  int kv = GetParam();
  LlamaConfig c = Llama7B();
  std::vector<std::int32_t> chunk = {kv / 2};
  std::vector<std::int64_t> full_kv = {kv};
  std::vector<std::int64_t> chunk_kv = {kv / 2};
  std::vector<std::int32_t> full_chunk = {kv};
  double hit = cm_.AttentionPrefillLatency(c, chunk, full_kv, 1);
  double cold_full = cm_.AttentionPrefillLatency(c, full_chunk, full_kv, 1);
  double cold_half = cm_.AttentionPrefillLatency(c, chunk, chunk_kv, 1);
  // At short kv the kernel is KV-read-bound and both stream the same full
  // span — hence ≤, with strict savings once compute matters (kv ≥ 512).
  EXPECT_LE(hit, cold_full);
  if (kv >= 512) {
    EXPECT_LT(hit, cold_full);
  }
  EXPECT_GE(hit, cold_half);
}

TEST_P(PrefixHitGrid, HitShavesWholeStepLatency) {
  // Through StepLatency: the same request with a cached prefix is cheaper.
  int kv = GetParam();
  LlamaConfig c = Llama7B();
  StepShape cold;
  cold.prefill_chunks = {static_cast<std::int32_t>(kv)};
  cold.prefill_kv_lens = {kv};
  StepShape hit = cold;
  hit.prefill_chunks = {static_cast<std::int32_t>(kv / 4)};
  EXPECT_LT(cm_.StepLatency(c, hit), cm_.StepLatency(c, cold));
}

INSTANTIATE_TEST_SUITE_P(KvLens, PrefixHitGrid,
                         ::testing::Values(128, 512, 2048));

}  // namespace
}  // namespace punica
