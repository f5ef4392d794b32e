// Cross-validation between the measured tensor-parallel execution tier and
// the analytical cost model — the TP counterpart of
// costmodel_paper_anchors_test, which pins the model to the paper's numbers.
//
// Part A pins the model's own 70B TP scaling curve (deterministic, every
// build): monotone, sublinear, inside a band recorded from the calibrated
// model, with the all-reduce term visibly paid and the KvCache capacity
// freed by sharding growing with tp. It also checks the analytic invariant
// Part B measures against: with every fixed overhead zeroed the model is a
// pure roofline, and a decode step's predicted speedup at degree tp is
// exactly tp (all byte and FLOP terms divide by tp).
//
// Part B runs the real numeric model in per-rank-worker configuration
// (tp ranks × 1 worker each, vs tp=1 × 1 worker) and bounds the measured
// speedup against that roofline prediction. It needs real parallel
// hardware and un-instrumented code, so it skips itself on small hosts and
// in non-Release builds; CI's release job is where it bites.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "gpu/costmodel.h"
#include "gpu/specs.h"
#include "kvcache/kvcache.h"
#include "model/config.h"
#include "model/llama.h"
#include "util/rng.h"

namespace punica {
namespace {

// Fig. 12 decode shape: Llama-2 70B, batch 32, mid-stream KV length.
constexpr int kBatch = 32;
constexpr std::int64_t kKvLen = 1550;

TEST(TpCostModelAgreement, SeventyBDecodeSpeedupCurve) {
  CostModel cm(A100Sxm80GB());
  LlamaConfig c = Llama70B();
  double t1 = cm.DecodeStepLatency(c, kBatch, kKvLen, 1);
  std::vector<int> degrees = {2, 4, 8};
  // Calibrated-model values: 1.33 / 1.92 / 2.48. The band is ±20% so
  // parameter recalibration can move the curve without retuning the test,
  // while regressions that flatten or invert the curve still fail.
  std::vector<double> expected = {1.33, 1.92, 2.48};
  double prev = 1.0;
  for (std::size_t i = 0; i < degrees.size(); ++i) {
    int tp = degrees[i];
    double speedup = t1 / cm.DecodeStepLatency(c, kBatch, kKvLen, tp);
    SCOPED_TRACE("tp=" + std::to_string(tp));
    EXPECT_GT(speedup, prev);                  // monotone
    EXPECT_LT(speedup, static_cast<double>(tp));  // sublinear: decode is
    // bandwidth-bound and the per-layer all-reduces + step overhead do not
    // shard, so the curve must bend below ideal.
    EXPECT_GT(speedup, expected[i] * 0.8);
    EXPECT_LT(speedup, expected[i] * 1.2);
    prev = speedup;
  }
}

TEST(TpCostModelAgreement, AllReduceTermIsVisible) {
  // Zeroing only the all-reduce overhead must strictly improve every tp>1
  // latency: the communication seam the concurrent executor synchronizes at
  // is a real term in the model, not a free barrier.
  CostModel with(A100Sxm80GB());
  CostModel without(A100Sxm80GB());
  without.mutable_params().allreduce_overhead_s = 0.0;
  LlamaConfig c = Llama70B();
  EXPECT_EQ(with.DecodeStepLatency(c, kBatch, kKvLen, 1),
            without.DecodeStepLatency(c, kBatch, kKvLen, 1));
  for (int tp : {2, 4, 8}) {
    EXPECT_LT(without.DecodeStepLatency(c, kBatch, kKvLen, tp),
              with.DecodeStepLatency(c, kBatch, kKvLen, tp))
        << "tp=" << tp;
  }
}

TEST(TpCostModelAgreement, KvCapacityGrowsWithSharding) {
  CostModel cm(A100Sxm80GB());
  LlamaConfig c = Llama70B();
  // 70B f16 weights exceed one 80 GB GPU: capacity only exists under TP.
  EXPECT_EQ(cm.KvCacheCapacityTokens(c, 1), 0);
  std::int64_t prev = 0;
  for (int tp : {2, 4, 8}) {
    std::int64_t cap = cm.KvCacheCapacityTokens(c, tp);
    EXPECT_GT(cap, prev) << "tp=" << tp;
    prev = cap;
  }
  // Superlinear growth: doubling tp more than doubles free KV bytes because
  // the weight shard halves too.
  EXPECT_GT(cm.KvCacheCapacityTokens(c, 8),
            2 * cm.KvCacheCapacityTokens(c, 4));
}

CostModel RooflineOnly() {
  CostModel cm(A100Sxm80GB());
  auto& p = cm.mutable_params();
  p.kernel_launch_s = 0.0;
  p.attn_kernel_overhead_s = 0.0;
  p.layer_overhead_s = 0.0;
  p.step_overhead_s = 0.0;
  p.allreduce_overhead_s = 0.0;
  // A GPU launch constant per SGMV pair; it does not shard, so left in it
  // would dominate the LoRA prediction instead of the roofline terms.
  p.sgmv_pipelined_overhead_s = 0.0;
  return cm;
}

/// The numeric-tier TP bench shape (bench_fig12_70b_tp.cc): big enough that
/// per-rank GEMMs dominate, divisible by every swept degree.
LlamaConfig BenchConfig() {
  return {.name = "tp-bench",
          .hidden_size = 256,
          .num_layers = 4,
          .num_heads = 8,
          .num_kv_heads = 8,
          .ffn_hidden = 1024,
          .vocab_size = 512};
}

TEST(TpCostModelAgreement, RooflinePredictsNearIdealComputeScaling) {
  // With every fixed overhead zeroed the model is a pure roofline and each
  // compute term — weight stream, GEMM FLOPs, KV gather, LM head bytes —
  // divides by tp. Only the ring all-reduce *payload* (a bandwidth term,
  // not an overhead constant) survives, so predicted decode speedup sits
  // just below ideal: within 10% of tp, never above it. This is the
  // analytic prediction the measured test below is bounded against.
  CostModel cm = RooflineOnly();
  for (const LlamaConfig& c : {Llama70B(), BenchConfig()}) {
    double t1 = cm.DecodeStepLatency(c, 8, 64, 1);
    for (int tp : {2, 4, 8}) {
      double speedup = t1 / cm.DecodeStepLatency(c, 8, 64, tp);
      SCOPED_TRACE(c.name + " tp=" + std::to_string(tp));
      EXPECT_LE(speedup, static_cast<double>(tp));
      EXPECT_GT(speedup, 0.90 * tp);
    }
  }
}

TEST(TpCostModelAgreement, LoraAddonKernelTimeDividesByTp) {
  // The SGMV addon follows the backbone's Megatron split: B column-sharded
  // at the Q/K/V/Gate/Up seams, A row-sharded at O/Down. Kernel IO and
  // FLOPs divide by tp; the per-pair pipelined launch overhead does not.
  // With that overhead zeroed the division must be exact — this is the
  // analytic half of the per-rank SGMV speedup the lora_tp bench measures.
  LlamaConfig c = Llama70B();
  std::vector<std::int32_t> segs = {8, 8, 8, 8};
  CostModel kernels_only(A100Sxm80GB());
  kernels_only.mutable_params().sgmv_pipelined_overhead_s = 0.0;
  double base = kernels_only.LoraLayerAddonLatency(c, segs, /*rank=*/16, 1);
  for (int tp : {2, 4, 8}) {
    EXPECT_DOUBLE_EQ(base / tp,
                     kernels_only.LoraLayerAddonLatency(c, segs, 16, tp))
        << "tp=" << tp;
  }
  // With the launch overheads back, the addon keeps a non-sharding floor of
  // seven pipelined pairs per layer — speedup must bend below ideal.
  CostModel cm(A100Sxm80GB());
  double t1 = cm.LoraLayerAddonLatency(c, segs, 16, 1);
  for (int tp : {2, 4, 8}) {
    double t = cm.LoraLayerAddonLatency(c, segs, 16, tp);
    EXPECT_GT(t, t1 / tp) << "tp=" << tp;
    EXPECT_GE(t, 7.0 * cm.params().sgmv_pipelined_overhead_s);
  }
}

TEST(TpCostModelAgreement, LoraDeltaAddsNoAllReduceTerm) {
  // The execution tier folds every rank's row-parallel LoRA delta into the
  // backbone's existing post-attention / post-MLP all-reduces (x·A_r·B
  // summed over ranks IS x·A·B), so serving adapters under TP costs zero
  // extra communication. Cross-validate that the model agrees: the LoRA
  // delta — step(lora) − step(backbone) at identical token shape — must be
  // independent of the all-reduce overhead at every degree (to fp rounding:
  // an actual extra per-layer all-reduce would move the delta by ~24 ms,
  // fifteen orders of magnitude above the tolerance).
  StepShape backbone;
  backbone.decode_kv_lens.assign(kBatch, kKvLen);
  StepShape lora = backbone;
  lora.lora_segment_rows = {8, 8, 8, 8};
  lora.lora_rank = 16;
  LlamaConfig c = Llama70B();
  CostModel with(A100Sxm80GB());
  CostModel without(A100Sxm80GB());
  without.mutable_params().allreduce_overhead_s = 0.0;
  for (int tp : {1, 2, 4, 8}) {
    backbone.tp_degree = tp;
    lora.tp_degree = tp;
    double delta_with = with.StepLatency(c, lora) - with.StepLatency(c, backbone);
    double delta_without =
        without.StepLatency(c, lora) - without.StepLatency(c, backbone);
    EXPECT_NEAR(delta_with, delta_without, 1e-12) << "tp=" << tp;
    EXPECT_GT(delta_with, 0.0) << "tp=" << tp;
    if (tp > 1) {
      // …while the all-reduce term itself stays visible in the LoRA step.
      EXPECT_LT(without.StepLatency(c, lora), with.StepLatency(c, lora))
          << "tp=" << tp;
    }
  }
  // And the delta is pure SGMV: with every overhead zeroed it divides by tp
  // exactly, layer count and all.
  CostModel roofline = RooflineOnly();
  backbone.tp_degree = 1;
  lora.tp_degree = 1;
  double delta1 =
      roofline.StepLatency(c, lora) - roofline.StepLatency(c, backbone);
  for (int tp : {2, 4, 8}) {
    backbone.tp_degree = tp;
    lora.tp_degree = tp;
    double delta =
        roofline.StepLatency(c, lora) - roofline.StepLatency(c, backbone);
    EXPECT_NEAR(delta, delta1 / tp, 1e-12) << "tp=" << tp;
  }
}

/// Median-free best-of-N timing of `steps` decode Forward calls.
double TimeDecodeSteps(LlamaModel& model, const ModelBatch& batch,
                       std::span<const std::int32_t> ids, PagedKvCache& kv,
                       int steps, int reps) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    for (int s = 0; s < steps; ++s) model.Forward(batch, ids, kv);
    auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best / steps;
}

TEST(TpCostModelAgreement, MeasuredPerRankScalingTracksRoofline) {
#ifndef NDEBUG
  GTEST_SKIP() << "timing test: Release builds only";
#endif
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw < 4) GTEST_SKIP() << "needs >= 4 hardware threads, have " << hw;

  // Per-rank-worker configuration: degree tp runs on tp workers (one per
  // rank group), so each rank's compute shrinks by tp while its worker
  // count stays 1 — the measured analogue of the roofline's per-GPU terms.
  // The prediction (ideal tp, by the test above) is an upper envelope;
  // the band below allows scheduling noise, the unsharded embedding/LM-head
  // serial fraction, and shared caches, but fails if concurrency collapses
  // (ratio → 1/tp) or something double-counts work (ratio > 1.25).
  LlamaConfig c = BenchConfig();
  CostModel roofline = RooflineOnly();
  const int kSeqs = 8;
  const std::int64_t kHist = 64;

  auto measure = [&](int tp) {
    ComputeContext ctx({.num_threads = tp});
    LlamaModel model(c, 7, &ctx, tp, /*tp_concurrent=*/tp > 1);
    PagedKvCache kv(model.MakeKvConfig(/*num_pages=*/256, /*page_size=*/16));
    Pcg32 rng(11);
    std::vector<BatchEntry> specs;
    for (int s = 0; s < kSeqs; ++s) {
      SeqId id = kv.CreateSequence();
      EXPECT_TRUE(kv.Extend(id, kHist + 1));
      for (int l = 0; l < c.num_layers; ++l) {
        for (std::int64_t p = 0; p < kHist; ++p) {
          for (auto slot : {KvSlot::kKey, KvSlot::kValue}) {
            auto e = kv.Entry(id, l, p, slot);
            for (auto& v : e) {
              v = f16(static_cast<float>(rng.NextGaussian()) * 0.25f);
            }
          }
        }
      }
      specs.push_back({.seq = id, .lora = -1, .num_tokens = 1,
                       .pos_offset = kHist, .is_prefill = false});
    }
    ModelBatch batch = ModelBatch::Build(specs);
    std::vector<std::int32_t> ids(kSeqs, 3);
    return TimeDecodeSteps(model, batch, ids, kv, /*steps=*/4, /*reps=*/5);
  };

  double t1 = measure(1);
  double pred1 = roofline.DecodeStepLatency(c, kSeqs, kHist, 1);
  for (int tp : {2, 4}) {
    if (tp > hw) break;
    double t = measure(tp);
    double measured = t1 / t;
    double predicted =
        pred1 / roofline.DecodeStepLatency(c, kSeqs, kHist, tp);
    double ratio = measured / predicted;
    RecordProperty("measured_speedup_tp" + std::to_string(tp), measured);
    EXPECT_GT(ratio, 0.30) << "tp=" << tp << " measured " << measured
                           << "x vs predicted " << predicted << "x";
    EXPECT_LT(ratio, 1.25) << "tp=" << tp << " measured " << measured
                           << "x vs predicted " << predicted << "x";
  }
}

TEST(TpCostModelAgreement, MeasuredLoraTpScalingTracksRoofline) {
#ifndef NDEBUG
  GTEST_SKIP() << "timing test: Release builds only";
#endif
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw < 4) GTEST_SKIP() << "needs >= 4 hardware threads, have " << hw;

  // The LoRA-active analogue of the per-rank scaling test above: half the
  // decode batch runs adapter 0, half adapter 1, so every step pays the
  // sharded SGMV shrink/expand on all seven seams plus the backbone. The
  // roofline prediction threads the same lora_segment_rows through
  // StepShape; agreement here pins the measured execution tier to the
  // cost-model term the lora_tp CI gate freezes.
  LlamaConfig c = BenchConfig();
  CostModel roofline = RooflineOnly();
  const int kSeqs = 8;
  const std::int64_t kHist = 64;
  const int kRank = 16;

  auto measure = [&](int tp) {
    ComputeContext ctx({.num_threads = tp});
    LlamaModel model(c, 7, &ctx, tp, /*tp_concurrent=*/tp > 1);
    model.AddLora(0, kRank, /*seed=*/21);
    model.AddLora(1, kRank, /*seed=*/22);
    // Draw both adapters now: no timed step pays a first-use draw.
    for (LoraId id : {0, 1}) {
      if (tp == 1) {
        model.GetLora(id);
      } else {
        model.GetLoraShards(id);
      }
    }
    PagedKvCache kv(model.MakeKvConfig(/*num_pages=*/256, /*page_size=*/16));
    Pcg32 rng(11);
    std::vector<BatchEntry> specs;
    for (int s = 0; s < kSeqs; ++s) {
      SeqId id = kv.CreateSequence();
      EXPECT_TRUE(kv.Extend(id, kHist + 1));
      for (int l = 0; l < c.num_layers; ++l) {
        for (std::int64_t p = 0; p < kHist; ++p) {
          for (auto slot : {KvSlot::kKey, KvSlot::kValue}) {
            auto e = kv.Entry(id, l, p, slot);
            for (auto& v : e) {
              v = f16(static_cast<float>(rng.NextGaussian()) * 0.25f);
            }
          }
        }
      }
      specs.push_back({.seq = id, .lora = s < kSeqs / 2 ? 0 : 1,
                       .num_tokens = 1, .pos_offset = kHist,
                       .is_prefill = false});
    }
    ModelBatch batch = ModelBatch::Build(specs);
    std::vector<std::int32_t> ids(kSeqs, 3);
    return TimeDecodeSteps(model, batch, ids, kv, /*steps=*/4, /*reps=*/5);
  };

  auto predict = [&](int tp) {
    StepShape shape;
    shape.decode_kv_lens.assign(kSeqs, kHist);
    shape.lora_segment_rows = {kSeqs / 2, kSeqs / 2};
    shape.lora_rank = kRank;
    shape.tp_degree = tp;
    return roofline.StepLatency(c, shape);
  };

  double t1 = measure(1);
  double pred1 = predict(1);
  for (int tp : {2, 4}) {
    if (tp > hw) break;
    double measured = t1 / measure(tp);
    double predicted = pred1 / predict(tp);
    double ratio = measured / predicted;
    RecordProperty("lora_measured_speedup_tp" + std::to_string(tp), measured);
    EXPECT_GT(ratio, 0.30) << "tp=" << tp << " measured " << measured
                           << "x vs predicted " << predicted << "x";
    EXPECT_LT(ratio, 1.25) << "tp=" << tp << " measured " << measured
                           << "x vs predicted " << predicted << "x";
  }
}

}  // namespace
}  // namespace punica
