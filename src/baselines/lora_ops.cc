#include "baselines/lora_ops.h"

#include <algorithm>
#include <vector>

#include "tensor/gemm.h"
#include "util/check.h"

namespace punica {

void LoopLoraApply(std::span<float> y, std::span<const float> x,
                   std::span<const LoraAB* const> adapters,
                   std::span<const std::int32_t> seg, int h_in, int h_out) {
  PUNICA_CHECK(!seg.empty());
  PUNICA_CHECK(adapters.size() + 1 == seg.size());
  for (std::size_t i = 0; i + 1 < seg.size(); ++i) {
    const LoraAB* ad = adapters[i];
    if (ad == nullptr) continue;
    PUNICA_CHECK(ad->h_in == h_in && ad->h_out == h_out);
    int lo = seg[i];
    int rows = seg[i + 1] - lo;
    if (rows <= 0) continue;
    auto x_seg = x.subspan(static_cast<std::size_t>(lo) *
                               static_cast<std::size_t>(h_in),
                           static_cast<std::size_t>(rows) *
                               static_cast<std::size_t>(h_in));
    auto y_seg = y.subspan(static_cast<std::size_t>(lo) *
                               static_cast<std::size_t>(h_out),
                           static_cast<std::size_t>(rows) *
                               static_cast<std::size_t>(h_out));
    std::vector<float> v(static_cast<std::size_t>(rows) *
                         static_cast<std::size_t>(ad->rank));
    GemmAccF16W(x_seg, ad->a.data(), v, rows, h_in, ad->rank);
    GemmAccF16W(v, ad->b.data(), y_seg, rows, ad->rank, h_out);
  }
}

void GatherBmmLoraApply(std::span<float> y, std::span<const float> x,
                        std::span<const LoraAB* const> adapters,
                        std::span<const std::int32_t> seg, int h_in,
                        int h_out, GatherBmmStats* stats) {
  PUNICA_CHECK(!seg.empty());
  PUNICA_CHECK(adapters.size() + 1 == seg.size());
  const int rows = seg.back();
  if (rows == 0) return;
  int rank = 0;
  for (const auto* ad : adapters) {
    if (ad != nullptr) {
      PUNICA_CHECK_MSG(rank == 0 || ad->rank == rank,
                       "Gather-BMM baseline assumes uniform rank");
      rank = ad->rank;
    }
  }
  if (rank == 0) return;

  // Gather phase 1: stack per-row copies of A ([rows, h_in, rank]).
  std::vector<f16> stacked_a(static_cast<std::size_t>(rows) *
                             static_cast<std::size_t>(h_in) *
                             static_cast<std::size_t>(rank));
  // Gather phase 2 target: stacked B ([rows, rank, h_out]).
  std::vector<f16> stacked_b(static_cast<std::size_t>(rows) *
                             static_cast<std::size_t>(rank) *
                             static_cast<std::size_t>(h_out));
  std::vector<bool> has_adapter(static_cast<std::size_t>(rows), false);
  for (std::size_t i = 0; i + 1 < seg.size(); ++i) {
    const LoraAB* ad = adapters[i];
    if (ad == nullptr) continue;
    for (std::int32_t r = seg[i]; r < seg[i + 1]; ++r) {
      auto ri = static_cast<std::size_t>(r);
      has_adapter[ri] = true;
      std::copy(ad->a.data().begin(), ad->a.data().end(),
                stacked_a.begin() + static_cast<std::ptrdiff_t>(
                                        ri * ad->a.numel()));
      std::copy(ad->b.data().begin(), ad->b.data().end(),
                stacked_b.begin() + static_cast<std::ptrdiff_t>(
                                        ri * ad->b.numel()));
    }
  }

  if (stats != nullptr) {
    double n = 0.0;
    for (const auto* ad : adapters) {
      if (ad != nullptr) n += 1.0;
    }
    double per_model =
        (static_cast<double>(h_in) * rank + static_cast<double>(rank) * h_out) *
        2.0;
    stats->gather_read_bytes = n * per_model;
    stats->gather_write_bytes = static_cast<double>(rows) * per_model;
    stats->bmm_weight_read_bytes = stats->gather_write_bytes;
  }

  // BMM 1: v[r] = x[r] · A_stack[r];  BMM 2: y[r] += v[r] · B_stack[r].
  std::vector<float> v(static_cast<std::size_t>(rank));
  for (int r = 0; r < rows; ++r) {
    auto ri = static_cast<std::size_t>(r);
    if (!has_adapter[ri]) continue;
    std::fill(v.begin(), v.end(), 0.0f);
    auto x_row = x.subspan(ri * static_cast<std::size_t>(h_in),
                           static_cast<std::size_t>(h_in));
    std::span<const f16> a_row(&stacked_a[ri * static_cast<std::size_t>(h_in) *
                                          static_cast<std::size_t>(rank)],
                               static_cast<std::size_t>(h_in) *
                                   static_cast<std::size_t>(rank));
    GemmAccF16W(x_row, a_row, v, /*m=*/1, h_in, rank);
    auto y_row = y.subspan(ri * static_cast<std::size_t>(h_out),
                           static_cast<std::size_t>(h_out));
    std::span<const f16> b_row(&stacked_b[ri * static_cast<std::size_t>(rank) *
                                          static_cast<std::size_t>(h_out)],
                               static_cast<std::size_t>(rank) *
                                   static_cast<std::size_t>(h_out));
    GemmAccF16W(v, b_row, y_row, /*m=*/1, rank, h_out);
  }
}

namespace {

double SumRows(std::span<const std::int32_t> segment_rows) {
  double sn = 0.0;
  for (auto r : segment_rows) sn += r;
  return sn;
}

double CountSegments(std::span<const std::int32_t> segment_rows) {
  double n = 0.0;
  for (auto r : segment_rows) {
    if (r > 0) n += 1.0;
  }
  return n;
}

}  // namespace

double LoopLoraLatency(const CostModel& cm,
                       std::span<const std::int32_t> segment_rows, int h_in,
                       int h_out, int rank) {
  // Each LoRA model runs as its own kernel pair at its own batch size; the
  // per-pair launch overhead is paid n times — why Loop "behaves terribly"
  // in the Distinct case.
  double total = 0.0;
  for (auto rows : segment_rows) {
    if (rows <= 0) continue;
    std::int32_t one[] = {rows};
    total += cm.SgmvPairLatency(one, h_in, h_out, rank);
  }
  return total;
}

double GatherOnlyLatency(const CostModel& cm,
                         std::span<const std::int32_t> segment_rows, int h_in,
                         int h_out, int rank) {
  double sn = SumRows(segment_rows);
  double n = CountSegments(segment_rows);
  if (sn == 0.0 || n == 0.0) return 0.0;
  double per_model =
      (static_cast<double>(h_in) * rank + static_cast<double>(rank) * h_out) *
      2.0;
  // Gather reads each distinct model once and writes one copy per row.
  // torch-style gather achieves a fraction of peak bandwidth on this
  // scatter-copy pattern.
  double bytes = n * per_model + sn * per_model;
  constexpr double kGatherBwEff = 0.35;
  return 2.0 * cm.params().kernel_launch_s +
         bytes / (cm.gpu().hbm_bytes_per_s * kGatherBwEff);
}

double BmmOnlyLatency(const CostModel& cm,
                      std::span<const std::int32_t> segment_rows, int h_in,
                      int h_out, int rank) {
  double sn = SumRows(segment_rows);
  if (sn == 0.0) return 0.0;
  double per_model =
      (static_cast<double>(h_in) * rank + static_cast<double>(rank) * h_out) *
      2.0;
  // BMM must re-read the s_n stacked matrices Gather just wrote (weight
  // reuse is gone), plus activations; per-matrix batch size is 1 so tensor
  // cores are idle — but the reads are contiguous, so bandwidth is decent.
  double act_bytes = sn * (h_in + 2.0 * rank + h_out) * 2.0;
  double bytes = sn * per_model + act_bytes;
  double flop = sn * (static_cast<double>(h_in) * rank +
                      static_cast<double>(rank) * h_out) *
                2.0;
  double mem = bytes / (cm.gpu().hbm_bytes_per_s * 0.75);
  double compute = flop / (cm.gpu().fp16_flops * 0.05);  // no tensor cores
  return 2.0 * cm.params().kernel_launch_s + std::max(mem, compute);
}

double GatherBmmLoraLatency(const CostModel& cm,
                            std::span<const std::int32_t> segment_rows,
                            int h_in, int h_out, int rank) {
  return GatherOnlyLatency(cm, segment_rows, h_in, h_out, rank) +
         BmmOnlyLatency(cm, segment_rows, h_in, h_out, rank) +
         cm.params().sgmv_pair_overhead_s;  // same host-side pairing cost
}

}  // namespace punica
