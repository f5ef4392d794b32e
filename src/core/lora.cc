#include "core/lora.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/check.h"
#include "util/rng.h"
#include "util/small_buffer.h"

namespace punica {

LoraAB LoraAB::Random(int h_in, int h_out, int rank, std::uint64_t seed) {
  LoraAB w = Uninitialized(h_in, h_out, rank);
  Pcg32 rng(seed);
  for (const GaussianFill& f : w.Fills(0)) {
    FillGaussianF16(rng, f.scale, f.dst);
  }
  return w;
}

LoraAB LoraAB::Uninitialized(int h_in, int h_out, int rank) {
  PUNICA_CHECK(h_in > 0 && h_out > 0 && rank > 0);
  LoraAB w;
  w.rank = rank;
  w.h_in = h_in;
  w.h_out = h_out;
  w.a = Tensor<f16>::Uninitialized({h_in, rank});
  w.b = Tensor<f16>::Uninitialized({rank, h_out});
  return w;
}

std::array<GaussianFill, 2> LoraAB::Fills(std::size_t stream) {
  // Kaiming-style scale for A; B small (LoRA initialises B=0 for training,
  // but serving benchmarks need non-trivial values — paper uses random
  // weights since values do not affect latency).
  return {{{stream, 1.0f / std::sqrt(static_cast<float>(h_in)),
            a.mutable_data()},
           {stream, 1.0f / std::sqrt(static_cast<float>(rank)),
            b.mutable_data()}}};
}

namespace {

/// True when every non-null adapter has rank `max_rank`: v is then one
/// [rows, max_rank] block and each half is one SGMV launch over all
/// segments.
bool UniformRank(std::span<const LoraAB* const> adapters, int max_rank) {
  return std::all_of(adapters.begin(), adapters.end(), [&](const LoraAB* a) {
    return a == nullptr || a->rank == max_rank;
  });
}

/// Segment i's v rows (see LoraShrinkRows): seg[i] · max_rank on, at row
/// stride `rank`.
template <typename T>
std::span<T> SegmentV(std::span<T> v, std::span<const std::int32_t> seg,
                      std::size_t i, int max_rank, int rank) {
  return v.subspan(static_cast<std::size_t>(seg[i]) *
                       static_cast<std::size_t>(max_rank),
                   static_cast<std::size_t>(seg[i + 1] - seg[i]) *
                       static_cast<std::size_t>(rank));
}

/// Rows [lo, lo + n) of a row-major matrix of width `w`.
template <typename T>
std::span<T> Rows(std::span<T> m, std::int64_t lo, std::int64_t n, int w) {
  return m.subspan(static_cast<std::size_t>(lo) * static_cast<std::size_t>(w),
                   static_cast<std::size_t>(n) * static_cast<std::size_t>(w));
}

}  // namespace

void BatchedLoraAddon(std::span<float> y, std::span<const float> x,
                      std::span<const LoraAB* const> adapters,
                      std::span<const std::int32_t> seg, int h_in, int h_out,
                      std::span<float> workspace, const ComputeContext& ctx) {
  PUNICA_CHECK(!seg.empty());
  PUNICA_CHECK(adapters.size() + 1 == seg.size());
  const int rows = seg.back();
  if (rows == 0) return;

  int max_rank = 0;
  for (const auto* a : adapters) {
    if (a == nullptr) continue;
    PUNICA_CHECK_MSG(a->h_in == h_in && a->h_out == h_out,
                     "adapter shape mismatch");
    max_rank = std::max(max_rank, a->rank);
  }
  if (max_rank == 0) return;  // all segments backbone-only
  PUNICA_CHECK(workspace.size() >= static_cast<std::size_t>(rows) *
                                       static_cast<std::size_t>(max_rank));

  auto v = workspace.first(static_cast<std::size_t>(rows) *
                           static_cast<std::size_t>(max_rank));
  // Workspace beyond the v rows backs the shrink's split-K partials
  // (TpWorkspace sizes it for that); SgmvShrink allocates only when the
  // tail is too small, and it is big enough for any sub-segment's.
  const std::span<float> partials = workspace.subspan(v.size());
  if (UniformRank(adapters, max_rank)) {
    // Launch 1: v = x · A (shrink) over all segments. The per-segment
    // pointer gather stays inline for typical batches.
    SmallBuffer<const f16*, kInlineLoraSegments> a_ptrs(adapters.size());
    for (std::size_t i = 0; i < adapters.size(); ++i) {
      a_ptrs[i] = adapters[i] != nullptr ? adapters[i]->a.raw() : nullptr;
    }
    std::fill(v.begin(), v.end(), 0.0f);
    SgmvArgs shrink{v, x, {a_ptrs.data(), a_ptrs.size()}, seg, h_in,
                    max_rank};
    SgmvShrink(shrink, ctx, partials);
  } else {
    // Mixed ranks: each segment shrinks as its own single-segment SGMV at
    // its true rank into its v rows.
    for (std::size_t i = 0; i + 1 < seg.size(); ++i) {
      const LoraAB* ad = adapters[i];
      const std::int32_t seg_rows = seg[i + 1] - seg[i];
      if (ad == nullptr || seg_rows <= 0) continue;
      const std::array<std::int32_t, 2> sub_seg = {0, seg_rows};
      const f16* ap = ad->a.raw();
      auto sub_v = SegmentV(v, seg, i, max_rank, ad->rank);
      std::fill(sub_v.begin(), sub_v.end(), 0.0f);
      SgmvArgs shrink{sub_v, Rows(x, seg[i], seg_rows, h_in),
                      std::span<const f16* const>(&ap, 1), sub_seg, h_in,
                      ad->rank};
      SgmvShrink(shrink, ctx, partials);
    }
  }
  // Launch 2: y += v · B (expand).
  LoraExpand(y, v, adapters, seg, h_out, max_rank, ctx);
}

void LoraShrinkRows(std::span<float> v, std::span<const float> x,
                    std::span<const LoraAB* const> adapters,
                    std::span<const std::int32_t> seg, int h_in,
                    int max_rank, std::int64_t row_lo, std::int64_t row_hi) {
  PUNICA_CHECK(adapters.size() + 1 == seg.size());
  PUNICA_CHECK(v.size() >= static_cast<std::size_t>(seg.back()) *
                               static_cast<std::size_t>(max_rank));
  // Each segment piece inside [row_lo, row_hi) shrinks as a single-segment
  // SGMV at its own rank; for a uniform rank its v rows are exactly the
  // [rows, max_rank] block's.
  auto it = std::upper_bound(seg.begin(), seg.end(),
                             static_cast<std::int32_t>(row_lo));
  for (auto i = static_cast<std::size_t>(it - seg.begin()) - 1;
       i + 1 < seg.size() && seg[i] < row_hi; ++i) {
    const LoraAB* ad = adapters[i];
    const std::int32_t seg_rows = seg[i + 1] - seg[i];
    if (ad == nullptr || seg_rows <= 0) continue;
    PUNICA_CHECK_MSG(ad->h_in == h_in && ad->rank <= max_rank,
                     "adapter shape mismatch");
    const std::int64_t lo = std::max<std::int64_t>(row_lo, seg[i]) - seg[i];
    const std::int64_t hi = std::min<std::int64_t>(row_hi, seg[i + 1]) - seg[i];
    const std::array<std::int32_t, 2> sub_seg = {0, seg_rows};
    const f16* ap = ad->a.raw();
    auto sub_v = SegmentV(v, seg, i, max_rank, ad->rank);
    auto piece = Rows(sub_v, lo, hi - lo, ad->rank);
    std::fill(piece.begin(), piece.end(), 0.0f);
    SgmvShrinkRows({sub_v, Rows(x, seg[i], seg_rows, h_in),
                    std::span<const f16* const>(&ap, 1), sub_seg, h_in,
                    ad->rank},
                   lo, hi);
  }
}

void LoraExpand(std::span<float> y, std::span<const float> v,
                std::span<const LoraAB* const> adapters,
                std::span<const std::int32_t> seg, int h_out, int max_rank,
                const ComputeContext& ctx) {
  PUNICA_CHECK(adapters.size() + 1 == seg.size());
  const int rows = seg.back();
  if (rows == 0 || max_rank == 0) return;
  for (const auto* a : adapters) {
    PUNICA_CHECK_MSG(a == nullptr || (a->h_out == h_out &&
                                      a->rank <= max_rank),
                     "adapter shape mismatch");
  }
  if (UniformRank(adapters, max_rank)) {
    SmallBuffer<const f16*, kInlineLoraSegments> b_ptrs(adapters.size());
    for (std::size_t i = 0; i < adapters.size(); ++i) {
      b_ptrs[i] = adapters[i] != nullptr ? adapters[i]->b.raw() : nullptr;
    }
    SgmvArgs expand{y, Rows(v, 0, rows, max_rank),
                    {b_ptrs.data(), b_ptrs.size()}, seg, max_rank, h_out};
    SgmvExpand(expand, ctx);
    return;
  }
  for (std::size_t i = 0; i + 1 < seg.size(); ++i) {
    const LoraAB* ad = adapters[i];
    const std::int32_t seg_rows = seg[i + 1] - seg[i];
    if (ad == nullptr || seg_rows <= 0) continue;
    const std::array<std::int32_t, 2> sub_seg = {0, seg_rows};
    const f16* bp = ad->b.raw();
    SgmvArgs expand{Rows(y, seg[i], seg_rows, h_out),
                    SegmentV(v, seg, i, max_rank, ad->rank),
                    std::span<const f16* const>(&bp, 1), sub_seg, ad->rank,
                    h_out};
    SgmvExpand(expand, ctx);
  }
}

void LoraAddonSingle(std::span<float> y, std::span<const float> x,
                     const LoraAB& adapter, int rows) {
  std::vector<std::int32_t> seg = {0, rows};
  const LoraAB* ptr = &adapter;
  std::vector<float> workspace(static_cast<std::size_t>(rows) *
                               static_cast<std::size_t>(adapter.rank));
  BatchedLoraAddon(y, x, std::span<const LoraAB* const>(&ptr, 1), seg,
                   adapter.h_in, adapter.h_out, workspace);
}

SgmvCost LoraAddonCostOf(std::span<const std::int32_t> seg, int h_in,
                         int h_out, int rank) {
  SgmvCost shrink = SgmvCostOf(seg, h_in, rank);
  SgmvCost expand = SgmvCostOf(seg, rank, h_out);
  return {shrink.flop + expand.flop, shrink.io_bytes + expand.io_bytes};
}

std::size_t LoraRegistry::Put(LoraId id, LoraAB adapter) {
  std::size_t bytes = adapter.byte_size();
  auto it = adapters_.find(id);
  if (it != adapters_.end()) {
    total_bytes_ -= it->second->byte_size();
    *it->second = std::move(adapter);
  } else {
    adapters_.emplace(id, std::make_unique<LoraAB>(std::move(adapter)));
  }
  total_bytes_ += bytes;
  return bytes;
}

const LoraAB* LoraRegistry::Get(LoraId id) const {
  auto it = adapters_.find(id);
  return it == adapters_.end() ? nullptr : it->second.get();
}

std::size_t LoraRegistry::Erase(LoraId id) {
  auto it = adapters_.find(id);
  if (it == adapters_.end()) return 0;
  std::size_t bytes = it->second->byte_size();
  total_bytes_ -= bytes;
  adapters_.erase(it);
  return bytes;
}

std::vector<const LoraAB*> LoraRegistry::GatherSegmentWeights(
    const Segments& seg) const {
  std::vector<const LoraAB*> out;
  out.reserve(seg.lora_ids.size());
  for (auto id : seg.lora_ids) {
    out.push_back(Get(id));
  }
  return out;
}

}  // namespace punica
