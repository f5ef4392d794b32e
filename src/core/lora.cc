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
  return {{{stream, 1.0f / std::sqrt(static_cast<float>(h_in)), a.data()},
           {stream, 1.0f / std::sqrt(static_cast<float>(rank)), b.data()}}};
}

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
  std::fill(v.begin(), v.end(), 0.0f);

  bool uniform_rank = true;
  for (const auto* a : adapters) {
    if (a != nullptr && a->rank != max_rank) uniform_rank = false;
  }

  if (uniform_rank) {
    // Launch 1: v = x · A (shrink), launch 2: y += v · B (expand). The
    // per-segment pointer gathers stay inline for typical batches.
    SmallBuffer<const f16*, kInlineLoraSegments> a_ptrs(adapters.size());
    SmallBuffer<const f16*, kInlineLoraSegments> b_ptrs(adapters.size());
    for (std::size_t i = 0; i < adapters.size(); ++i) {
      a_ptrs[i] = adapters[i] != nullptr ? adapters[i]->a.raw() : nullptr;
      b_ptrs[i] = adapters[i] != nullptr ? adapters[i]->b.raw() : nullptr;
    }
    // Workspace beyond the v rows backs the shrink's split-K partials
    // (TpWorkspace sizes it for that); SgmvShrink allocates only when
    // the tail is too small.
    SgmvArgs shrink{v, x, {a_ptrs.data(), a_ptrs.size()}, seg, h_in,
                    max_rank};
    SgmvShrink(shrink, ctx, workspace.subspan(v.size()));
    SgmvArgs expand{y, v, {b_ptrs.data(), b_ptrs.size()}, seg, max_rank,
                    h_out};
    SgmvExpand(expand, ctx);
    return;
  }

  // Mixed ranks: run each segment as its own single-segment SGMV pair with
  // its true rank, its intermediate in the front of v (re-zeroed per
  // segment: the shrink accumulates into it).
  for (std::size_t i = 0; i + 1 < seg.size(); ++i) {
    const LoraAB* ad = adapters[i];
    if (ad == nullptr) continue;
    std::int32_t lo = seg[i];
    std::int32_t hi = seg[i + 1];
    int seg_rows = hi - lo;
    if (seg_rows <= 0) continue;
    const std::array<std::int32_t, 2> sub_seg = {0, seg_rows};
    auto sub_v = v.first(static_cast<std::size_t>(seg_rows) *
                         static_cast<std::size_t>(ad->rank));
    std::fill(sub_v.begin(), sub_v.end(), 0.0f);
    const f16* ap = ad->a.raw();
    const f16* bp = ad->b.raw();
    std::span<const f16* const> a_one(&ap, 1);
    std::span<const f16* const> b_one(&bp, 1);
    SgmvArgs shrink{sub_v,
                    x.subspan(static_cast<std::size_t>(lo) *
                                  static_cast<std::size_t>(h_in),
                              static_cast<std::size_t>(seg_rows) *
                                  static_cast<std::size_t>(h_in)),
                    a_one, sub_seg, h_in, ad->rank};
    // The workspace tail is big enough for any sub-segment's partials
    // (seg_rows <= rows, ad->rank <= max_rank), so no allocation here
    // either.
    SgmvShrink(shrink, ctx, workspace.subspan(v.size()));
    SgmvArgs expand{y.subspan(static_cast<std::size_t>(lo) *
                                  static_cast<std::size_t>(h_out),
                              static_cast<std::size_t>(seg_rows) *
                                  static_cast<std::size_t>(h_out)),
                    sub_v, b_one, sub_seg, ad->rank, h_out};
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
