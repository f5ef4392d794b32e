// The batched LoRA addon operator and LoRA weight containers (paper §4).
//
// A LoRA adapter for one dense projection W ∈ R^{h1×h2} is a pair
// A ∈ R^{h1×r}, B ∈ R^{r×h2}; the fine-tuned projection is W + A·B.
// The batched addon  y += x·A·B  is computed as two SGMV launches through a
// zero-initialised rank-width workspace v:
//     v  = SGMV-shrink(x, A)        (h → r)
//     y += SGMV-expand(v, B)        (r → h)
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/segment.h"
#include "core/sgmv.h"
#include "tensor/half.h"
#include "tensor/tensor.h"

namespace punica {

/// One projection's LoRA pair. A is [h_in, rank], B is [rank, h_out].
struct LoraAB {
  Tensor<f16> a;
  Tensor<f16> b;
  int rank = 0;
  int h_in = 0;
  int h_out = 0;

  /// Uninitialized(h_in, h_out, rank), then its Fills drawn from
  /// Pcg32(seed).
  static LoraAB Random(int h_in, int h_out, int rank, std::uint64_t seed);
  /// Random's pieces, so one thread can allocate what another fills:
  /// Uninitialized allocates unwritten A [h_in, rank] and B [rank, h_out];
  /// Fills lists A then B with their scales, as `stream`.
  static LoraAB Uninitialized(int h_in, int h_out, int rank);
  std::array<GaussianFill, 2> Fills(std::size_t stream);
  std::size_t byte_size() const {
    return (a.numel() + b.numel()) * sizeof(f16);
  }
};

/// Segments the addon path (and its callers' per-projection adapter
/// gathers) handle in inline storage; larger batches fall back to one heap
/// buffer per call.
inline constexpr std::size_t kInlineLoraSegments = 64;

/// Applies the batched LoRA addon for one projection:
///   y[s[i]:s[i+1]] += x[s[i]:s[i+1]] · A_i · B_i
/// `adapters[i]` may be nullptr for a backbone-only segment (skipped).
/// `workspace` must hold rows · max_rank floats; it is used as the
/// intermediate v and zeroed internally. Any extra capacity beyond that
/// backs the shrink kernel's split-K partials (rows · kMaxSplitKPartitions
/// · max_rank floats avoids all hot-path allocation); smaller workspaces
/// stay correct and merely allocate inside.
void BatchedLoraAddon(std::span<float> y, std::span<const float> x,
                      std::span<const LoraAB* const> adapters,
                      std::span<const std::int32_t> seg, int h_in, int h_out,
                      std::span<float> workspace,
                      const ComputeContext& ctx = ComputeContext::Default());

/// Convenience for tests: single-adapter addon over the whole batch.
void LoraAddonSingle(std::span<float> y, std::span<const float> x,
                     const LoraAB& adapter, int rows);

/// FLOP/IO cost of the two-launch addon (sum of shrink + expand SGMV costs).
SgmvCost LoraAddonCostOf(std::span<const std::int32_t> seg, int h_in,
                         int h_out, int rank);

/// Registry of LoRA adapters for one projection shape, keyed by LoraId —
/// the per-GPU "which adapters are resident" table. Lookup returns nullptr
/// for unknown ids so callers can treat missing adapters as backbone-only.
class LoraRegistry {
 public:
  /// Registers (or replaces) an adapter. Returns its byte size.
  std::size_t Put(LoraId id, LoraAB adapter);
  const LoraAB* Get(LoraId id) const;
  bool Contains(LoraId id) const { return Get(id) != nullptr; }
  std::size_t Erase(LoraId id);  ///< Returns bytes freed (0 if absent).
  std::size_t size() const { return adapters_.size(); }
  std::size_t total_bytes() const { return total_bytes_; }

  /// Gathers per-segment weight pointers for a Segments descriptor.
  std::vector<const LoraAB*> GatherSegmentWeights(const Segments& seg) const;

 private:
  std::unordered_map<LoraId, std::unique_ptr<LoraAB>> adapters_;
  std::size_t total_bytes_ = 0;
};

}  // namespace punica
