// Rotary positional embedding (Llama style): rotates each consecutive pair
// within a head's dimension by a position- and frequency-dependent angle.
// Applied to Q and K after projection, before K is written to the KvCache.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/compute_context.h"

namespace punica {

/// Applies RoPE in place to one token's multi-head vector.
/// `x` is [num_heads · head_dim]; `pos` is the absolute token position.
/// Pairing convention: (x[2i], x[2i+1]) within each head, frequencies
/// theta^(-2i/head_dim) — the GPT-NeoX/Llama interleaved variant. The
/// per-call reference the layers' RopeTable path is tested against.
void ApplyRope(std::span<float> x, int num_heads, int head_dim,
               std::int64_t pos, float theta);

/// The rotation angles' cos/sin for every row of one batch, built once per
/// model step and read by every layer, TP rank and head. Row t holds
/// cos/sin(pos_t · theta^(-2i/head_dim)) for i < head_dim/2, each the same
/// float expression ApplyRope evaluates, now once per (row, i) instead of
/// once per (layer, head, row, i). Build only grows its buffers.
class RopeTable {
 public:
  void Build(std::span<const std::int64_t> positions, int head_dim,
             float theta, const ComputeContext& ctx);

  std::size_t rows() const { return rows_; }

  /// Rotates row t's [num_heads · head_dim] vector in place — bit-identical
  /// to ApplyRope at that row's position.
  void Apply(std::size_t t, std::span<float> x, int num_heads) const;

 private:
  std::size_t rows_ = 0;
  std::size_t half_ = 0;
  std::vector<float> freq_;  ///< [half] — position-independent
  std::vector<float> cos_;   ///< [rows, half]
  std::vector<float> sin_;   ///< [rows, half]
};

}  // namespace punica
