// IEEE-754 binary16 ("half") storage type.
//
// Punica stores model and LoRA weights in fp16 and accumulates in fp32; this
// type reproduces that storage format bit-exactly in portable C++ (round-to-
// nearest-even conversion, subnormals, infinities, NaN), so numeric tests see
// the same quantisation the GPU kernels would.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace punica {

class ComputeContext;
class Pcg32;

std::uint16_t FloatToHalfBits(float f);
float HalfBitsToFloat(std::uint16_t bits);

class f16;

/// Bulk span conversions over contiguous fp16 storage (weight stripes,
/// KV-cache entries, embedding rows). Runtime-SIMD dispatched: F16C when
/// the native path is compiled in and the CPU supports it, the scalar loop
/// otherwise — bit-identical either way for all non-NaN values (both round
/// to nearest even). Spans must be equal-length.
void HalfToFloatN(std::span<const f16> src, std::span<float> dst);
void FloatToHalfN(std::span<const float> src, std::span<f16> dst);

/// The synthetic-weight draw: dst[i] = f16(float(g_i) · scale), g_i the
/// i-th rng.NextGaussian(), leaving rng exactly where those calls would
/// (cached deviate included). At the scalar level it is that libm loop; the
/// vector levels draw whole pairs through SimdOps::pcg_uniform_pairs and
/// box_muller_f16 — bit-identical by construction — and leave a leading
/// cached deviate, an odd tail and any u1 == 0 redraw to the libm loop.
void FillGaussianF16(Pcg32& rng, float scale, std::span<f16> dst);

/// One tensor of a multi-stream draw: FillGaussianF16(rng, scale, dst) on
/// stream `stream`'s generator, after that stream's earlier fills.
struct GaussianFill {
  std::size_t stream = 0;
  float scale = 1.0f;
  std::span<f16> dst;
};

/// Draws `fills` in list order per stream, each stream from a copy of its
/// starting generator in `streams`, with the bits of that serial loop at
/// any thread count — as tasks on ctx of at most 2^15 deviates, every task
/// starting its stream with Pcg32::Advance at two NextU32 per deviate.
/// That position holds only while the stream's deviates come in whole
/// pairs without a u1 == 0 redraw: a stream that starts on a cached
/// deviate or has an odd-length fill before its last is drawn as one task,
/// and a stream where a task's generator does not end at its predicted
/// state (a redraw) is drawn again serially. Workers only write into the
/// spans; nothing is allocated on them.
void FillGaussianF16Parallel(std::span<const Pcg32> streams,
                             std::span<const GaussianFill> fills,
                             const ComputeContext& ctx);

class f16 {
 public:
  f16() = default;
  explicit f16(float f) : bits_(FloatToHalfBits(f)) {}

  static f16 FromBits(std::uint16_t bits) {
    f16 h;
    h.bits_ = bits;
    return h;
  }

  float ToFloat() const { return HalfBitsToFloat(bits_); }
  explicit operator float() const { return ToFloat(); }
  std::uint16_t bits() const { return bits_; }

  friend bool operator==(f16 a, f16 b) { return a.bits_ == b.bits_; }

 private:
  std::uint16_t bits_ = 0;
};

static_assert(sizeof(f16) == 2, "f16 must be 2 bytes (storage format)");

/// Largest finite fp16 value (65504).
inline constexpr float kF16Max = 65504.0f;

/// Relative rounding error bound for a single fp16 round (2^-11).
inline constexpr float kF16Epsilon = 4.8828125e-4f;

}  // namespace punica
