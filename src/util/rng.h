// Deterministic pseudo-random number generation for tests, workloads and
// synthetic weights.
//
// Pcg32 is O'Neill's PCG-XSH-RR 64/32 generator: tiny state, excellent
// statistical quality, and — unlike std::mt19937 — identical streams across
// standard libraries, which keeps benchmarks and golden tests reproducible.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace punica {

/// The LCG multiplier every Pcg32 stream steps with: state' = a·state + inc.
inline constexpr std::uint64_t kPcgMultiplier = 6364136223846793005ULL;

/// The affine map of `delta` LCG steps, per unit increment:
/// state_delta = mult·state + plus·inc (mod 2^64). Brown's jump-ahead,
/// O(log delta) — and a constant for a fixed delta, so vector kernels can
/// start lanes `delta` steps apart without knowing the stream.
struct PcgJump {
  std::uint64_t mult = 1;
  std::uint64_t plus = 0;
};

constexpr PcgJump PcgJumpOf(std::uint64_t delta) {
  PcgJump acc;
  std::uint64_t cur_mult = kPcgMultiplier;
  std::uint64_t cur_plus = 1;
  for (; delta > 0; delta >>= 1U) {
    if ((delta & 1U) != 0) {
      acc.mult *= cur_mult;
      acc.plus = acc.plus * cur_mult + cur_plus;
    }
    cur_plus *= cur_mult + 1;
    cur_mult *= cur_mult;
  }
  return acc;
}

/// The Box–Muller transform NextGaussian applies to one pair of uniforms
/// u1 ∈ (0, 1), u2 ∈ [0, 1), through libm:
/// {√(−2 ln u1)·cos(2π·u2), √(−2 ln u1)·sin(2π·u2)}. The vector fill kernels
/// (tensor/simd.h) recompute through it every lane they cannot prove equal.
std::pair<double, double> BoxMuller(double u1, double u2);

class Pcg32 {
 public:
  explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                 std::uint64_t stream = 0xda3e39cb94b95bdbULL);

  /// Uniform 32-bit word.
  std::uint32_t NextU32();

  /// Uniform in [0, bound). Uses Lemire-style rejection to avoid modulo bias.
  std::uint32_t NextBounded(std::uint32_t bound);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform float in [lo, hi).
  float NextFloat(float lo, float hi);

  /// Standard normal via Box–Muller (caches the second deviate).
  double NextGaussian();

  /// Steps the stream `delta` draws ahead in O(log delta): the same state
  /// as `delta` NextU32 calls. Leaves a cached Gaussian deviate in place.
  void Advance(std::uint64_t delta);

  /// The LCG state the next NextU32 steps from and the stream increment —
  /// for kernels that replay the stream in vector lanes (FillGaussianF16),
  /// which then Advance past what they consumed.
  std::uint64_t state() const { return state_; }
  std::uint64_t increment() const { return inc_; }
  bool has_cached_gaussian() const { return has_cached_gaussian_; }

  /// Exponential with the given rate parameter (mean 1/rate).
  double NextExponential(double rate);

  /// Fisher–Yates shuffle of an index span.
  template <typename T>
  void Shuffle(std::span<T> xs) {
    for (std::size_t i = xs.size(); i > 1; --i) {
      std::size_t j = NextBounded(static_cast<std::uint32_t>(i));
      std::swap(xs[i - 1], xs[j]);
    }
  }

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

/// Fills a vector with N(0, scale) floats — synthetic weights/activations.
std::vector<float> RandomGaussianVector(std::size_t n, float scale,
                                        Pcg32& rng);

}  // namespace punica
