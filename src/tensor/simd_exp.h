// The one exp every kernel uses: a fixed operation sequence, written once
// over a lane type and instantiated by the scalar path (float, std::fma)
// and by the avx2/avx512 TUs (GCC vector types, their fma intrinsic), so
// every level — and every host — computes the same bits.
//
// Sequence, per lane:
//  1. Clamp x to [kExpLo, kExpHi]; NaN maps to kExpLo here and is restored
//     at the end. Below kExpLo the true result rounds to +0 (so exp(−inf)
//     is exactly +0), above kExpHi it overflows to +inf.
//  2. n = round-to-nearest-even(x·log2 e) via fma(x, log2 e, 1.5·2^23);
//     the integer is read from the sum's low bits.
//  3. Cody–Waite: r = x − n·ln2 with ln2 split in two (the first product
//     is exact), each step one fma; |r| ≤ ln2/2.
//  4. p = 1 + r·(1 + r·Q(r)), Q the degree-5 minimax polynomial of
//     Cephes' expf, evaluated by Horner in fma — seven fmas.
//  5. p·2^n as (p·2^⌊n/2⌋)·2^(n−⌊n/2⌋): both factors are normal floats
//     for every n the clamp allows, the first product is exact, and the
//     second rounds once — so subnormal results round correctly and
//     large n overflow to +inf.
// Max error: tests/tensor/exp_test.cc bounds it against libm's expf over
// the ranges softmax and SiLU use.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

namespace punica {

namespace exp_detail {

inline constexpr float kExpLo = -110.0f;  ///< exp(kExpLo) rounds to +0
inline constexpr float kExpHi = 88.75f;   ///< exp(kExpHi) overflows
inline constexpr float kLog2e = 0x1.715476p+0f;
inline constexpr float kRound = 0x1.8p23f;  ///< 1.5·2^23: fma rounds to int
inline constexpr std::int32_t kRoundBits = 0x4B400000;  ///< bits of kRound
inline constexpr float kLn2Hi = 0.693359375f;    ///< 9 bits: n·kLn2Hi exact
inline constexpr float kLn2Lo = -2.12194440e-4f;
inline constexpr float kQ0 = 1.9875691500e-4f;
inline constexpr float kQ1 = 1.3981999507e-3f;
inline constexpr float kQ2 = 8.3334519073e-3f;
inline constexpr float kQ3 = 4.1665795894e-2f;
inline constexpr float kQ4 = 1.6666665459e-1f;
inline constexpr float kQ5 = 5.0000001201e-1f;

/// The sequence over lane type F (float or a GCC float vector) with the
/// same-width int32 type I; `fma` is the level's fused multiply-add.
template <class F, class I, class Fma>
inline F ExpLanes(F x, Fma fma) {
  F c = x > kExpLo ? x : F{} + kExpLo;  // NaN → kExpLo
  c = c < kExpHi ? c : F{} + kExpHi;
  const F t = fma(c, F{} + kLog2e, F{} + kRound);
  const F n = t - kRound;
  F r = fma(-n, F{} + kLn2Hi, c);
  r = fma(-n, F{} + kLn2Lo, r);
  F p = fma(F{} + kQ0, r, F{} + kQ1);
  p = fma(p, r, F{} + kQ2);
  p = fma(p, r, F{} + kQ3);
  p = fma(p, r, F{} + kQ4);
  p = fma(p, r, F{} + kQ5);
  p = fma(p, r, F{} + 1.0f);
  p = fma(p, r, F{} + 1.0f);
  const I ni = std::bit_cast<I>(t) - kRoundBits;
  const I n1 = ni >> 1;
  const F s1 = std::bit_cast<F>((n1 + 127) << 23);
  const F s2 = std::bit_cast<F>((ni - n1 + 127) << 23);
  const F e = p * s1 * s2;
  return x != x ? x : e;
}

}  // namespace exp_detail

/// exp(x) by the fixed sequence above, one float — the scalar level's body
/// and the reference every vector lane equals bit for bit.
inline float ExpF32(float x) {
  return exp_detail::ExpLanes<float, std::int32_t>(
      x, [](float a, float b, float c) { return std::fma(a, b, c); });
}

}  // namespace punica
