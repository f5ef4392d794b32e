// The synthetic-weight draw in vector lanes: Pcg32 uniform pairs and the
// Box–Muller transform, written once over GCC vector types and instantiated
// by the avx2 (4 pairs per step) and avx512 (8 pairs per step) TUs. Private
// to those two translation units; the contract is SimdOps::pcg_uniform_pairs
// and SimdOps::box_muller_f32 (tensor/simd.h).
//
// Uniforms. Lane j of a step holds the LCG state of pair j: the lanes start
// PcgJumpOf(4j) apart and each step advances every lane by PcgJumpOf(4·L),
// so lane j replays exactly the four NextU32 draws of its pair, and u1/u2
// are assembled from them as NextDouble does (exact: 53 bits, two exact
// int→double conversions and an exact sum).
//
// Transform. Per lane, log(u1) is fdlibm's __ieee754_log (one branch-free
// formula) and sin/cos are fdlibm's kernels after a three-part Cody–Waite
// reduction of the scalar path's own rounded argument 2π·u2; sqrt is
// IEEE-exact. Each of log, sin and cos is within a few ulps (≤ 2^-50
// relative) of the true value, as is libm's, so the kernel's double z and
// libm's differ by far less than ε = kBoxMullerEps (2^-44) relative. A lane
// keeps its float only when float(z·(1−ε)) == float(z·(1+ε)): rounding is
// monotone, so every double within that bracket — libm's z included —
// rounds to the same float. The rest (about one lane in 2^19) are
// recomputed by the libm helper BoxMuller, so the output equals the scalar
// draw bit for bit by construction.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <utility>

#include "util/rng.h"

namespace punica::simd_detail {

/// The level-specific pieces: V::kLanes; the GCC vector types V::D (doubles),
/// V::U (uint64), V::F (floats) and V::I (int32), kLanes lanes each; and
/// V::Sqrt (IEEE-exact), V::Fma, V::AnyD (any lane of a D compare set) and
/// V::AnyF (any lane of an F compare set).
template <class V>
struct GaussianLanes {
  static constexpr int L = V::kLanes;
  using D = typename V::D;
  using U = typename V::U;
  using F = typename V::F;
  using I = typename V::I;

  static D Splat(double x) { return D{} + x; }
  static U Splat(std::uint64_t x) { return U{} + x; }

  /// PCG-XSH-RR output of each lane's state (in the low 32 bits).
  static U Output(U s) {
    const U x = (((s >> 18U) ^ s) >> 27U) & 0xFFFFFFFFULL;
    const U rot = s >> 59U;
    return ((x >> rot) | (x << ((32U - rot) & 31U))) & 0xFFFFFFFFULL;
  }

  /// An integer below 2^52 as a double, exactly.
  static D Exact(U x) {
    return reinterpret_cast<D>(x | 0x4330000000000000ULL) - 0x1.0p52;
  }

  /// NextDouble from its two words: (hi·2^21 + lo>>11)·2^-53, exactly.
  static D Unit(U hi, U lo) {
    return Exact(hi) * 0x1.0p-32 + Exact(lo >> 11U) * 0x1.0p-53;
  }

  static void Uniforms(std::uint64_t state, std::uint64_t inc, std::size_t n,
                       double* u1, double* u2) {
    U s{};
    for (int j = 0; j < L; ++j) {
      const PcgJump to_lane = PcgJumpOf(4 * static_cast<std::uint64_t>(j));
      s[j] = to_lane.mult * state + to_lane.plus * inc;
    }
    constexpr PcgJump kStep = PcgJumpOf(4 * L);
    const U step_plus = Splat(kStep.plus * inc);
    const U vinc = Splat(inc);
    for (std::size_t i = 0; i < n; i += L) {
      const U s1 = s * kPcgMultiplier + vinc;
      const U s2 = s1 * kPcgMultiplier + vinc;
      const U s3 = s2 * kPcgMultiplier + vinc;
      const D a = Unit(Output(s), Output(s1));
      const D b = Unit(Output(s2), Output(s3));
      if (i + L <= n) {
        std::memcpy(u1 + i, &a, sizeof a);
        std::memcpy(u2 + i, &b, sizeof b);
      } else {
        std::memcpy(u1 + i, &a, (n - i) * sizeof(double));
        std::memcpy(u2 + i, &b, (n - i) * sizeof(double));
      }
      s = s * kStep.mult + step_plus;
    }
  }

  /// fdlibm __ieee754_log for normal positive x, the f-near-zero branch
  /// folded into the general formula (within an ulp of each other).
  static D Log(D x) {
    const U ix = reinterpret_cast<U>(x);
    const U m = ix & 0x000FFFFFFFFFFFFFULL;
    // i = 2^52 when the mantissa is ≥ √2: halve it into [√2/2, 1).
    const U i = (m + 0x00095F6400000000ULL) & 0x0010000000000000ULL;
    const U k = (ix >> 52U) - 1023U + (i >> 52U);  // signed, two's complement
    const D f = reinterpret_cast<D>(m | (i ^ 0x3FF0000000000000ULL)) - 1.0;
    const D dk =
        reinterpret_cast<D>(k + 0x4338000000000000ULL) - 0x1.8p52;  // exact
    const D s = f / (2.0 + f);
    const D z = s * s;
    const D w = z * z;
    const D t1 = w * (0x1.999999997fa04p-2 +
                      w * (0x1.c71c51d8e78afp-3 + w * 0x1.39a09d078c69fp-3));
    const D t2 = z * (0x1.5555555555593p-1 +
                      w * (0x1.2492494229359p-2 +
                           w * (0x1.7466496cb03dep-3 +
                                w * 0x1.2f112df3e5244p-3)));
    const D r = t2 + t1;
    const D hfsq = 0.5 * f * f;
    return dk * 0x1.62e42feep-1 -
           ((hfsq - (s * (hfsq + r) + dk * 0x1.a39ef35793c76p-33)) - f);
  }

  /// sin and cos of x ∈ [0, 2π): Cody–Waite reduction by the nearest
  /// multiple n·π/2 with π/2 split into three doubles — the first product
  /// is exact, so even x within 2^-54 of a multiple keeps its relative
  /// accuracy — then fdlibm's __kernel_sin/__kernel_cos on |r| ≤ π/4 and
  /// the quadrant's swap and signs.
  static void SinCos(D x, D* sin_out, D* cos_out) {
    const D t = x * 0x1.45f306dc9c883p-1 + 0x1.8p52;  // x·2/π to an integer
    const D fn = t - 0x1.8p52;
    const U n = reinterpret_cast<U>(t);  // low bits: the quadrant
    D r = V::Fma(-fn, Splat(0x1.921fb54442d18p+0), x);
    r = V::Fma(-fn, Splat(0x1.1a62633145c07p-54), r);
    r = V::Fma(-fn, Splat(-0x1.f1976b7ed8fbcp-110), r);
    const D z = r * r;
    const D ps = 0x1.111111110f8a6p-7 +
                 z * (-0x1.a01a019c161d5p-13 +
                      z * (0x1.71de357b1fe7dp-19 +
                           z * (-0x1.ae5e68a2b9cebp-26 +
                                z * 0x1.5d93a5acfd57cp-33)));
    const D sin_r = r + (z * r) * (-0x1.5555555555549p-3 + z * ps);
    const D pc =
        z * (0x1.555555555554cp-5 +
             z * (-0x1.6c16c16c15177p-10 +
                  z * (0x1.a01a019cb159p-16 +
                       z * (-0x1.27e4f809c52adp-22 +
                            z * (0x1.1ee9ebdb4b1c4p-29 +
                                 z * -0x1.8fae9be8838d4p-37)))));
    const D cos_r = 1.0 - (0.5 * z - z * pc);
    // Quadrant n: odd n swaps sin and cos; sin flips sign for n = 2, 3 and
    // cos for n = 1, 2.
    const auto swap = (n & 1U) != 0;
    const D s = swap ? cos_r : sin_r;
    const D c = swap ? sin_r : cos_r;
    *sin_out = reinterpret_cast<D>(reinterpret_cast<U>(s) ^ ((n & 2U) << 62U));
    *cos_out = reinterpret_cast<D>(reinterpret_cast<U>(c) ^
                                   (((n + 1U) & 2U) << 62U));
  }

  /// Interleaves two float vectors: out = {a0, b0, a1, b1, …}.
  template <std::size_t... J>
  static void StorePairs(F a, F b, float* out, std::index_sequence<J...>) {
    const auto v = __builtin_shufflevector(a, b, (J / 2 + (J % 2) * L)...);
    std::memcpy(out, &v, sizeof v);
  }

  static std::size_t BoxMullerF32(const double* u1, const double* u2,
                                  std::size_t n, double eps, float* z) {
    const D lo = Splat(1.0 - eps);
    const D hi = Splat(1.0 + eps);
    for (std::size_t i = 0; i < n; i += L) {
      const std::size_t m = std::min<std::size_t>(L, n - i);
      D a = Splat(0.5);  // u1; a partial block pads with valid uniforms
      D b = Splat(0.0);  // u2
      if (m == L) {
        std::memcpy(&a, u1 + i, sizeof a);
        std::memcpy(&b, u2 + i, sizeof b);
      } else {
        std::memcpy(&a, u1 + i, m * sizeof(double));
        std::memcpy(&b, u2 + i, m * sizeof(double));
      }
      // u1 == 0 makes NextGaussian redraw: the stream shifts from here on.
      if (V::AnyD(a == 0.0)) return i;
      D sin_t;
      D cos_t;
      SinCos(b * (2.0 * std::numbers::pi), &sin_t, &cos_t);
      const D mag = V::Sqrt(-2.0 * Log(a));
      const D z0 = mag * cos_t;
      const D z1 = mag * sin_t;
      const F f0 = __builtin_convertvector(z0, F);
      const F f1 = __builtin_convertvector(z1, F);
      const I unsure = (__builtin_convertvector(z0 * lo, F) !=
                        __builtin_convertvector(z0 * hi, F)) |
                       (__builtin_convertvector(z1 * lo, F) !=
                        __builtin_convertvector(z1 * hi, F));
      if (m == L && !V::AnyF(unsure)) {
        StorePairs(f0, f1, z + 2 * i, std::make_index_sequence<2 * L>());
        continue;
      }
      float out[2 * L];
      StorePairs(f0, f1, out, std::make_index_sequence<2 * L>());
      for (std::size_t j = 0; j < m; ++j) {
        if (unsure[j] == 0) continue;
        const auto [g0, g1] = BoxMuller(a[j], b[j]);
        out[2 * j] = static_cast<float>(g0);
        out[2 * j + 1] = static_cast<float>(g1);
      }
      std::memcpy(z + 2 * i, out, 2 * m * sizeof(float));
    }
    return n;
  }
};

}  // namespace punica::simd_detail
