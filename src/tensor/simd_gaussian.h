// The synthetic-weight draw in vector lanes: Pcg32 uniform pairs and a
// single-precision Box–Muller transform that stores f16 directly, written
// once over GCC vector types and instantiated by the avx2 (8 pairs per
// block) and avx512 (16 pairs per block) TUs. Private to those two
// translation units; the contract is SimdOps::pcg_uniform_pairs,
// box_muller_f16 and box_muller_lanes (tensor/simd.h).
//
// Uniforms. Lane j of a step holds the LCG state of pair j: the lanes start
// PcgJumpOf(4j) apart and each step advances every lane by PcgJumpOf(4·W),
// W the u64 lanes of one vector, so lane j replays exactly the four NextU32
// draws of its pair, and u1/u2 are assembled from them as NextDouble does
// (exact: 53 bits and exact int→double conversions).
//
// Transform. The scalar loop stores f16(float(float(z)·scale)) for libm's
// double z — a monotone function of z. A lane computes its deviate as the
// unrounded product ẑ = mag·trig of a single-precision magnitude and
// cos/sin, within δ = kBoxMullerDelta of z relative to ẑ. With
// ε = kBoxMullerEps ≥ 4δ, the floats a = (mag·lo)·trig and b = (mag·hi)·trig
// (lo, hi absorb both roundings) bracket every double within ε of ẑ, z
// included, so when f16(float(a·scale)) equals f16(float(b·scale)) that is
// z's f16 too. Every other lane — about one in 150 — is recomputed through
// the libm helper BoxMuller after the vector pass, so the output equals the
// scalar draw bit for bit by construction.
//
// ẑ itself: the two reductions run in double, so their results are exact
// or within 2^-48 relative before they are rounded to float —
//   * u1 = 2^k·(1 + f), 1 + f ∈ [√2/2, √2) (fdlibm's split, f exact), and
//     t = k·ln2 + f by one double fma, carried as a float pair t_hi + t_lo;
//   * x = fl(2π·u2), libm's own rounded argument, minus n·π/2 for the
//     nearest n by a two-part Cody–Waite step whose first part is exact,
//     carried as r_hi + r_lo —
// and the rest runs in single precision over all lanes:
// log u1 = t_hi + (t_lo + f²·Q(f)), mag = √(−2·log u1),
// sin r = r_hi + (r_lo·(1 − w/2) + r_hi·w·S(w)) and
// cos r = 1 − w/2 + (w²·C(w) − r_hi·r_lo) (w = r_hi², 1 − w/2 split as in
// fdlibm's __kernel_cos), then trig = ±sin or ±cos by the quadrant n.
// Q, S and C are Chebyshev-node fits with float coefficients, within
// 2^-23.7, 2^-24.9 and 2^-24 of (log1p(f) − f)/f², (sin r − r)/r³ and
// (cos r − 1 + w/2)/w² over the reduced ranges. The error tally, in
// u = 2^-24 (one float rounding), first order:
//   * y = f²·Q(f) is within 6.5u (f's rounding 2.3u, evaluation 3.6u, fit
//     0.6u) and |y| ≤ 0.2·|log u1|, so log u1 is within 2.5u (1.3u from y,
//     one final rounding, 0.2u in the inner fma) and mag within 2.3u;
//   * sin r within 1.6u (the final add; the r_hi·w·S term, ≤ 0.11 of the
//     sum, within 4.2u) and cos r within 1.2u;
//   * ẑ within 3.9u of the true deviate, libm's z within 2^-50 of it —
//     so δ = 4u = 2^-22, and ε = 2^-20. Measured: 2.4u at most over 2^22
//     random pairs and the edge inputs, 0.67% of pairs unsure.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <utility>

#include "tensor/simd.h"
#include "util/rng.h"

namespace punica::simd_detail {

/// The level-specific pieces: V::kLanes, the pairs of one transform block
/// (float lanes); the GCC vector types V::D (doubles), V::U (uint64), V::FH
/// (floats) and V::IH (int32) of kLanes/2 lanes — one u64 vector — and V::F
/// (floats), V::I (int32) and V::H (uint16) of kLanes lanes; V::Fma (D and
/// F), V::Sqrt (F, IEEE-exact), V::ToFloat and V::ToDouble (D ↔ FH, round
/// to nearest), V::Narrow (U → IH, the low dwords), V::Join (two halves as
/// one F or I), V::ToHalf (F → H, round to nearest even), V::AnyZero (any
/// lane of a D equal to 0), V::Differ (the lanes where either of two H
/// pairs differs, as a bit mask), V::SplitLog (u = 2^k·(1 + f) with
/// 1 + f ∈ [√2/2, √2), f and k exact doubles), V::Word (the PCG-XSH-RR
/// output of each lane's state in its low 32 bits, the high bits
/// unspecified) and V::Unit (NextDouble from two words' low 32 bits).
template <class V>
struct GaussianLanes {
  static constexpr int L = V::kLanes;
  static constexpr int W = L / 2;
  using D = typename V::D;
  using U = typename V::U;
  using FH = typename V::FH;
  using F = typename V::F;
  using I = typename V::I;
  using H = typename V::H;

  static D Splat(double x) { return D{} + x; }
  static U Splat(std::uint64_t x) { return U{} + x; }
  static F SplatF(float x) { return F{} + x; }
  static D Load(const double* p) {
    D x;
    std::memcpy(&x, p, sizeof x);
    return x;
  }

  static void Uniforms(std::uint64_t state, std::uint64_t inc, std::size_t n,
                       double* u1, double* u2) {
    static constexpr auto kToLane = [] {
      std::array<PcgJump, W> jumps;
      for (int j = 0; j < W; ++j) jumps[j] = PcgJumpOf(4 * j);
      return jumps;
    }();
    U s{};
    for (int j = 0; j < W; ++j) {
      s[j] = kToLane[j].mult * state + kToLane[j].plus * inc;
    }
    constexpr PcgJump kStep = PcgJumpOf(4 * W);
    const U step_plus = Splat(kStep.plus * inc);
    const U vinc = Splat(inc);
    for (std::size_t i = 0; i < n; i += W) {
      const U s1 = s * kPcgMultiplier + vinc;
      const U s2 = s1 * kPcgMultiplier + vinc;
      const U s3 = s2 * kPcgMultiplier + vinc;
      const D a = V::Unit(V::Word(s), V::Word(s1));
      const D b = V::Unit(V::Word(s2), V::Word(s3));
      if (i + W <= n) {
        std::memcpy(u1 + i, &a, sizeof a);
        std::memcpy(u2 + i, &b, sizeof b);
      } else {
        std::memcpy(u1 + i, &a, (n - i) * sizeof(double));
        std::memcpy(u2 + i, &b, (n - i) * sizeof(double));
      }
      s = s * kStep.mult + step_plus;
    }
  }

  /// One half block's double-precision reductions (file comment).
  struct Reduced {
    FH f, t_hi, t_lo, r_hi, r_lo;
    typename V::IH quadrant;
  };
  static Reduced Reduce(D u1, D u2) {
    Reduced out;
    D f;
    D dk;
    V::SplitLog(u1, &f, &dk);
    const D t = V::Fma(dk, Splat(std::numbers::ln2), f);
    out.f = V::ToFloat(f);
    out.t_hi = V::ToFloat(t);
    out.t_lo = V::ToFloat(t - V::ToDouble(out.t_hi));
    // n = 4·u2 to the nearest integer (in q's low bits), then
    // r = fl(2π·u2) − n·π/2: the first fma is exact (|r| < 1 and both
    // terms are multiples of 2^-53), the second leaves 2^-48 relative.
    const D q = V::Fma(u2, Splat(4.0), Splat(0x1.8p52));
    const D fn = q - 0x1.8p52;
    const D x = u2 * (2.0 * std::numbers::pi);
    D r = V::Fma(-fn, Splat(0x1.921fb54442d18p+0), x);
    r = V::Fma(-fn, Splat(0x1.1a62633145c07p-54), r);
    out.r_hi = V::ToFloat(r);
    out.r_lo = V::ToFloat(r - V::ToDouble(out.r_hi));
    out.quadrant = V::Narrow(reinterpret_cast<U>(q));
    return out;
  }

  /// One block's deviates in polar form: ẑ0 = mag·cos_t and
  /// ẑ1 = mag·sin_t, the unrounded products, are √(−2·log u1) times
  /// cos(2π·u2) and sin(2π·u2).
  struct Polar {
    F mag, cos_t, sin_t;
  };

  /// The polar deviates of the L pairs at u1, u2 (u1 > 0 in every lane).
  static Polar Deviates(const double* u1, const double* u2) {
    const Reduced lo = Reduce(Load(u1), Load(u2));
    const Reduced hi = Reduce(Load(u1 + W), Load(u2 + W));
    const F f = V::Join(lo.f, hi.f);
    const F t_hi = V::Join(lo.t_hi, hi.t_hi);
    const F t_lo = V::Join(lo.t_lo, hi.t_lo);
    const F r_hi = V::Join(lo.r_hi, hi.r_hi);
    const F r_lo = V::Join(lo.r_lo, hi.r_lo);
    const I n = V::Join(lo.quadrant, hi.quadrant);

    // log u1 = t + f²·Q(f).
    F q = SplatF(-0x1.699626p-5f);
    q = V::Fma(q, f, SplatF(0x1.72cbcep-4f));
    q = V::Fma(q, f, SplatF(-0x1.b03528p-4f));
    q = V::Fma(q, f, SplatF(0x1.cb748p-4f));
    q = V::Fma(q, f, SplatF(-0x1.ff3a2ep-4f));
    q = V::Fma(q, f, SplatF(0x1.24755p-3f));
    q = V::Fma(q, f, SplatF(-0x1.5555ecp-3f));
    q = V::Fma(q, f, SplatF(0x1.9999fep-3f));
    q = V::Fma(q, f, SplatF(-0x1.0p-2f));
    q = V::Fma(q, f, SplatF(0x1.555556p-2f));
    q = V::Fma(q, f, SplatF(-0x1.0p-1f));
    const F log_u1 = t_hi + V::Fma(f * f, q, t_lo);

    // sin and cos of r = r_hi + r_lo, |r| ≤ π/4, w = r_hi².
    const F w = r_hi * r_hi;
    const F hw = 0.5f * w;
    F s = SplatF(0x1.6dbe08p-19f);
    s = V::Fma(s, w, SplatF(-0x1.a013a8p-13f));
    s = V::Fma(s, w, SplatF(0x1.11110ep-7f));
    s = V::Fma(s, w, SplatF(-0x1.555556p-3f));
    // sin r ≈ r_hi + (r_lo·(1 − w/2) + r_hi·w·S(w)).
    const F sin_r = r_hi + V::Fma(r_hi * w, s, V::Fma(-r_lo, hw, r_lo));
    F c = SplatF(0x1.9bd89cp-16f);
    c = V::Fma(c, w, SplatF(-0x1.6c12d2p-10f));
    c = V::Fma(c, w, SplatF(0x1.555554p-5f));
    // cos r ≈ (1 − w/2) + (w²·C(w) − r_hi·r_lo), with the roundings of w
    // and of 1 − w/2 carried into the small term (fdlibm's __kernel_cos).
    const F w_err = V::Fma(r_hi, r_hi, -w);
    const F one_m_hw = 1.0f - hw;
    const F tail = V::Fma(w * w, c, V::Fma(-r_hi, r_lo, -0.5f * w_err));
    const F cos_r = one_m_hw + (((1.0f - one_m_hw) - hw) + tail);

    // Quadrant n: odd n swaps sin and cos; sin flips sign for n = 2, 3 and
    // cos for n = 1, 2.
    const auto swap = (n & 1) != 0;
    const F sn = swap ? cos_r : sin_r;
    const F cs = swap ? sin_r : cos_r;
    const I sign = I{} + static_cast<std::int32_t>(0x80000000U);
    const I cos_sign = (n + 1) << 30 & sign;
    const I sin_sign = n << 30 & sign;
    return {V::Sqrt(log_u1 * -2.0f),
            reinterpret_cast<F>(reinterpret_cast<I>(cs) ^ cos_sign),
            reinterpret_cast<F>(reinterpret_cast<I>(sn) ^ sin_sign)};
  }

  /// Runs `block(u1, u2, i, m)` over the blocks of n pairs (m ≤ L pairs
  /// from pair i); a partial final block reads padded copies, so every
  /// block is a full one. Stops early where `block` returns false.
  template <class Block>
  static void ForEachBlock(const double* u1, const double* u2, std::size_t n,
                           Block block) {
    std::size_t i = 0;
    for (; i + L <= n; i += L) {
      if (!block(u1 + i, u2 + i, i, static_cast<std::size_t>(L))) return;
    }
    if (i == n) return;
    double a[L];
    double b[L];
    std::fill(a, a + L, 0.5);
    std::fill(b, b + L, 0.0);
    std::copy(u1 + i, u1 + n, a);
    std::copy(u2 + i, u2 + n, b);
    block(a, b, i, n - i);
  }

  /// Interleaves two vectors: out = {a0, b0, a1, b1, …}.
  template <class T, std::size_t... J>
  static void StorePairs(T a, T b, void* out, std::index_sequence<J...>) {
    const auto v = __builtin_shufflevector(a, b, (J / 2 + (J % 2) * L)...);
    std::memcpy(out, &v, sizeof v);
  }
  template <class T>
  static void StorePairs(T a, T b, void* out) {
    StorePairs(a, b, out, std::make_index_sequence<2 * L>());
  }

  static void BoxMullerLanes(const double* u1, const double* u2,
                             std::size_t n, double* z) {
    ForEachBlock(u1, u2, n, [&](const double* a, const double* b,
                                std::size_t i, std::size_t m) {
      const Polar p = Deviates(a, b);
      float mag[L];
      float cos_t[L];
      float sin_t[L];
      std::memcpy(mag, &p.mag, sizeof mag);
      std::memcpy(cos_t, &p.cos_t, sizeof cos_t);
      std::memcpy(sin_t, &p.sin_t, sizeof sin_t);
      for (std::size_t j = 0; j < m; ++j) {  // float products, exact
        z[2 * (i + j)] = static_cast<double>(mag[j]) * cos_t[j];
        z[2 * (i + j) + 1] = static_cast<double>(mag[j]) * sin_t[j];
      }
      return true;
    });
  }

  /// The float multipliers of the bracket: x·Below(1 − eps − 2^-23) and
  /// x·Above(1 + eps + 3·2^-24), each rounded twice, stay at most
  /// x·(1 − eps) and at least x·(1 + eps) in magnitude.
  static float Below(double x) {
    const auto f = static_cast<float>(x);
    return static_cast<double>(f) > x ? std::nextafter(f, 0.0f) : f;
  }
  static float Above(double x) {
    const auto f = static_cast<float>(x);
    return static_cast<double>(f) < x ? std::nextafter(f, 2.0f) : f;
  }

  static GaussianDraw BoxMullerF16(const double* u1, const double* u2,
                                   std::size_t n, float scale, double eps,
                                   f16* out) {
    const F lo = SplatF(Below(1.0 - eps - 0x1.0p-23));
    const F hi = SplatF(Above(1.0 + eps + 0x1.8p-23));
    const F vscale = SplatF(scale);
    // Unsure pairs, recomputed through libm after the vector pass.
    std::size_t redo[64];
    std::size_t num_redo = 0;
    GaussianDraw done;
    const auto flush = [&] {
      for (std::size_t k = 0; k < num_redo; ++k) {
        const std::size_t j = redo[k];
        const auto [g0, g1] = BoxMuller(u1[j], u2[j]);
        out[2 * j] = f16(static_cast<float>(g0) * scale);
        out[2 * j + 1] = f16(static_cast<float>(g1) * scale);
      }
      done.fallbacks += num_redo;
      num_redo = 0;
    };
    ForEachBlock(u1, u2, n, [&](const double* a, const double* b,
                                std::size_t i, std::size_t m) {
      // u1 == 0 makes NextGaussian redraw: the stream shifts from here on.
      if (V::AnyZero(Load(a)) || V::AnyZero(Load(a + W))) return false;
      const Polar p = Deviates(a, b);
      const F mag_lo = p.mag * lo;
      const F mag_hi = p.mag * hi;
      const H h0 = V::ToHalf((mag_lo * p.cos_t) * vscale);
      const H h1 = V::ToHalf((mag_lo * p.sin_t) * vscale);
      unsigned unsure =
          V::Differ(h0, V::ToHalf((mag_hi * p.cos_t) * vscale), h1,
                    V::ToHalf((mag_hi * p.sin_t) * vscale)) &
          ((2U << (m - 1)) - 1);
      if (m == static_cast<std::size_t>(L)) {
        StorePairs(h0, h1, out + 2 * i);
      } else {
        f16 pairs[2 * L];
        StorePairs(h0, h1, pairs);
        std::memcpy(out + 2 * i, pairs, 2 * m * sizeof(f16));
      }
      for (; unsure != 0; unsure &= unsure - 1) {
        if (num_redo == std::size(redo)) flush();
        redo[num_redo++] = i + static_cast<unsigned>(std::countr_zero(unsure));
      }
      done.pairs += m;
      return true;
    });
    flush();
    return done;
  }
};

}  // namespace punica::simd_detail
