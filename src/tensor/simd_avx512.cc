// The avx512 SIMD path: AVX-512 F/BW/VL/DQ, 512-bit f32 lanes.
//
// Same contract and structure as simd_avx2.cc, one tier up: 16-element
// bodies instead of 8. CMake compiles this TU with -mavx512f -mavx512bw
// -mavx512vl -mavx512dq (plus the avx2 set for the scalar-ish edges) and
// defines PUNICA_NATIVE_SIMD when configured with -DPUNICA_NATIVE_SIMD=ON;
// the portable build compiles the stub. Runtime cpuid (simd.cc) gates dispatch
// on avx512f+bw+vl+dq, so a binary carrying this TU still runs (degraded to
// avx2 or scalar) on hardware without them.
//
// Determinism: fixed 16-lane bodies in ascending order, scalar std::fma
// tails, and dot reduces its lane accumulator in one fixed shuffle order
// (512 → 256 → the same 128-bit sequence the avx2 path uses). This is a
// distinct dispatch path: bit-identical to itself at any thread count, and
// within the documented FMA-contraction envelope of the other paths.
#include "tensor/simd.h"

#if defined(PUNICA_NATIVE_SIMD) && defined(__AVX512F__) && \
    (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cmath>

#include "tensor/quant.h"
#include "tensor/simd_exp.h"
#include "tensor/simd_gaussian.h"

namespace punica {
namespace {

inline __m256i LoadHalf16(const f16* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

// Conversions and lane moves in their maskz forms under a full mask. The
// unmasked intrinsics hand their masked builtins an _mm*_undefined_*()
// merge source, which GCC 12 reports (-Wmaybe-uninitialized) wherever it
// inlines one; the full mask names the same instruction and the same
// lanes over a defined source.
inline __m512 CvtPh16(__m256i h) { return _mm512_maskz_cvtph_ps(0xFFFF, h); }
inline __m256i CvtPs16(__m512 v) {
  return _mm512_maskz_cvtps_ph(0xFFFF, v,
                               _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
}
/// Sixteen int8 codes as floats.
inline __m512 CvtI8x16(__m128i q) {
  return _mm512_maskz_cvtepi32_ps(0xFFFF,
                                  _mm512_maskz_cvtepi8_epi32(0xFFFF, q));
}
/// Lanes [8h, 8h + 8) of v (GCC 12's _mm512_castps512_ps256 is this
/// extract at h = 0).
template <int H>
inline __m256 Half(__m512 v) {
  return _mm256_castpd_ps(
      _mm512_maskz_extractf64x4_pd(0xFF, _mm512_castps_pd(v), H));
}
/// Lanes [4q, 4q + 4) of v (GCC 12's _mm512_castps512_ps128 at q = 0).
template <int Q>
inline __m128 Quarter(__m512 v) {
  return _mm512_maskz_extractf32x4_ps(0xF, v, Q);
}
template <int Imm>
inline __m512 ShuffleF32x4(__m512 a, __m512 b) {
  return _mm512_maskz_shuffle_f32x4(0xFFFF, a, b, Imm);
}

void HalfToFloatAvx512(const f16* src, float* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(dst + i, CvtPh16(LoadHalf16(src + i)));
  }
  for (; i < n; ++i) dst[i] = src[i].ToFloat();
}

void FloatToHalfAvx512(const float* src, f16* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m256i h = CvtPs16(_mm512_loadu_ps(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), h);
  }
  for (; i < n; ++i) dst[i] = f16(src[i]);
}

void AxpyF32Avx512(float a, const float* x, float* y, std::size_t n) {
  const __m512 va = _mm512_set1_ps(a);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m512 vy = _mm512_loadu_ps(y + i);
    _mm512_storeu_ps(y + i, _mm512_fmadd_ps(va, _mm512_loadu_ps(x + i), vy));
  }
  for (; i < n; ++i) y[i] = std::fma(a, x[i], y[i]);
}

void AxpyF16Avx512(float a, const f16* x, float* y, std::size_t n) {
  const __m512 va = _mm512_set1_ps(a);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m512 vx = CvtPh16(LoadHalf16(x + i));
    __m512 vy = _mm512_loadu_ps(y + i);
    _mm512_storeu_ps(y + i, _mm512_fmadd_ps(va, vx, vy));
  }
  for (; i < n; ++i) y[i] = std::fma(a, x[i].ToFloat(), y[i]);
}

/// ExpF32 in 16 lanes: the same fma sequence (tensor/simd_exp.h).
inline __m512 Exp16(__m512 x) {
  typedef std::int32_t I __attribute__((vector_size(64)));
  return exp_detail::ExpLanes<__m512, I>(
      x, [](__m512 a, __m512 b, __m512 c) { return _mm512_fmadd_ps(a, b, c); });
}

/// Lanes [0, n) of a 16-lane vector, n ≤ 16.
inline __mmask16 FirstLanes(std::size_t n) {
  return static_cast<__mmask16>((1u << n) - 1);
}

void ExpF32Avx512(const float* x, float* y, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(y + i, Exp16(_mm512_loadu_ps(x + i)));
  }
  if (i < n) {
    const __mmask16 k = FirstLanes(n - i);
    _mm512_mask_storeu_ps(y + i, k, Exp16(_mm512_maskz_loadu_ps(k, x + i)));
  }
}

inline __m512 SiluMul16(__m512 g, __m512 u) {
  const __m512 e = Exp16(-g);
  return _mm512_mul_ps(_mm512_div_ps(g, _mm512_add_ps(_mm512_set1_ps(1.0f), e)),
                       u);
}

void SiluMulAvx512(float* gate, const float* up, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(gate + i, SiluMul16(_mm512_loadu_ps(gate + i),
                                         _mm512_loadu_ps(up + i)));
  }
  if (i < n) {
    const __mmask16 k = FirstLanes(n - i);
    _mm512_mask_storeu_ps(gate + i, k,
                          SiluMul16(_mm512_maskz_loadu_ps(k, gate + i),
                                    _mm512_maskz_loadu_ps(k, up + i)));
  }
}

// Fixed-order horizontal reduction, matching the avx2 path's final 128-bit
// sequence: 512 halves, 256 halves, movehl, shuffle.
inline float ReduceAdd16(__m512 acc) {
  __m256 lo = Half<0>(acc);
  __m256 hi = Half<1>(acc);
  __m256 r = _mm256_add_ps(lo, hi);
  __m128 s = _mm_add_ps(_mm256_castps256_ps128(r),
                        _mm256_extractf128_ps(r, 1));
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

float DotF16Avx512(const float* a, const f16* b, std::size_t n) {
  __m512 acc = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m512 vb = CvtPh16(LoadHalf16(b + i));
    acc = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), vb, acc);
  }
  float sum = ReduceAdd16(acc);
  for (; i < n; ++i) sum = std::fma(a[i], b[i].ToFloat(), sum);
  return sum;
}

void ScaleAddF16Avx512(float* acc, float c, float p, const f16* v,
                       std::size_t n) {
  const __m512 vc = _mm512_set1_ps(c);
  const __m512 vp = _mm512_set1_ps(p);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m512 va = _mm512_mul_ps(_mm512_loadu_ps(acc + i), vc);
    __m512 vv = CvtPh16(LoadHalf16(v + i));
    _mm512_storeu_ps(acc + i, _mm512_fmadd_ps(vp, vv, va));
  }
  for (; i < n; ++i) acc[i] = std::fma(p, v[i].ToFloat(), acc[i] * c);
}

// Page-run strips: per position the level's dot/axpy body above, plus a
// prefetch two entries ahead (same rationale as the avx2 path).

void DotF16StripAvx512(const float* q, const f16* k, std::size_t stride,
                       std::size_t d, std::size_t n_pos, float scale,
                       float* scores) {
  for (std::size_t j = 0; j < n_pos; ++j) {
    if (j + 2 < n_pos) {
      _mm_prefetch(reinterpret_cast<const char*>(k + (j + 2) * stride),
                   _MM_HINT_T0);
    }
    scores[j] = DotF16Avx512(q, k + j * stride, d) * scale;
  }
}

float SoftmaxAccumF16Avx512(const float* scores, float m, const f16* v,
                            std::size_t stride, std::size_t d,
                            std::size_t n_pos, float* acc) {
  float sum = 0.0f;
  for (std::size_t j = 0; j < n_pos; ++j) {
    if (j + 2 < n_pos) {
      _mm_prefetch(reinterpret_cast<const char*>(v + (j + 2) * stride),
                   _MM_HINT_T0);
    }
    float p = ExpF32(scores[j] - m);
    AxpyF16Avx512(p, v + j * stride, acc, d);
    sum += p;
  }
  return sum;
}

// --- Quantized-weight decode (the GEMM tile's) ---
// A Q8_0 block is 2 groups of 16 int8; a Q4_0 block's 16 bytes hold
// elements 0..15 in the low nibbles and 16..31 in the high nibbles, so each
// nibble plane is one 16-element group. Decode: sign-extend to int32,
// convert, multiply by the broadcast scale (exact in f32, so bit-identical
// to the scalar path's decode).

/// Scale decode via hardware cvtph (bit-identical to HalfBitsToFloat;
/// f16 -> f32 is exact) without the out-of-line call per block.
inline float ScaleF32(f16 h) {
  return _mm_cvtss_f32(_mm_cvtph_ps(_mm_cvtsi32_si128(h.bits())));
}

/// Decoded f32 vector for elements [16g, 16g+16) of a Q8_0 block (g 0..1),
/// before the scale multiply.
inline __m512 Q8Codes16(const BlockQ8_0& b, int g) {
  __m128i q8 = _mm_loadu_si128(
      reinterpret_cast<const __m128i*>(b.qs + 16 * g));
  return CvtI8x16(q8);
}

/// Decoded f32 vector for elements [16g, 16g+16) of a Q4_0 block (g 0..1),
/// before the scale multiply.
inline __m512 Q4Codes16(const BlockQ4_0& b, int g) {
  __m128i raw = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b.qs));
  const __m128i mask = _mm_set1_epi8(0x0F);
  __m128i nib = g == 0 ? _mm_and_si128(raw, mask)
                       : _mm_and_si128(_mm_srli_epi16(raw, 4), mask);
  __m128i codes = _mm_sub_epi8(nib, _mm_set1_epi8(8));
  return CvtI8x16(codes);
}

// --- Register-tiled GEMM ---
// A block of R rows × CV 16-lane column vectors of Y lives in zmm
// accumulators for the whole k loop: per p the CV weight vectors are
// decoded once (the exact decodes above) and FMA'd into all R rows. CV
// widens as R shrinks (R ≤ 2: 8, R ≤ 4: 4, else 2 — at most 16
// accumulators) so a single row still keeps 8 independent FMA chains in
// flight. Columns left after the widest blocks fall to narrower ones and
// finally to one masked vector, so any n runs without a scalar tail.

/// W rows the k loop software-prefetches ahead. A column block's W slice
/// is a short burst per row with an n-element jump between bursts; once
/// the decode/FMA work between loads fills the out-of-order window, the
/// hardware streamer stops running ahead across those jumps and the k loop
/// goes demand-miss-bound (~1 GB/s observed at the m=8/k=4096/n=4096 shape
/// when W rotates past the LLC, vs ~7 GB/s for the same stride pattern with
/// overlapped misses). Pure hint: never touches numerics.
constexpr std::size_t kTilePrefetchRows = 16;

template <TileWeight K>
struct TileW;

template <>
struct TileW<TileWeight::kF32> {
  static const float* Ptr(const GemmTile& t, std::size_t p, std::size_t j) {
    return static_cast<const float*>(t.w) + p * t.ldw + j;
  }
  static constexpr std::size_t Bytes(std::size_t cols) {
    return cols * sizeof(float);
  }
  static __m512 Load(const GemmTile& t, std::size_t p, std::size_t j) {
    return _mm512_loadu_ps(Ptr(t, p, j));
  }
  static __m512 LoadMasked(const GemmTile& t, std::size_t p, std::size_t j,
                           __mmask16 m) {
    return _mm512_maskz_loadu_ps(m, Ptr(t, p, j));
  }
};

template <>
struct TileW<TileWeight::kF16> {
  static const f16* Ptr(const GemmTile& t, std::size_t p, std::size_t j) {
    return static_cast<const f16*>(t.w) + p * t.ldw + j;
  }
  static constexpr std::size_t Bytes(std::size_t cols) {
    return cols * sizeof(f16);
  }
  static __m512 Load(const GemmTile& t, std::size_t p, std::size_t j) {
    return CvtPh16(LoadHalf16(Ptr(t, p, j)));
  }
  static __m512 LoadMasked(const GemmTile& t, std::size_t p, std::size_t j,
                           __mmask16 m) {
    return CvtPh16(_mm256_maskz_loadu_epi16(m, Ptr(t, p, j)));
  }
};

// Quantized rows are whole (padded) blocks, so a partial final vector
// decodes its full 16-element group; the masked-off lanes are never stored.
template <>
struct TileW<TileWeight::kQ8_0> {
  static const BlockQ8_0* Ptr(const GemmTile& t, std::size_t p,
                              std::size_t j) {
    return static_cast<const BlockQ8_0*>(t.w) + p * t.ldw + j / kQuantBlock;
  }
  static constexpr std::size_t Bytes(std::size_t cols) {
    return (cols + kQuantBlock - 1) / kQuantBlock * sizeof(BlockQ8_0);
  }
  static __m512 Load(const GemmTile& t, std::size_t p, std::size_t j) {
    const BlockQ8_0& b = *Ptr(t, p, j);
    return _mm512_mul_ps(Q8Codes16(b, static_cast<int>(j / 16 % 2)),
                         _mm512_set1_ps(ScaleF32(b.scale)));
  }
  static __m512 LoadMasked(const GemmTile& t, std::size_t p, std::size_t j,
                           __mmask16 /*m*/) {
    return Load(t, p, j);
  }
};

template <>
struct TileW<TileWeight::kQ4_0> {
  static const BlockQ4_0* Ptr(const GemmTile& t, std::size_t p,
                              std::size_t j) {
    return static_cast<const BlockQ4_0*>(t.w) + p * t.ldw + j / kQuantBlock;
  }
  static constexpr std::size_t Bytes(std::size_t cols) {
    return (cols + kQuantBlock - 1) / kQuantBlock * sizeof(BlockQ4_0);
  }
  static __m512 Load(const GemmTile& t, std::size_t p, std::size_t j) {
    const BlockQ4_0& b = *Ptr(t, p, j);
    return _mm512_mul_ps(Q4Codes16(b, static_cast<int>(j / 16 % 2)),
                         _mm512_set1_ps(ScaleF32(b.scale)));
  }
  static __m512 LoadMasked(const GemmTile& t, std::size_t p, std::size_t j,
                           __mmask16 /*m*/) {
    return Load(t, p, j);
  }
};

template <std::size_t kBytes>
inline void PrefetchSpan(const void* p) {
  const char* c = static_cast<const char*>(p);
  for (std::size_t off = 0; off < kBytes; off += 64) {
    _mm_prefetch(c + off, _MM_HINT_T0);
  }
  _mm_prefetch(c + kBytes - 1, _MM_HINT_T0);  // an unaligned span's last line
}

/// Y[0..R, j .. j+16·CV) over the full k loop. kMasked (CV == 1 only):
/// the lanes outside `mask` are the columns past n.
template <TileWeight K, int R, int CV, bool kMasked>
void TileBlock(const GemmTile& t, std::size_t j, __mmask16 mask) {
  using W = TileW<K>;
  __m512 acc[R][CV];
  const float* xr[R];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    xr[r] = t.x + r * t.ldx;
    const float* yr = t.y + r * t.ldy + j;
#pragma GCC unroll 8
    for (int c = 0; c < CV; ++c) {
      if (!t.accumulate) {
        acc[r][c] = _mm512_setzero_ps();
      } else if constexpr (kMasked) {
        acc[r][c] = _mm512_maskz_loadu_ps(mask, yr);
      } else {
        acc[r][c] = _mm512_loadu_ps(yr + 16 * c);
      }
    }
  }
  for (std::size_t p = 0; p < t.k; ++p) {
    if (p + kTilePrefetchRows < t.k) {
      PrefetchSpan<W::Bytes(16 * CV)>(W::Ptr(t, p + kTilePrefetchRows, j));
    }
    __m512 wv[CV];
#pragma GCC unroll 8
    for (int c = 0; c < CV; ++c) {
      if constexpr (kMasked) {
        wv[c] = W::LoadMasked(t, p, j, mask);
      } else {
        wv[c] = W::Load(t, p, j + 16 * c);
      }
    }
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const __m512 xv = _mm512_set1_ps(xr[r][p]);
#pragma GCC unroll 8
      for (int c = 0; c < CV; ++c) {
        acc[r][c] = _mm512_fmadd_ps(xv, wv[c], acc[r][c]);
      }
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    float* yr = t.y + r * t.ldy + j;
#pragma GCC unroll 8
    for (int c = 0; c < CV; ++c) {
      if constexpr (kMasked) {
        _mm512_mask_storeu_ps(yr, mask, acc[r][c]);
      } else {
        _mm512_storeu_ps(yr + 16 * c, acc[r][c]);
      }
    }
  }
}

/// Walks the columns from j with CV-vector blocks, then narrower ones,
/// ending in one masked vector for the last n % 16 columns.
template <TileWeight K, int R, int CV>
void TileColumns(const GemmTile& t, std::size_t j) {
  for (; j + 16 * CV <= t.n; j += 16 * CV) {
    TileBlock<K, R, CV, false>(t, j, 0xFFFF);
  }
  if constexpr (CV > 1) {
    TileColumns<K, R, CV / 2>(t, j);
  } else if (j < t.n) {
    TileBlock<K, R, 1, true>(
        t, j, static_cast<__mmask16>((1u << (t.n - j)) - 1));
  }
}

template <TileWeight K>
void TileRows(const GemmTile& t) {
  switch (t.rows) {
    case 1: return TileColumns<K, 1, 8>(t, 0);
    case 2: return TileColumns<K, 2, 8>(t, 0);
    case 3: return TileColumns<K, 3, 4>(t, 0);
    case 4: return TileColumns<K, 4, 4>(t, 0);
    case 5: return TileColumns<K, 5, 2>(t, 0);
    case 6: return TileColumns<K, 6, 2>(t, 0);
    case 7: return TileColumns<K, 7, 2>(t, 0);
    case 8: return TileColumns<K, 8, 2>(t, 0);
  }
}

void GemmTileAvx512(const GemmTile& t) {
  switch (t.wkind) {
    case TileWeight::kF32: return TileRows<TileWeight::kF32>(t);
    case TileWeight::kF16: return TileRows<TileWeight::kF16>(t);
    case TileWeight::kQ8_0: return TileRows<TileWeight::kQ8_0>(t);
    case TileWeight::kQ4_0: return TileRows<TileWeight::kQ4_0>(t);
  }
}

// --- Row-tiled attention block ---
// Scores: P pairs (row, head; P a power of two ≤ 8) at 16/P consecutive
// positions fill 16 dot accumulators (the dot_f16 body: one K decode feeds
// every pair), which reduce together through a transposed ReduceAdd16
// tree; the result is already position-major, so it stores as one vector
// (or P-lane pieces when the group is not all of the tile's pairs).
// Softmax: lane i of a vector is pair i of one position, so each pair's
// max, exp(s − m) and per-run sum are lane-wise ops in its own ascending
// order. V: one decode of a 32-column V chunk feeds up to 8 pairs' 2-vector
// accumulator chunks, held in registers across the whole block (the
// AxpyF16Avx512 body per element). Rows end at different positions; a
// group's last few positions run per pair, so no row touches a position
// past its own end.

struct TilePair {
  const float* q;
  float* sc;    ///< the pair's score column: position j at sc[j·ld]
  float* slot;  ///< {m, s, acc[d]}
  std::int32_t len;
};

/// Lane a = ReduceAdd16(acc[a]) for 16 accumulators, bit for bit: the
/// same pairwise tree (256-bit halves, 128-bit quarters, then
/// (s0 + s2) + (s1 + s3)) run as a transpose, so each add serves 16 sums.
/// Forced inline: as a call, TileScores16 spills its 16 accumulators to
/// the stack to pass them.
[[gnu::always_inline]] inline __m512 ReduceAdd16x16(const __m512* acc) {
  __m512 t[8];
  for (int i = 0; i < 8; ++i) {
    const __m512 a = acc[2 * i];
    const __m512 b = acc[2 * i + 1];
    t[i] = _mm512_add_ps(ShuffleF32x4<0x44>(a, b), ShuffleF32x4<0xEE>(a, b));
  }
  __m512 s[4];
  for (int i = 0; i < 4; ++i) {
    s[i] = _mm512_add_ps(ShuffleF32x4<0x88>(t[2 * i], t[2 * i + 1]),
                         ShuffleF32x4<0xDD>(t[2 * i], t[2 * i + 1]));
  }
  const __m512 w0 = _mm512_add_ps(_mm512_shuffle_ps(s[0], s[1], 0x44),
                                  _mm512_shuffle_ps(s[0], s[1], 0xEE));
  const __m512 w1 = _mm512_add_ps(_mm512_shuffle_ps(s[2], s[3], 0x44),
                                  _mm512_shuffle_ps(s[2], s[3], 0xEE));
  const __m512 f = _mm512_add_ps(_mm512_shuffle_ps(w0, w1, 0x88),
                                 _mm512_shuffle_ps(w0, w1, 0xDD));
  // Lane 4ℓ + m of f holds accumulator 4m + ℓ: transpose back.
  const __m512i order = _mm512_setr_epi32(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10,
                                          14, 3, 7, 11, 15);
  return _mm512_maskz_permutexvar_ps(0xFFFF, order, f);
}

/// Lane b·P + p of v to position b, pair p of a group whose first pair's
/// column starts at sc (positions ld apart).
template <int P>
inline void StoreScores(__m512 v, float* sc, std::size_t ld) {
  if (ld == P) {  // the group is every pair: positions are adjacent
    _mm512_storeu_ps(sc, v);
  } else if constexpr (P == 8) {
    _mm256_storeu_ps(sc, Half<0>(v));
    _mm256_storeu_ps(sc + ld, Half<1>(v));
  } else if constexpr (P == 4) {
    _mm_storeu_ps(sc, Quarter<0>(v));
    _mm_storeu_ps(sc + ld, Quarter<1>(v));
    _mm_storeu_ps(sc + 2 * ld, Quarter<2>(v));
    _mm_storeu_ps(sc + 3 * ld, Quarter<3>(v));
  } else {
    alignas(64) float lanes[16];
    _mm512_store_ps(lanes, v);
    for (int b = 0; b < 16 / P; ++b) {
      for (int p = 0; p < P; ++p) sc[b * ld + p] = lanes[b * P + p];
    }
  }
}

/// Scores of P pairs at 16/P positions starting at j0, every pair in range.
template <int P>
inline void TileScores16(const TilePair* pr, const f16* const* k,
                         std::size_t d, float scale, std::size_t ld,
                         std::int32_t j0) {
  constexpr int kPos = 16 / P;
  __m512 acc[16];
  for (auto& a : acc) a = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= d; i += 16) {
    __m512 qv[P];
    for (int p = 0; p < P; ++p) qv[p] = _mm512_loadu_ps(pr[p].q + i);
    for (int b = 0; b < kPos; ++b) {
      const __m512 kv = CvtPh16(LoadHalf16(k[b] + i));
      for (int p = 0; p < P; ++p) {
        acc[b * P + p] = _mm512_fmadd_ps(qv[p], kv, acc[b * P + p]);
      }
    }
  }
  if (i == d) {
    StoreScores<P>(_mm512_mul_ps(ReduceAdd16x16(acc), _mm512_set1_ps(scale)),
                   pr[0].sc + j0 * ld, ld);
    return;
  }
  alignas(64) float sums[16];
  _mm512_store_ps(sums, ReduceAdd16x16(acc));
  for (int b = 0; b < kPos; ++b) {
    for (int p = 0; p < P; ++p) {
      float sum = sums[b * P + p];
      for (std::size_t e = i; e < d; ++e) {
        sum = std::fma(pr[p].q[e], k[b][e].ToFloat(), sum);
      }
      pr[p].sc[(j0 + b) * ld] = sum * scale;
    }
  }
}

/// One pair's score at position j: the dot_f16 body as is.
inline void TileScoreAt(const TilePair& pr, const f16* k, std::size_t d,
                        float scale, std::size_t ld, std::int32_t j) {
  __m512 acc = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= d; i += 16) {
    acc = _mm512_fmadd_ps(_mm512_loadu_ps(pr.q + i),
                          CvtPh16(LoadHalf16(k + i)), acc);
  }
  float sum = ReduceAdd16(acc);
  for (; i < d; ++i) sum = std::fma(pr.q[i], k[i].ToFloat(), sum);
  pr.sc[j * ld] = sum * scale;
}

/// [lo, hi): the group's shortest and longest row.
template <int P>
inline void GroupSpan(const TilePair* pr, std::int32_t* lo, std::int32_t* hi) {
  *lo = *hi = pr[0].len;
  for (int p = 1; p < P; ++p) {
    *lo = std::min(*lo, pr[p].len);
    *hi = std::max(*hi, pr[p].len);
  }
}

template <int P>
void TileScoresGroup(const AttnTile& t, const TilePair* pr,
                     const f16* const* kp) {
  constexpr int kPos = 16 / P;
  std::int32_t lo, hi;
  GroupSpan<P>(pr, &lo, &hi);
  std::int32_t j = 0;
  for (; j + kPos <= lo; j += kPos) {
    for (int b = kPos; b < 2 * kPos && j + b < hi; ++b) {
      _mm_prefetch(reinterpret_cast<const char*>(kp[j + b]), _MM_HINT_T0);
    }
    TileScores16<P>(pr, kp + j, t.d, t.scale, t.ld_scores, j);
  }
  for (; j < hi; ++j) {
    for (int p = 0; p < P; ++p) {
      if (j < pr[p].len) {
        TileScoreAt(pr[p], kp[j], t.d, t.scale, t.ld_scores, j);
      }
    }
  }
}

/// The softmax pass. ld (a power of two ≥ pairs) splits into 16-lane
/// groups, lane i of group g being pair 16g + i; padding lanes have length
/// 0, so every mask leaves them out. Per pair, in its own ascending order:
///  1. the block max, one masked max per position;
///  2. p = exp(s − m) in place, over the dense score block in 16-lane
///     chunks (a chunk spans 16/ld positions when ld < 16): each chunk is
///     loaded and stored once, so no load waits on an overlapping store;
///  3. per page run, the ascending run sum of p, folded into s.
void TileSoftmax(const AttnTile& t) {
  const int pairs = t.rows * t.heads;
  const int ld = static_cast<int>(t.ld_scores);
  const int groups = (ld + 15) / 16;
  alignas(64) std::int32_t len[2 * 16] = {};
  std::int32_t max_len = 0;
  for (int p = 0; p < pairs; ++p) {
    len[p] = t.row_len[p / t.heads];
    max_len = std::max(max_len, len[p]);
  }
  __m512i lv[2];
  __m512 m[2];
  for (int g = 0; g < groups; ++g) {
    lv[g] = _mm512_load_si512(len + 16 * g);
    m[g] = _mm512_set1_ps(-INFINITY);
  }
  for (std::int32_t j = 0; j < max_len; ++j) {
    const float* row = t.scores + j * ld;
    for (int g = 0; g < groups; ++g) {
      const __mmask16 k = _mm512_cmpgt_epi32_mask(lv[g], _mm512_set1_epi32(j));
      m[g] = _mm512_mask_max_ps(m[g], k,
                                _mm512_maskz_loadu_ps(k, row + 16 * g), m[g]);
    }
  }
  alignas(64) float mv[2 * 16];
  for (int g = 0; g < groups; ++g) _mm512_store_ps(mv + 16 * g, m[g]);

  // Per chunk phase (ld/16 of them when ld > 16): each lane's m and length,
  // and its position offset within the chunk.
  const int phases = std::max(1, ld / 16);
  const int shift = std::countr_zero(static_cast<unsigned>(ld));
  alignas(64) float mrep[2 * 16];
  alignas(64) std::int32_t lrep[2 * 16];
  alignas(64) std::int32_t off[16];
  for (int i = 0; i < 16 * phases; ++i) {
    mrep[i] = mv[i & (ld - 1)];
    lrep[i] = len[i & (ld - 1)];
  }
  for (int i = 0; i < 16; ++i) off[i] = ld < 16 ? i >> shift : 0;
  const __m512i voff = _mm512_load_si512(off);
  const int total = max_len * ld;
  for (int f0 = 0, ph = 0; f0 < total; f0 += 16, ph = (ph + 1) % phases) {
    const __m512i pos = _mm512_add_epi32(_mm512_set1_epi32(f0 >> shift), voff);
    const __mmask16 k =
        _mm512_cmpgt_epi32_mask(_mm512_load_si512(lrep + 16 * ph), pos);
    float* chunk = t.scores + f0;
    const __m512 x = _mm512_maskz_loadu_ps(k, chunk);
    _mm512_mask_storeu_ps(
        chunk, k, Exp16(_mm512_sub_ps(x, _mm512_load_ps(mrep + 16 * ph))));
  }

  __m512 s[2] = {_mm512_setzero_ps(), _mm512_setzero_ps()};
  std::int32_t j = 0;
  for (int ri = 0; ri < t.n_runs && j < max_len; ++ri) {
    const std::int32_t end = std::min(max_len, j + t.runs[ri].len);
    __m512 run_sum[2] = {_mm512_setzero_ps(), _mm512_setzero_ps()};
    for (; j < end; ++j) {
      const float* row = t.scores + j * ld;
      for (int g = 0; g < groups; ++g) {
        const __mmask16 k =
            _mm512_cmpgt_epi32_mask(lv[g], _mm512_set1_epi32(j));
        run_sum[g] = _mm512_mask_add_ps(run_sum[g], k, run_sum[g],
                                        _mm512_maskz_loadu_ps(k, row + 16 * g));
      }
    }
    for (int g = 0; g < groups; ++g) s[g] = _mm512_add_ps(s[g], run_sum[g]);
  }
  alignas(64) float sv[2 * 16];
  for (int g = 0; g < groups; ++g) _mm512_store_ps(sv + 16 * g, s[g]);
  for (int p = 0; p < pairs; ++p) {
    float* slot = t.out + static_cast<std::size_t>(p) * t.ld_out;
    slot[0] = mv[p];
    slot[1] = sv[p];
  }
}

template <int P, int W>
void TileAccumChunk(const TilePair* pr, const f16* const* vp,
                    std::size_t col, std::size_t ld, std::int32_t lo,
                    std::int32_t hi) {
  __m512 acc[P][W];
  for (int p = 0; p < P; ++p) {
    for (int w = 0; w < W; ++w) acc[p][w] = _mm512_setzero_ps();
  }
  // Positions every pair covers, then the group's ragged end.
  const auto step = [&](std::int32_t j, bool ragged) {
    __m512 vv[W];
    for (int w = 0; w < W; ++w) {
      vv[w] = CvtPh16(LoadHalf16(vp[j] + col + 16 * w));
    }
    for (int p = 0; p < P; ++p) {
      if (ragged && j >= pr[p].len) continue;
      const __m512 pj = _mm512_set1_ps(pr[p].sc[j * ld]);
      for (int w = 0; w < W; ++w) {
        acc[p][w] = _mm512_fmadd_ps(pj, vv[w], acc[p][w]);
      }
    }
  };
  std::int32_t j = 0;
  for (; j < lo; ++j) step(j, false);
  for (; j < hi; ++j) step(j, true);
  for (int p = 0; p < P; ++p) {
    for (int w = 0; w < W; ++w) {
      _mm512_storeu_ps(pr[p].slot + 2 + col + 16 * w, acc[p][w]);
    }
  }
}

template <int P>
void TileAccumGroup(const AttnTile& t, const TilePair* pr,
                    const f16* const* vp) {
  std::int32_t lo, hi;
  GroupSpan<P>(pr, &lo, &hi);
  const std::size_t ld = t.ld_scores;
  const std::size_t nv = t.d / 16 * 16;
  std::size_t col = 0;
  for (; col + 32 <= nv; col += 32) {
    TileAccumChunk<P, 2>(pr, vp, col, ld, lo, hi);
  }
  if (col < nv) TileAccumChunk<P, 1>(pr, vp, col, ld, lo, hi);
  // Columns past the last full vector: AxpyF16Avx512's std::fma tail.
  for (std::size_t e = nv; e < t.d; ++e) {
    for (int p = 0; p < P; ++p) {
      float a = 0.0f;
      for (std::int32_t j = 0; j < pr[p].len; ++j) {
        a = std::fma(pr[p].sc[j * ld], vp[j][e].ToFloat(), a);
      }
      pr[p].slot[2 + e] = a;
    }
  }
}

void AttnTileAvx512(const AttnTile& t) {
  TilePair pr[kAttnTileRows * kAttnTileHeads];
  const int pairs = t.rows * t.heads;
  std::int32_t max_len = 0;
  for (int i = 0; i < pairs; ++i) {
    const int r = i / t.heads;
    pr[i] = {t.q + static_cast<std::size_t>(r) * t.ldq +
                 static_cast<std::size_t>(i % t.heads) * t.d,
             t.scores + i, t.out + static_cast<std::size_t>(i) * t.ld_out,
             t.row_len[r]};
    max_len = std::max(max_len, t.row_len[r]);
  }
  // Entry pointers per block position, for K and V.
  const f16* kp[kAttnTileMaxBlock];
  const f16* vp[kAttnTileMaxBlock];
  std::int32_t j = 0;
  for (int ri = 0; ri < t.n_runs && j < max_len; ++ri) {
    for (std::int32_t o = 0; o < t.runs[ri].len && j < max_len; ++o, ++j) {
      kp[j] = t.runs[ri].k + static_cast<std::size_t>(o) * t.stride;
      vp[j] = t.runs[ri].v + static_cast<std::size_t>(o) * t.stride;
    }
  }
  // Scores in power-of-two groups of up to 8 pairs.
  for (int g = 0; g < pairs;) {
    const int rest = pairs - g;
    const int n = rest >= 8 ? 8 : rest >= 4 ? 4 : rest >= 2 ? 2 : 1;
    switch (n) {
      case 8: TileScoresGroup<8>(t, pr + g, kp); break;
      case 4: TileScoresGroup<4>(t, pr + g, kp); break;
      case 2: TileScoresGroup<2>(t, pr + g, kp); break;
      default: TileScoresGroup<1>(t, pr + g, kp); break;
    }
    g += n;
  }
  TileSoftmax(t);
  for (int g = 0; g < pairs; g += 8) {
    switch (std::min(8, pairs - g)) {
      case 1: TileAccumGroup<1>(t, pr + g, vp); break;
      case 2: TileAccumGroup<2>(t, pr + g, vp); break;
      case 3: TileAccumGroup<3>(t, pr + g, vp); break;
      case 4: TileAccumGroup<4>(t, pr + g, vp); break;
      case 5: TileAccumGroup<5>(t, pr + g, vp); break;
      case 6: TileAccumGroup<6>(t, pr + g, vp); break;
      case 7: TileAccumGroup<7>(t, pr + g, vp); break;
      case 8: TileAccumGroup<8>(t, pr + g, vp); break;
    }
  }
}

// The synthetic-weight draw (simd_gaussian.h), 16 pairs per block.
struct Avx512Gaussian {
  static constexpr int kLanes = 16;
  typedef double D __attribute__((vector_size(64)));
  typedef std::uint64_t U __attribute__((vector_size(64)));
  typedef float FH __attribute__((vector_size(32)));
  typedef std::int32_t IH __attribute__((vector_size(32)));
  typedef float F __attribute__((vector_size(64)));
  typedef std::int32_t I __attribute__((vector_size(64)));
  typedef std::uint16_t H __attribute__((vector_size(32)));
  static D Fma(D a, D b, D c) { return _mm512_fmadd_pd(a, b, c); }
  static F Fma(F a, F b, F c) { return _mm512_fmadd_ps(a, b, c); }
  static F Sqrt(F x) { return _mm512_maskz_sqrt_ps(0xFFFF, x); }
  /// u = 2^k·(1 + f), 1 + f ∈ [√2/2, √2): getmant's [1, 2) mantissa,
  /// halved from avx2's integer split point (≈ √2) up, so both levels
  /// reduce alike.
  static void SplitLog(D u, D* f, D* k) {
    const __m512d m =
        _mm512_maskz_getmant_pd(0xFF, u, _MM_MANT_NORM_1_2, _MM_MANT_SIGN_src);
    const __mmask8 big =
        _mm512_cmp_pd_mask(m, _mm512_set1_pd(0x1.6a09cp+0), _CMP_GE_OQ);
    *f = _mm512_mask_mul_pd(m, big, m, _mm512_set1_pd(0.5)) - 1.0;
    const __m512d e = _mm512_maskz_getexp_pd(0xFF, u);
    *k = _mm512_mask_add_pd(e, big, e, _mm512_set1_pd(1.0));
  }
  static FH ToFloat(D x) { return _mm512_maskz_cvtpd_ps(0xFF, x); }
  static D ToDouble(FH x) { return _mm512_maskz_cvtps_pd(0xFF, x); }
  static IH Narrow(U x) {
    return reinterpret_cast<IH>(
        _mm512_maskz_cvtepi64_epi32(0xFF, reinterpret_cast<__m512i>(x)));
  }
  static F Join(FH lo, FH hi) {
    return _mm512_insertf32x8(_mm512_castps256_ps512(lo), hi, 1);
  }
  static I Join(IH lo, IH hi) {
    return reinterpret_cast<I>(_mm512_inserti32x8(
        _mm512_castsi256_si512(reinterpret_cast<__m256i>(lo)),
        reinterpret_cast<__m256i>(hi), 1));
  }
  static H ToHalf(F x) {
    return reinterpret_cast<H>(_mm512_maskz_cvtps_ph(
        0xFFFF, x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
  }
  static bool AnyZero(D x) {
    return _mm512_cmpeq_pd_mask(x, _mm512_setzero_pd()) != 0;
  }
  /// Bit j set where a0 != b0 or a1 != b1 in lane j.
  static unsigned Differ(H a0, H b0, H a1, H b1) {
    const auto v = [](H x) { return reinterpret_cast<__m256i>(x); };
    return _mm256_cmpneq_epu16_mask(v(a0), v(b0)) |
           _mm256_cmpneq_epu16_mask(v(a1), v(b1));
  }
  // Word and Unit keep the 512-bit shifts, which only port 0 runs, to
  // five per word pair: the rotate count and the dword moves go through
  // shuffles instead.
  /// ((s >> 18) ^ s) >> 27 is (s >> 27) ^ (s >> 45); the rotate count
  /// s >> 59 is the high dword of s >> 27, moved down by a shuffle. The
  /// 32-bit rotate runs on each qword's low dword; the high dword is left
  /// as garbage.
  static U Word(U s) {
    const auto v = [](U x) { return reinterpret_cast<__m512i>(x); };
    const U s27 = s >> 27U;
    const __m512i count =
        _mm512_maskz_shuffle_epi32(0xFFFF, v(s27), _MM_PERM_DDBB);
    return reinterpret_cast<U>(
        _mm512_maskz_rorv_epi32(0xFFFF, v(s27 ^ (s >> 45U)), count));
  }
  /// NextDouble from the words' low dwords: the qword hi·2^32 + lo (one
  /// shuffle, one blend) shifted right by 11, converted exactly
  /// (vcvtuqq2pd is exact below 2^53) and scaled by 2^-53.
  static D Unit(U hi, U lo) {
    const auto v = [](U x) { return reinterpret_cast<__m512i>(x); };
    const U both = reinterpret_cast<U>(_mm512_mask_blend_epi32(
        0xAAAA, v(lo),
        _mm512_maskz_shuffle_epi32(0xFFFF, v(hi), _MM_PERM_CCAA)));
    return _mm512_maskz_cvtepu64_pd(0xFF, v(both >> 11U)) * 0x1.0p-53;
  }
};
using Avx512Draw = simd_detail::GaussianLanes<Avx512Gaussian>;

constexpr SimdOps kAvx512Ops = {
    .level = SimdLevel::kAvx512,
    .name = "avx512",
    .half_to_float_n = HalfToFloatAvx512,
    .float_to_half_n = FloatToHalfAvx512,
    .axpy_f32 = AxpyF32Avx512,
    .dot_f16 = DotF16Avx512,
    .scale_add_f16 = ScaleAddF16Avx512,
    .dot_f16_strip = DotF16StripAvx512,
    .softmax_accum_f16 = SoftmaxAccumF16Avx512,
    .gemm_tile = GemmTileAvx512,
    .attn_tile = AttnTileAvx512,
    .exp_f32 = ExpF32Avx512,
    .silu_mul = SiluMulAvx512,
    .pcg_uniform_pairs = Avx512Draw::Uniforms,
    .box_muller_f16 = Avx512Draw::BoxMullerF16,
    .box_muller_lanes = Avx512Draw::BoxMullerLanes,
};

}  // namespace

namespace simd_detail {
const SimdOps* Avx512OpsOrNull() { return &kAvx512Ops; }
}  // namespace simd_detail

}  // namespace punica

#else  // portable build: no avx512 table

namespace punica::simd_detail {
const SimdOps* Avx512OpsOrNull() { return nullptr; }
}  // namespace punica::simd_detail

#endif
