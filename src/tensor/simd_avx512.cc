// The avx512 SIMD path: AVX-512 F/BW/VL, 512-bit f32 lanes.
//
// Same contract and structure as simd_avx2.cc, one tier up: 16-element
// bodies instead of 8. CMake compiles this TU with -mavx512f -mavx512bw
// -mavx512vl (plus the avx2 set for the scalar-ish edges) and defines
// PUNICA_NATIVE_SIMD when configured with -DPUNICA_NATIVE_SIMD=ON; the
// portable build compiles the stub. Runtime cpuid (simd.cc) gates dispatch
// on avx512f+bw+vl, so a binary carrying this TU still runs (degraded to
// avx2 or scalar) on hardware without them.
//
// Determinism: fixed 16-lane bodies in ascending order, scalar std::fma
// tails, and dot reduces its lane accumulator in one fixed shuffle order
// (512 → 256 → the same 128-bit sequence the avx2 path uses). This is a
// distinct dispatch path: bit-identical to itself at any thread count, and
// within the documented FMA-contraction envelope of the other paths.
// Intrinsics are chosen from AVX512F only where a DQ/BW sibling exists
// (e.g. extractf64x4 rather than extractf32x8) so the compiled code stays
// inside the cpuid gate.
#include "tensor/simd.h"

#if defined(PUNICA_NATIVE_SIMD) && defined(__AVX512F__) && \
    (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include <algorithm>
#include <cmath>

#include "tensor/quant.h"
#include "tensor/simd_gaussian.h"

namespace punica {
namespace {

inline __m256i LoadHalf16(const f16* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

void HalfToFloatAvx512(const f16* src, float* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(dst + i, _mm512_cvtph_ps(LoadHalf16(src + i)));
  }
  for (; i < n; ++i) dst[i] = src[i].ToFloat();
}

void FloatToHalfAvx512(const float* src, f16* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m256i h = _mm512_cvtps_ph(_mm512_loadu_ps(src + i),
                                _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
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
    __m512 vx = _mm512_cvtph_ps(LoadHalf16(x + i));
    __m512 vy = _mm512_loadu_ps(y + i);
    _mm512_storeu_ps(y + i, _mm512_fmadd_ps(va, vx, vy));
  }
  for (; i < n; ++i) y[i] = std::fma(a, x[i].ToFloat(), y[i]);
}

// Fixed-order horizontal reduction, matching the avx2 path's final 128-bit
// sequence: 512 halves, 256 halves, movehl, shuffle.
inline float ReduceAdd16(__m512 acc) {
  __m256 lo = _mm512_castps512_ps256(acc);
  __m256 hi = _mm256_castpd_ps(
      _mm512_extractf64x4_pd(_mm512_castps_pd(acc), 1));
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
    __m512 vb = _mm512_cvtph_ps(LoadHalf16(b + i));
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
    __m512 vv = _mm512_cvtph_ps(LoadHalf16(v + i));
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
    float p = std::exp(scores[j] - m);
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
  return _mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(q8));
}

/// Decoded f32 vector for elements [16g, 16g+16) of a Q4_0 block (g 0..1),
/// before the scale multiply.
inline __m512 Q4Codes16(const BlockQ4_0& b, int g) {
  __m128i raw = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b.qs));
  const __m128i mask = _mm_set1_epi8(0x0F);
  __m128i nib = g == 0 ? _mm_and_si128(raw, mask)
                       : _mm_and_si128(_mm_srli_epi16(raw, 4), mask);
  __m128i codes = _mm_sub_epi8(nib, _mm_set1_epi8(8));
  return _mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(codes));
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
    return _mm512_cvtph_ps(LoadHalf16(Ptr(t, p, j)));
  }
  static __m512 LoadMasked(const GemmTile& t, std::size_t p, std::size_t j,
                           __mmask16 m) {
    return _mm512_cvtph_ps(_mm256_maskz_loadu_epi16(m, Ptr(t, p, j)));
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
// tree. V: one decode of a 32-column V chunk feeds up to 8 pairs' 2-vector
// accumulator chunks, held in registers across the whole block (the
// AxpyF16Avx512 body per element). Rows end at different positions; a
// group's last few positions run per pair, so no row touches a position
// past its own end.

struct TilePair {
  const float* q;
  float* sc;    ///< scores, then p after the softmax pass
  float* slot;  ///< {m, s, acc[d]}
  std::int32_t len;
};

/// Lane a = ReduceAdd16(acc[a]) for 16 accumulators, bit for bit: the
/// same pairwise tree (256-bit halves, 128-bit quarters, then
/// (s0 + s2) + (s1 + s3)) run as a transpose, so each add serves 16 sums.
inline __m512 ReduceAdd16x16(const __m512* acc) {
  __m512 t[8];
  for (int i = 0; i < 8; ++i) {
    const __m512 a = acc[2 * i];
    const __m512 b = acc[2 * i + 1];
    t[i] = _mm512_add_ps(_mm512_shuffle_f32x4(a, b, 0x44),
                         _mm512_shuffle_f32x4(a, b, 0xEE));
  }
  __m512 s[4];
  for (int i = 0; i < 4; ++i) {
    s[i] = _mm512_add_ps(_mm512_shuffle_f32x4(t[2 * i], t[2 * i + 1], 0x88),
                         _mm512_shuffle_f32x4(t[2 * i], t[2 * i + 1], 0xDD));
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
  return _mm512_permutexvar_ps(order, f);
}

/// Scores of P pairs at 16/P positions starting at j0, every pair in range.
template <int P>
inline void TileScores16(const TilePair* pr, const f16* const* k,
                         std::size_t d, float scale, std::int32_t j0) {
  constexpr int kPos = 16 / P;
  __m512 acc[16];
  for (auto& a : acc) a = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= d; i += 16) {
    __m512 qv[P];
    for (int p = 0; p < P; ++p) qv[p] = _mm512_loadu_ps(pr[p].q + i);
    for (int b = 0; b < kPos; ++b) {
      const __m512 kv = _mm512_cvtph_ps(LoadHalf16(k[b] + i));
      for (int p = 0; p < P; ++p) {
        acc[b * P + p] = _mm512_fmadd_ps(qv[p], kv, acc[b * P + p]);
      }
    }
  }
  alignas(64) float sums[16];
  if (i == d) {
    _mm512_store_ps(sums, _mm512_mul_ps(ReduceAdd16x16(acc),
                                        _mm512_set1_ps(scale)));
    for (int b = 0; b < kPos; ++b) {
      for (int p = 0; p < P; ++p) pr[p].sc[j0 + b] = sums[b * P + p];
    }
    return;
  }
  _mm512_store_ps(sums, ReduceAdd16x16(acc));
  for (int b = 0; b < kPos; ++b) {
    for (int p = 0; p < P; ++p) {
      float sum = sums[b * P + p];
      for (std::size_t e = i; e < d; ++e) {
        sum = std::fma(pr[p].q[e], k[b][e].ToFloat(), sum);
      }
      pr[p].sc[j0 + b] = sum * scale;
    }
  }
}

/// One pair's score at position j: the dot_f16 body as is.
inline void TileScoreAt(const TilePair& pr, const f16* k, std::size_t d,
                        float scale, std::int32_t j) {
  __m512 acc = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= d; i += 16) {
    acc = _mm512_fmadd_ps(_mm512_loadu_ps(pr.q + i),
                          _mm512_cvtph_ps(LoadHalf16(k + i)), acc);
  }
  float sum = ReduceAdd16(acc);
  for (; i < d; ++i) sum = std::fma(pr.q[i], k[i].ToFloat(), sum);
  pr.sc[j] = sum * scale;
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
    TileScores16<P>(pr, kp + j, t.d, t.scale, j);
  }
  for (; j < hi; ++j) {
    for (int p = 0; p < P; ++p) {
      if (j < pr[p].len) TileScoreAt(pr[p], kp[j], t.d, t.scale, j);
    }
  }
}

template <int P, int W>
void TileAccumChunk(const TilePair* pr, const f16* const* vp,
                    std::size_t col, std::int32_t lo, std::int32_t hi) {
  __m512 acc[P][W];
  for (int p = 0; p < P; ++p) {
    for (int w = 0; w < W; ++w) acc[p][w] = _mm512_setzero_ps();
  }
  // Positions every pair covers, then the group's ragged end.
  const auto step = [&](std::int32_t j, bool ragged) {
    __m512 vv[W];
    for (int w = 0; w < W; ++w) {
      vv[w] = _mm512_cvtph_ps(LoadHalf16(vp[j] + col + 16 * w));
    }
    for (int p = 0; p < P; ++p) {
      if (ragged && j >= pr[p].len) continue;
      const __m512 pj = _mm512_set1_ps(pr[p].sc[j]);
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
  const std::size_t nv = t.d / 16 * 16;
  std::size_t col = 0;
  for (; col + 32 <= nv; col += 32) TileAccumChunk<P, 2>(pr, vp, col, lo, hi);
  if (col < nv) TileAccumChunk<P, 1>(pr, vp, col, lo, hi);
  // Columns past the last full vector: AxpyF16Avx512's std::fma tail.
  for (std::size_t e = nv; e < t.d; ++e) {
    for (int p = 0; p < P; ++p) {
      float a = 0.0f;
      for (std::int32_t j = 0; j < pr[p].len; ++j) {
        a = std::fma(pr[p].sc[j], vp[j][e].ToFloat(), a);
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
             t.scores + static_cast<std::size_t>(i) * t.ld_scores,
             t.out + static_cast<std::size_t>(i) * t.ld_out, t.row_len[r]};
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
  simd_detail::AttnTileSoftmax(t);
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

// The synthetic-weight draw (simd_gaussian.h), 8 pairs per step.
struct Avx512Gaussian {
  static constexpr int kLanes = 8;
  typedef double D __attribute__((vector_size(64)));
  typedef std::uint64_t U __attribute__((vector_size(64)));
  typedef float F __attribute__((vector_size(32)));
  typedef std::int32_t I __attribute__((vector_size(32)));
  static D Sqrt(D x) { return _mm512_maskz_sqrt_pd(0xFF, x); }
  static D Fma(D a, D b, D c) { return _mm512_fmadd_pd(a, b, c); }
  static bool AnyD(U m) {
    return _mm512_test_epi64_mask(reinterpret_cast<__m512i>(m),
                                  reinterpret_cast<__m512i>(m)) != 0;
  }
  static bool AnyF(I m) {
    return _mm256_movemask_ps(reinterpret_cast<__m256>(m)) != 0;
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
    .pcg_uniform_pairs = Avx512Draw::Uniforms,
    .box_muller_f32 = Avx512Draw::BoxMullerF32,
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
