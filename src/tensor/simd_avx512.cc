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

#include <cmath>

#include "tensor/quant.h"

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

// --- Quantized-weight kernels ---
// A Q8_0 block is 2 groups of 16 int8; a Q4_0 block's 16 bytes hold
// elements 0..15 in the low nibbles and 16..31 in the high nibbles, so each
// nibble plane is one 16-element group. Decode: sign-extend to int32,
// convert, multiply by the broadcast scale (exact in f32). Tails use
// std::fma on the same exact scalar decode.
//
// As on the avx2 path: dequant_* keep the exact d·q product (bit-identical
// to scalar); the fused axpy_* fold the activation into the block scale —
// y += (a·d)·q, one extra rounding on a·d, inside the dispatch-seam
// tolerance and a fixed sequence within this path.

/// Scale decode via hardware cvtph (bit-identical to HalfBitsToFloat;
/// f16 -> f32 is exact) without the out-of-line call per block.
inline float ScaleF32(f16 h) {
  return _mm_cvtss_f32(_mm_cvtph_ps(_mm_cvtsi32_si128(h.bits())));
}

inline float Q8ValueRef(const BlockQ8_0* w, std::size_t i) {
  const BlockQ8_0& b = w[i / kQuantBlock];
  return b.scale.ToFloat() * static_cast<float>(b.qs[i % kQuantBlock]);
}

inline float Q4ValueRef(const BlockQ4_0* w, std::size_t i) {
  const BlockQ4_0& b = w[i / kQuantBlock];
  const std::size_t e = i % kQuantBlock;
  const std::uint8_t byte = b.qs[e & (kQuantBlock / 2 - 1)];
  const int code = e < kQuantBlock / 2 ? (byte & 0x0F) : (byte >> 4);
  return b.scale.ToFloat() * static_cast<float>(code - 8);
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

void DequantQ8Avx512(const BlockQ8_0* w, float* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + kQuantBlock <= n; i += kQuantBlock) {
    const BlockQ8_0& b = w[i / kQuantBlock];
    const __m512 vd = _mm512_set1_ps(ScaleF32(b.scale));
    for (int g = 0; g < 2; ++g) {
      _mm512_storeu_ps(dst + i + 16 * g, _mm512_mul_ps(Q8Codes16(b, g), vd));
    }
  }
  for (; i < n; ++i) dst[i] = Q8ValueRef(w, i);
}

void DequantQ4Avx512(const BlockQ4_0* w, float* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + kQuantBlock <= n; i += kQuantBlock) {
    const BlockQ4_0& b = w[i / kQuantBlock];
    const __m512 vd = _mm512_set1_ps(ScaleF32(b.scale));
    for (int g = 0; g < 2; ++g) {
      _mm512_storeu_ps(dst + i + 16 * g, _mm512_mul_ps(Q4Codes16(b, g), vd));
    }
  }
  for (; i < n; ++i) dst[i] = Q4ValueRef(w, i);
}

void AxpyQ8Avx512(float a, const BlockQ8_0* w, float* y, std::size_t n) {
  std::size_t i = 0;
  for (; i + kQuantBlock <= n; i += kQuantBlock) {
    const BlockQ8_0& b = w[i / kQuantBlock];
    // Keep the streamed weight blocks a few cache lines ahead of the
    // decode: the cvt/FMA work between block loads is long enough that
    // demand misses stop overlapping when w does not fit cache.
    _mm_prefetch(reinterpret_cast<const char*>(&b) + 256, _MM_HINT_T0);
    const __m512 vf = _mm512_set1_ps(a * ScaleF32(b.scale));
    for (int g = 0; g < 2; ++g) {
      __m512 vq = _mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(_mm_loadu_si128(
          reinterpret_cast<const __m128i*>(b.qs + 16 * g))));
      __m512 vy = _mm512_loadu_ps(y + i + 16 * g);
      _mm512_storeu_ps(y + i + 16 * g, _mm512_fmadd_ps(vf, vq, vy));
    }
  }
  for (; i < n; ++i) y[i] = std::fma(a, Q8ValueRef(w, i), y[i]);
}

void AxpyQ4Avx512(float a, const BlockQ4_0* w, float* y, std::size_t n) {
  const __m128i mask = _mm_set1_epi8(0x0F);
  const __m128i bias = _mm_set1_epi8(8);
  std::size_t i = 0;
  for (; i + kQuantBlock <= n; i += kQuantBlock) {
    const BlockQ4_0& b = w[i / kQuantBlock];
    _mm_prefetch(reinterpret_cast<const char*>(&b) + 256, _MM_HINT_T0);
    const __m512 vf = _mm512_set1_ps(a * ScaleF32(b.scale));
    const __m128i raw =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b.qs));
    const __m128i grp[2] = {
        _mm_sub_epi8(_mm_and_si128(raw, mask), bias),
        _mm_sub_epi8(_mm_and_si128(_mm_srli_epi16(raw, 4), mask), bias)};
    for (int g = 0; g < 2; ++g) {
      __m512 vq = _mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(grp[g]));
      __m512 vy = _mm512_loadu_ps(y + i + 16 * g);
      _mm512_storeu_ps(y + i + 16 * g, _mm512_fmadd_ps(vf, vq, vy));
    }
  }
  for (; i < n; ++i) y[i] = std::fma(a, Q4ValueRef(w, i), y[i]);
}

float DotQ8Avx512(const float* a, const BlockQ8_0* b, std::size_t n) {
  __m512 acc = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + kQuantBlock <= n; i += kQuantBlock) {
    const BlockQ8_0& blk = b[i / kQuantBlock];
    const __m512 vd = _mm512_set1_ps(ScaleF32(blk.scale));
    for (int g = 0; g < 2; ++g) {
      __m512 vw = _mm512_mul_ps(Q8Codes16(blk, g), vd);
      acc = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 16 * g), vw, acc);
    }
  }
  float sum = ReduceAdd16(acc);
  for (; i < n; ++i) sum = std::fma(a[i], Q8ValueRef(b, i), sum);
  return sum;
}

float DotQ4Avx512(const float* a, const BlockQ4_0* b, std::size_t n) {
  __m512 acc = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + kQuantBlock <= n; i += kQuantBlock) {
    const BlockQ4_0& blk = b[i / kQuantBlock];
    const __m512 vd = _mm512_set1_ps(ScaleF32(blk.scale));
    for (int g = 0; g < 2; ++g) {
      __m512 vw = _mm512_mul_ps(Q4Codes16(blk, g), vd);
      acc = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 16 * g), vw, acc);
    }
  }
  float sum = ReduceAdd16(acc);
  for (; i < n; ++i) sum = std::fma(a[i], Q4ValueRef(b, i), sum);
  return sum;
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

constexpr SimdOps kAvx512Ops = {
    .level = SimdLevel::kAvx512,
    .name = "avx512",
    .half_to_float_n = HalfToFloatAvx512,
    .float_to_half_n = FloatToHalfAvx512,
    .axpy_f32 = AxpyF32Avx512,
    .axpy_f16 = AxpyF16Avx512,
    .dot_f16 = DotF16Avx512,
    .scale_add_f16 = ScaleAddF16Avx512,
    .dot_f16_strip = DotF16StripAvx512,
    .softmax_accum_f16 = SoftmaxAccumF16Avx512,
    .dequant_q8 = DequantQ8Avx512,
    .dequant_q4 = DequantQ4Avx512,
    .axpy_q8 = AxpyQ8Avx512,
    .axpy_q4 = AxpyQ4Avx512,
    .dot_q8 = DotQ8Avx512,
    .dot_q4 = DotQ4Avx512,
    .gemm_tile = GemmTileAvx512,
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
