// The avx2 SIMD path: AVX2 + FMA + F16C, 256-bit f32 lanes.
//
// CMake compiles this TU with -mavx2 -mfma -mf16c and defines
// PUNICA_NATIVE_SIMD when configured with -DPUNICA_NATIVE_SIMD=ON; in the
// default portable build the file compiles to a stub returning nullptr and
// dispatch degrades. Runtime cpuid (simd.cc) keeps a vector-enabled binary
// safe on CPUs without the features. simd_avx512.cc follows the same
// pattern one tier up.
//
// Determinism: every loop below is a fixed sequence for a given (pointer,
// n) — full 8-lane bodies in ascending order, then a scalar tail (std::fma,
// matching the vector body's contraction). dot's lane accumulators reduce
// in one fixed shuffle order. No operation order ever depends on the
// thread count. The quantized weight decode computes d * q exactly (both
// factors fit f32), so the decoded weight is bit-identical to the scalar
// path's.
#include "tensor/simd.h"

#if defined(PUNICA_NATIVE_SIMD) && \
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

inline __m128i LoadHalf8(const f16* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

void HalfToFloatAvx(const f16* src, float* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_cvtph_ps(LoadHalf8(src + i)));
  }
  for (; i < n; ++i) dst[i] = src[i].ToFloat();
}

void FloatToHalfAvx(const float* src, f16* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m128i h = _mm256_cvtps_ph(_mm256_loadu_ps(src + i),
                                _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), h);
  }
  for (; i < n; ++i) dst[i] = f16(src[i]);
}

void AxpyF32Avx(float a, const float* x, float* y, std::size_t n) {
  const __m256 va = _mm256_set1_ps(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 vy = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(y + i, _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i), vy));
  }
  for (; i < n; ++i) y[i] = std::fma(a, x[i], y[i]);
}

void AxpyF16Avx(float a, const f16* x, float* y, std::size_t n) {
  const __m256 va = _mm256_set1_ps(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 vx = _mm256_cvtph_ps(LoadHalf8(x + i));
    __m256 vy = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(y + i, _mm256_fmadd_ps(va, vx, vy));
  }
  for (; i < n; ++i) y[i] = std::fma(a, x[i].ToFloat(), y[i]);
}

/// ExpF32 in 8 lanes: the same fma sequence (tensor/simd_exp.h).
inline __m256 Exp8(__m256 x) {
  typedef std::int32_t I __attribute__((vector_size(32)));
  return exp_detail::ExpLanes<__m256, I>(
      x, [](__m256 a, __m256 b, __m256 c) { return _mm256_fmadd_ps(a, b, c); });
}

/// All-ones in lanes [0, n), n ≤ 8 — a maskload/maskstore mask.
inline __m256i FirstLanes(std::size_t n) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

void ExpF32Avx(const float* x, float* y, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, Exp8(_mm256_loadu_ps(x + i)));
  }
  if (i < n) {
    const __m256i k = FirstLanes(n - i);
    _mm256_maskstore_ps(y + i, k, Exp8(_mm256_maskload_ps(x + i, k)));
  }
}

inline __m256 SiluMul8(__m256 g, __m256 u) {
  return _mm256_mul_ps(
      _mm256_div_ps(g, _mm256_add_ps(_mm256_set1_ps(1.0f), Exp8(-g))), u);
}

void SiluMulAvx(float* gate, const float* up, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(gate + i, SiluMul8(_mm256_loadu_ps(gate + i),
                                        _mm256_loadu_ps(up + i)));
  }
  if (i < n) {
    const __m256i k = FirstLanes(n - i);
    _mm256_maskstore_ps(gate + i, k,
                        SiluMul8(_mm256_maskload_ps(gate + i, k),
                                 _mm256_maskload_ps(up + i, k)));
  }
}

// Fixed-order horizontal reduction: (lo+hi) pairs, then within the 128-bit
// half.
inline float ReduceAdd8(__m256 acc) {
  __m128 s = _mm_add_ps(_mm256_castps256_ps128(acc),
                        _mm256_extractf128_ps(acc, 1));
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

float DotF16Avx(const float* a, const f16* b, std::size_t n) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 vb = _mm256_cvtph_ps(LoadHalf8(b + i));
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), vb, acc);
  }
  float sum = ReduceAdd8(acc);
  for (; i < n; ++i) sum = std::fma(a[i], b[i].ToFloat(), sum);
  return sum;
}

void ScaleAddF16Avx(float* acc, float c, float p, const f16* v,
                    std::size_t n) {
  const __m256 vc = _mm256_set1_ps(c);
  const __m256 vp = _mm256_set1_ps(p);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 va = _mm256_mul_ps(_mm256_loadu_ps(acc + i), vc);
    __m256 vv = _mm256_cvtph_ps(LoadHalf8(v + i));
    _mm256_storeu_ps(acc + i, _mm256_fmadd_ps(vp, vv, va));
  }
  for (; i < n; ++i) acc[i] = std::fma(p, v[i].ToFloat(), acc[i] * c);
}

// Page-run strips: each position runs the level's dot/axpy body above (so
// run segmentation never changes numerics); the only additions are a
// prefetch a couple of entries ahead, keeping the f16 stream in flight
// while the current entry's FMA chain drains.

void DotF16StripAvx(const float* q, const f16* k, std::size_t stride,
                    std::size_t d, std::size_t n_pos, float scale,
                    float* scores) {
  for (std::size_t j = 0; j < n_pos; ++j) {
    if (j + 2 < n_pos) {
      _mm_prefetch(reinterpret_cast<const char*>(k + (j + 2) * stride),
                   _MM_HINT_T0);
    }
    scores[j] = DotF16Avx(q, k + j * stride, d) * scale;
  }
}

float SoftmaxAccumF16Avx(const float* scores, float m, const f16* v,
                         std::size_t stride, std::size_t d, std::size_t n_pos,
                         float* acc) {
  float sum = 0.0f;
  for (std::size_t j = 0; j < n_pos; ++j) {
    if (j + 2 < n_pos) {
      _mm_prefetch(reinterpret_cast<const char*>(v + (j + 2) * stride),
                   _MM_HINT_T0);
    }
    float p = ExpF32(scores[j] - m);
    AxpyF16Avx(p, v + j * stride, acc, d);
    sum += p;
  }
  return sum;
}

// --- Quantized-weight decode (the GEMM tile's) ---
// A Q8_0 block is 4 groups of 8 int8; a Q4_0 block is 4 groups of 8
// nibbles. Each group decodes to one 256-bit f32 vector: sign-extend to
// int32, convert, multiply by the broadcast scale (exact — both factors fit
// f32's significand), so the decoded weight is bit-identical to the scalar
// path's. Tile columns past the last full vector use the same exact decode
// one element at a time.

/// Scale decode via F16C: bit-identical to the software HalfBitsToFloat
/// (f16 -> f32 is exact for every finite value incl. subnormals) without
/// the out-of-line call per block.
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

/// Decoded f32 vector for elements [8g, 8g+8) of a Q8_0 block (g in 0..3),
/// before the scale multiply.
inline __m256 Q8Codes8(const BlockQ8_0& b, int g) {
  __m128i q8 = _mm_loadl_epi64(
      reinterpret_cast<const __m128i*>(b.qs + 8 * g));
  return _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(q8));
}

/// Decoded f32 vector for elements [8g, 8g+8) of a Q4_0 block (g in 0..3),
/// before the scale multiply. Byte j holds element j (lo nibble) and
/// element j+16 (hi nibble).
inline __m256 Q4Codes8(const BlockQ4_0& b, int g) {
  __m128i raw = _mm_loadl_epi64(
      reinterpret_cast<const __m128i*>(b.qs + (g & 1) * 8));
  const __m128i mask = _mm_set1_epi8(0x0F);
  __m128i nib = g < 2 ? _mm_and_si128(raw, mask)
                      : _mm_and_si128(_mm_srli_epi16(raw, 4), mask);
  __m128i codes = _mm_sub_epi8(nib, _mm_set1_epi8(8));
  return _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(codes));
}

// --- Register-tiled GEMM ---
// The avx512 scheme (see simd_avx512.cc) with 16 ymm registers: a block is
// at most 4 rows (an 8-row call runs as two 4-row halves, each decoding W
// once) × CV 8-lane vectors, CV = 8 / 4 / 2 for R = 1 / 2 / 3–4. The last
// n % 8 columns run the same fma chain per element in scalar std::fma —
// the identical operation the vector lanes perform.

constexpr int kAvx2TileRows = 4;
/// W rows prefetched ahead of the k loop (see simd_avx512.cc).
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
  static __m256 Load(const GemmTile& t, std::size_t p, std::size_t j) {
    return _mm256_loadu_ps(Ptr(t, p, j));
  }
  static float Value(const GemmTile& t, std::size_t p, std::size_t j) {
    return *Ptr(t, p, j);
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
  static __m256 Load(const GemmTile& t, std::size_t p, std::size_t j) {
    return _mm256_cvtph_ps(LoadHalf8(Ptr(t, p, j)));
  }
  static float Value(const GemmTile& t, std::size_t p, std::size_t j) {
    return Ptr(t, p, j)->ToFloat();
  }
};

template <>
struct TileW<TileWeight::kQ8_0> {
  static const BlockQ8_0* Ptr(const GemmTile& t, std::size_t p,
                              std::size_t j) {
    return static_cast<const BlockQ8_0*>(t.w) + p * t.ldw + j / kQuantBlock;
  }
  static constexpr std::size_t Bytes(std::size_t cols) {
    return (cols + kQuantBlock - 1) / kQuantBlock * sizeof(BlockQ8_0);
  }
  static __m256 Load(const GemmTile& t, std::size_t p, std::size_t j) {
    const BlockQ8_0& b = *Ptr(t, p, j);
    return _mm256_mul_ps(Q8Codes8(b, static_cast<int>(j / 8 % 4)),
                         _mm256_set1_ps(ScaleF32(b.scale)));
  }
  static float Value(const GemmTile& t, std::size_t p, std::size_t j) {
    return Q8ValueRef(static_cast<const BlockQ8_0*>(t.w) + p * t.ldw, j);
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
  static __m256 Load(const GemmTile& t, std::size_t p, std::size_t j) {
    const BlockQ4_0& b = *Ptr(t, p, j);
    return _mm256_mul_ps(Q4Codes8(b, static_cast<int>(j / 8 % 4)),
                         _mm256_set1_ps(ScaleF32(b.scale)));
  }
  static float Value(const GemmTile& t, std::size_t p, std::size_t j) {
    return Q4ValueRef(static_cast<const BlockQ4_0*>(t.w) + p * t.ldw, j);
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

/// Y[0..R, j .. j+8·CV) over the full k loop.
template <TileWeight K, int R, int CV>
void TileBlock(const GemmTile& t, std::size_t j) {
  using W = TileW<K>;
  __m256 acc[R][CV];
  const float* xr[R];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    xr[r] = t.x + r * t.ldx;
    const float* yr = t.y + r * t.ldy + j;
#pragma GCC unroll 8
    for (int c = 0; c < CV; ++c) {
      acc[r][c] = t.accumulate ? _mm256_loadu_ps(yr + 8 * c)
                               : _mm256_setzero_ps();
    }
  }
  for (std::size_t p = 0; p < t.k; ++p) {
    if (p + kTilePrefetchRows < t.k) {
      PrefetchSpan<W::Bytes(8 * CV)>(W::Ptr(t, p + kTilePrefetchRows, j));
    }
    __m256 wv[CV];
#pragma GCC unroll 8
    for (int c = 0; c < CV; ++c) wv[c] = W::Load(t, p, j + 8 * c);
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const __m256 xv = _mm256_set1_ps(xr[r][p]);
#pragma GCC unroll 8
      for (int c = 0; c < CV; ++c) {
        acc[r][c] = _mm256_fmadd_ps(xv, wv[c], acc[r][c]);
      }
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    float* yr = t.y + r * t.ldy + j;
#pragma GCC unroll 8
    for (int c = 0; c < CV; ++c) _mm256_storeu_ps(yr + 8 * c, acc[r][c]);
  }
}

/// Columns [j, n) of a block narrower than one vector: the same fma chain
/// per element, one element at a time.
template <TileWeight K>
void TileTail(const GemmTile& t, std::size_t j) {
  for (int r = 0; r < t.rows; ++r) {
    const float* xr = t.x + r * t.ldx;
    float* yr = t.y + r * t.ldy;
    for (std::size_t jj = j; jj < t.n; ++jj) {
      float acc = t.accumulate ? yr[jj] : 0.0f;
      for (std::size_t p = 0; p < t.k; ++p) {
        acc = std::fma(xr[p], TileW<K>::Value(t, p, jj), acc);
      }
      yr[jj] = acc;
    }
  }
}

template <TileWeight K, int R, int CV>
void TileColumns(const GemmTile& t, std::size_t j) {
  for (; j + 8 * CV <= t.n; j += 8 * CV) TileBlock<K, R, CV>(t, j);
  if constexpr (CV > 1) {
    TileColumns<K, R, CV / 2>(t, j);
  } else if (j < t.n) {
    TileTail<K>(t, j);
  }
}

template <TileWeight K>
void TileRows(const GemmTile& t) {
  switch (t.rows) {
    case 1: return TileColumns<K, 1, 8>(t, 0);
    case 2: return TileColumns<K, 2, 4>(t, 0);
    case 3: return TileColumns<K, 3, 2>(t, 0);
    case 4: return TileColumns<K, 4, 2>(t, 0);
  }
}

void GemmTileAvx2(const GemmTile& tile) {
  for (int r0 = 0; r0 < tile.rows; r0 += kAvx2TileRows) {
    GemmTile t = tile;
    t.x += r0 * tile.ldx;
    t.y += r0 * tile.ldy;
    t.rows = std::min(kAvx2TileRows, tile.rows - r0);
    switch (t.wkind) {
      case TileWeight::kF32: TileRows<TileWeight::kF32>(t); break;
      case TileWeight::kF16: TileRows<TileWeight::kF16>(t); break;
      case TileWeight::kQ8_0: TileRows<TileWeight::kQ8_0>(t); break;
      case TileWeight::kQ4_0: TileRows<TileWeight::kQ4_0>(t); break;
    }
  }
}

// --- Row-tiled attention block ---
// The AVX-512 tile's structure at 8 lanes. Scores: P pairs (row, head; P a
// power of two ≤ 4) at 8/P consecutive positions fill 8 dot accumulators
// (the dot_f16 body: one K decode feeds every pair), which reduce together
// through a transposed ReduceAdd8 tree into position-major lanes. Softmax:
// lane i of a vector is pair i of one position, so each pair's max,
// exp(s − m) and per-run sum are lane-wise ops in its own ascending order.
// V: one decode of a 16-column V chunk feeds up to 4 pairs' 2-vector
// accumulator chunks, held in registers across the whole block (the
// AxpyF16Avx body per element). Rows end at different positions; a
// group's last few positions run per pair, so no row touches a position
// past its own end.

struct TilePair {
  const float* q;
  float* sc;    ///< the pair's score column: position j at sc[j·ld]
  float* slot;  ///< {m, s, acc[d]}
  std::int32_t len;
};

/// Lane a = ReduceAdd8(acc[a]) for 8 accumulators, bit for bit: the same
/// pairwise tree (128-bit halves, then (s0 + s2) + (s1 + s3)) run as a
/// transpose, so each add serves 8 sums.
inline __m256 ReduceAdd8x8(const __m256* acc) {
  __m256 t[4];
  for (int i = 0; i < 4; ++i) {
    const __m256 a = acc[2 * i];
    const __m256 b = acc[2 * i + 1];
    t[i] = _mm256_add_ps(_mm256_permute2f128_ps(a, b, 0x20),
                         _mm256_permute2f128_ps(a, b, 0x31));
  }
  const __m256 w0 = _mm256_add_ps(_mm256_shuffle_ps(t[0], t[1], 0x44),
                                  _mm256_shuffle_ps(t[0], t[1], 0xEE));
  const __m256 w1 = _mm256_add_ps(_mm256_shuffle_ps(t[2], t[3], 0x44),
                                  _mm256_shuffle_ps(t[2], t[3], 0xEE));
  const __m256 f = _mm256_add_ps(_mm256_shuffle_ps(w0, w1, 0x88),
                                 _mm256_shuffle_ps(w0, w1, 0xDD));
  // Lane 4ℓ + m of f holds accumulator 2m + ℓ: transpose back.
  return _mm256_permutevar8x32_ps(f,
                                  _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7));
}

/// Lane b·P + p of v to position b, pair p of a group whose first pair's
/// column starts at sc (positions ld apart).
template <int P>
inline void StoreScores(__m256 v, float* sc, std::size_t ld) {
  if (ld == P) {  // the group is every pair: positions are adjacent
    _mm256_storeu_ps(sc, v);
  } else if constexpr (P == 4) {
    _mm_storeu_ps(sc, _mm256_castps256_ps128(v));
    _mm_storeu_ps(sc + ld, _mm256_extractf128_ps(v, 1));
  } else {
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, v);
    for (int b = 0; b < 8 / P; ++b) {
      for (int p = 0; p < P; ++p) sc[b * ld + p] = lanes[b * P + p];
    }
  }
}

/// Scores of P pairs at 8/P positions starting at j0, every pair in range.
template <int P>
inline void TileScores8(const TilePair* pr, const f16* const* k,
                        std::size_t d, float scale, std::size_t ld,
                        std::int32_t j0) {
  constexpr int kPos = 8 / P;
  __m256 acc[8];
  for (auto& a : acc) a = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    __m256 qv[P];
    for (int p = 0; p < P; ++p) qv[p] = _mm256_loadu_ps(pr[p].q + i);
    for (int b = 0; b < kPos; ++b) {
      const __m256 kv = _mm256_cvtph_ps(LoadHalf8(k[b] + i));
      for (int p = 0; p < P; ++p) {
        acc[b * P + p] = _mm256_fmadd_ps(qv[p], kv, acc[b * P + p]);
      }
    }
  }
  if (i == d) {
    StoreScores<P>(_mm256_mul_ps(ReduceAdd8x8(acc), _mm256_set1_ps(scale)),
                   pr[0].sc + j0 * ld, ld);
    return;
  }
  alignas(32) float sums[8];
  _mm256_store_ps(sums, ReduceAdd8x8(acc));
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
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(pr.q + i),
                          _mm256_cvtph_ps(LoadHalf8(k + i)), acc);
  }
  float sum = ReduceAdd8(acc);
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
  constexpr int kPos = 8 / P;
  std::int32_t lo, hi;
  GroupSpan<P>(pr, &lo, &hi);
  std::int32_t j = 0;
  for (; j + kPos <= lo; j += kPos) {
    for (int b = kPos; b < 2 * kPos && j + b < hi; ++b) {
      _mm_prefetch(reinterpret_cast<const char*>(kp[j + b]), _MM_HINT_T0);
    }
    TileScores8<P>(pr, kp + j, t.d, t.scale, t.ld_scores, j);
  }
  for (; j < hi; ++j) {
    for (int p = 0; p < P; ++p) {
      if (j < pr[p].len) {
        TileScoreAt(pr[p], kp[j], t.d, t.scale, t.ld_scores, j);
      }
    }
  }
}

/// The softmax pass, simd_avx512.cc's at 8 lanes: ld (a power of two
/// ≥ pairs) splits into 8-lane groups, padding lanes have length 0. Per
/// pair, in its own ascending order: the block max, one masked max per
/// position; p = exp(s − m) in place over the dense score block in 8-lane
/// chunks, each loaded and stored once; per page run, the ascending run
/// sum of p, folded into s.
void TileSoftmax(const AttnTile& t) {
  constexpr int kGroups = kAttnTileRows * kAttnTileHeads / 8;
  const int pairs = t.rows * t.heads;
  const int ld = static_cast<int>(t.ld_scores);
  const int groups = (ld + 7) / 8;
  alignas(32) std::int32_t len[kGroups * 8] = {};
  std::int32_t max_len = 0;
  for (int p = 0; p < pairs; ++p) {
    len[p] = t.row_len[p / t.heads];
    max_len = std::max(max_len, len[p]);
  }
  const auto valid = [&len](int g, std::int32_t j) {
    return _mm256_cmpgt_epi32(
        _mm256_load_si256(reinterpret_cast<const __m256i*>(len + 8 * g)),
        _mm256_set1_epi32(j));
  };
  __m256 m[kGroups];
  for (int g = 0; g < groups; ++g) m[g] = _mm256_set1_ps(-INFINITY);
  for (std::int32_t j = 0; j < max_len; ++j) {
    const float* row = t.scores + j * ld;
    for (int g = 0; g < groups; ++g) {
      const __m256i k = valid(g, j);
      const __m256 v = _mm256_maskload_ps(row + 8 * g, k);
      m[g] = _mm256_blendv_ps(m[g], _mm256_max_ps(v, m[g]),
                              _mm256_castsi256_ps(k));
    }
  }
  alignas(32) float mv[kGroups * 8];
  for (int g = 0; g < groups; ++g) _mm256_store_ps(mv + 8 * g, m[g]);

  // Per chunk phase (ld/8 of them when ld > 8): each lane's m and length,
  // and its position offset within the chunk.
  const int phases = std::max(1, ld / 8);
  const int shift = std::countr_zero(static_cast<unsigned>(ld));
  alignas(32) float mrep[kGroups * 8];
  alignas(32) std::int32_t lrep[kGroups * 8];
  alignas(32) std::int32_t off[8];
  for (int i = 0; i < 8 * phases; ++i) {
    mrep[i] = mv[i & (ld - 1)];
    lrep[i] = len[i & (ld - 1)];
  }
  for (int i = 0; i < 8; ++i) off[i] = ld < 8 ? i >> shift : 0;
  const __m256i voff = _mm256_load_si256(reinterpret_cast<const __m256i*>(off));
  const int total = max_len * ld;
  for (int f0 = 0, ph = 0; f0 < total; f0 += 8, ph = (ph + 1) % phases) {
    const __m256i pos = _mm256_add_epi32(_mm256_set1_epi32(f0 >> shift), voff);
    const __m256i k = _mm256_cmpgt_epi32(
        _mm256_load_si256(reinterpret_cast<const __m256i*>(lrep + 8 * ph)),
        pos);
    float* chunk = t.scores + f0;
    const __m256 x = _mm256_maskload_ps(chunk, k);
    _mm256_maskstore_ps(
        chunk, k, Exp8(_mm256_sub_ps(x, _mm256_load_ps(mrep + 8 * ph))));
  }

  __m256 s[kGroups];
  for (int g = 0; g < groups; ++g) s[g] = _mm256_setzero_ps();
  std::int32_t j = 0;
  for (int ri = 0; ri < t.n_runs && j < max_len; ++ri) {
    const std::int32_t end = std::min(max_len, j + t.runs[ri].len);
    __m256 run_sum[kGroups];
    for (int g = 0; g < groups; ++g) run_sum[g] = _mm256_setzero_ps();
    for (; j < end; ++j) {
      const float* row = t.scores + j * ld;
      for (int g = 0; g < groups; ++g) {
        const __m256i k = valid(g, j);
        const __m256 p = _mm256_maskload_ps(row + 8 * g, k);
        run_sum[g] = _mm256_blendv_ps(run_sum[g], _mm256_add_ps(run_sum[g], p),
                                      _mm256_castsi256_ps(k));
      }
    }
    for (int g = 0; g < groups; ++g) s[g] = _mm256_add_ps(s[g], run_sum[g]);
  }
  alignas(32) float sv[kGroups * 8];
  for (int g = 0; g < groups; ++g) _mm256_store_ps(sv + 8 * g, s[g]);
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
  __m256 acc[P][W];
  for (int p = 0; p < P; ++p) {
    for (int w = 0; w < W; ++w) acc[p][w] = _mm256_setzero_ps();
  }
  // Positions every pair covers, then the group's ragged end.
  const auto step = [&](std::int32_t j, bool ragged) {
    __m256 vv[W];
    for (int w = 0; w < W; ++w) {
      vv[w] = _mm256_cvtph_ps(LoadHalf8(vp[j] + col + 8 * w));
    }
    for (int p = 0; p < P; ++p) {
      if (ragged && j >= pr[p].len) continue;
      const __m256 pj = _mm256_set1_ps(pr[p].sc[j * ld]);
      for (int w = 0; w < W; ++w) {
        acc[p][w] = _mm256_fmadd_ps(pj, vv[w], acc[p][w]);
      }
    }
  };
  std::int32_t j = 0;
  for (; j < lo; ++j) step(j, false);
  for (; j < hi; ++j) step(j, true);
  for (int p = 0; p < P; ++p) {
    for (int w = 0; w < W; ++w) {
      _mm256_storeu_ps(pr[p].slot + 2 + col + 8 * w, acc[p][w]);
    }
  }
}

template <int P>
void TileAccumGroup(const AttnTile& t, const TilePair* pr,
                    const f16* const* vp) {
  std::int32_t lo, hi;
  GroupSpan<P>(pr, &lo, &hi);
  const std::size_t ld = t.ld_scores;
  const std::size_t nv = t.d / 8 * 8;
  std::size_t col = 0;
  for (; col + 16 <= nv; col += 16) {
    TileAccumChunk<P, 2>(pr, vp, col, ld, lo, hi);
  }
  if (col < nv) TileAccumChunk<P, 1>(pr, vp, col, ld, lo, hi);
  // Columns past the last full vector: AxpyF16Avx's std::fma tail.
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

void AttnTileAvx(const AttnTile& t) {
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
  // Scores in power-of-two groups of up to 4 pairs.
  for (int g = 0; g < pairs;) {
    const int rest = pairs - g;
    const int n = rest >= 4 ? 4 : rest >= 2 ? 2 : 1;
    switch (n) {
      case 4: TileScoresGroup<4>(t, pr + g, kp); break;
      case 2: TileScoresGroup<2>(t, pr + g, kp); break;
      default: TileScoresGroup<1>(t, pr + g, kp); break;
    }
    g += n;
  }
  TileSoftmax(t);
  for (int g = 0; g < pairs; g += 4) {
    switch (std::min(4, pairs - g)) {
      case 1: TileAccumGroup<1>(t, pr + g, vp); break;
      case 2: TileAccumGroup<2>(t, pr + g, vp); break;
      case 3: TileAccumGroup<3>(t, pr + g, vp); break;
      case 4: TileAccumGroup<4>(t, pr + g, vp); break;
    }
  }
}

// The synthetic-weight draw (simd_gaussian.h), 8 pairs per block.
struct Avx2Gaussian {
  static constexpr int kLanes = 8;
  typedef double D __attribute__((vector_size(32)));
  typedef std::uint64_t U __attribute__((vector_size(32)));
  typedef float FH __attribute__((vector_size(16)));
  typedef std::int32_t IH __attribute__((vector_size(16)));
  typedef float F __attribute__((vector_size(32)));
  typedef std::int32_t I __attribute__((vector_size(32)));
  typedef std::uint16_t H __attribute__((vector_size(16)));
  static D Fma(D a, D b, D c) { return _mm256_fmadd_pd(a, b, c); }
  static F Fma(F a, F b, F c) { return _mm256_fmadd_ps(a, b, c); }
  static F Sqrt(F x) { return _mm256_sqrt_ps(x); }
  /// u = 2^k·(1 + f), 1 + f ∈ [√2/2, √2) (fdlibm's split, f exact).
  static void SplitLog(D u, D* f, D* k) {
    const U ix = reinterpret_cast<U>(u);
    const U m = ix & 0x000FFFFFFFFFFFFFULL;
    // i = 2^52 when the mantissa is ≥ √2: halve it into [√2/2, 1).
    const U i = (m + 0x00095F6400000000ULL) & 0x0010000000000000ULL;
    *f = reinterpret_cast<D>(m | (i ^ 0x3FF0000000000000ULL)) - 1.0;
    // k + 0x1.8p52 as double bits, less 0x1.8p52: k exactly.
    *k = reinterpret_cast<D>((ix >> 52U) + (i >> 52U) +
                             (0x4338000000000000ULL - 1023U)) -
         0x1.8p52;
  }
  static FH ToFloat(D x) { return _mm256_cvtpd_ps(x); }
  static D ToDouble(FH x) { return _mm256_cvtps_pd(x); }
  static IH Narrow(U x) {
    const __m256i low_dwords =
        _mm256_permutevar8x32_epi32(reinterpret_cast<__m256i>(x),
                                    _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6));
    return reinterpret_cast<IH>(_mm256_castsi256_si128(low_dwords));
  }
  static F Join(FH lo, FH hi) {
    return _mm256_insertf128_ps(_mm256_castps128_ps256(lo), hi, 1);
  }
  static I Join(IH lo, IH hi) {
    return reinterpret_cast<I>(_mm256_inserti128_si256(
        _mm256_castsi128_si256(reinterpret_cast<__m128i>(lo)),
        reinterpret_cast<__m128i>(hi), 1));
  }
  static H ToHalf(F x) {
    return reinterpret_cast<H>(
        _mm256_cvtps_ph(x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
  }
  static bool AnyZero(D x) {
    return _mm256_movemask_pd(_mm256_cmp_pd(x, _mm256_setzero_pd(),
                                            _CMP_EQ_OQ)) != 0;
  }
  /// Bit j set where a0 != b0 or a1 != b1 in lane j.
  static unsigned Differ(H a0, H b0, H a1, H b1) {
    const auto v = [](H x) { return reinterpret_cast<__m128i>(x); };
    const __m128i same = _mm_and_si128(_mm_cmpeq_epi16(v(a0), v(b0)),
                                       _mm_cmpeq_epi16(v(a1), v(b1)));
    return ~static_cast<unsigned>(
               _mm_movemask_epi8(_mm_packs_epi16(same, same))) &
           0xFFU;
  }
  static U Word(U s) {
    const U x = (((s >> 18U) ^ s) >> 27U) & 0xFFFFFFFFULL;
    const U rot = s >> 59U;
    return (x >> rot) | (x << ((32U - rot) & 31U));
  }
  /// An integer below 2^52 as a double, exactly.
  static D Exact(U x) {
    return reinterpret_cast<D>(x | 0x4330000000000000ULL) - 0x1.0p52;
  }
  static D Unit(U hi, U lo) {
    return Exact(hi & 0xFFFFFFFFULL) * 0x1.0p-32 +
           Exact((lo & 0xFFFFFFFFULL) >> 11U) * 0x1.0p-53;
  }
};
using Avx2Draw = simd_detail::GaussianLanes<Avx2Gaussian>;

constexpr SimdOps kAvx2Ops = {
    .level = SimdLevel::kAvx2,
    .name = "avx2",
    .half_to_float_n = HalfToFloatAvx,
    .float_to_half_n = FloatToHalfAvx,
    .axpy_f32 = AxpyF32Avx,
    .dot_f16 = DotF16Avx,
    .scale_add_f16 = ScaleAddF16Avx,
    .dot_f16_strip = DotF16StripAvx,
    .softmax_accum_f16 = SoftmaxAccumF16Avx,
    .gemm_tile = GemmTileAvx2,
    .attn_tile = AttnTileAvx,
    .exp_f32 = ExpF32Avx,
    .silu_mul = SiluMulAvx,
    .pcg_uniform_pairs = Avx2Draw::Uniforms,
    .box_muller_f16 = Avx2Draw::BoxMullerF16,
    .box_muller_lanes = Avx2Draw::BoxMullerLanes,
};

}  // namespace

namespace simd_detail {
const SimdOps* Avx2OpsOrNull() { return &kAvx2Ops; }
}  // namespace simd_detail

}  // namespace punica

#else  // portable build: no avx2 table

namespace punica::simd_detail {
const SimdOps* Avx2OpsOrNull() { return nullptr; }
}  // namespace punica::simd_detail

#endif
