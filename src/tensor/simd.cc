#include "tensor/simd.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "tensor/quant.h"
#include "tensor/simd_exp.h"

namespace punica {
namespace {

// --- Portable scalar path ---
// These loops are the exact per-element operations the pre-vectorization
// kernels ran, so PUNICA_SIMD=scalar reproduces those numerics bit-for-bit
// on finite data. (The kernels themselves no longer skip zero activations
// on the dense paths — see gemm.cc — which is observable only with
// non-finite or signed-zero operands that the synthesized weights never
// produce.)

void HalfToFloatScalar(const f16* src, float* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = src[i].ToFloat();
}

void FloatToHalfScalar(const float* src, f16* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = f16(src[i]);
}

// Out of line on purpose: as a standalone body the loop vectorizes (exact
// mulps/addps, no FMA) behind a runtime alias check; inlined into the GEMM
// tile's loop nest it stays scalar and runs ~25% slower.
[[gnu::noinline]] void AxpyF32Scalar(float a, const float* x, float* y,
                                     std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void AxpyF16Scalar(float a, const f16* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i].ToFloat();
}

float DotF16Scalar(const float* a, const f16* b, std::size_t n) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i].ToFloat();
  return acc;
}

void ScaleAddF16Scalar(float* acc, float c, float p, const f16* v,
                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] = acc[i] * c + p * v[i].ToFloat();
}

void DotF16StripScalar(const float* q, const f16* k, std::size_t stride,
                       std::size_t d, std::size_t n_pos, float scale,
                       float* scores) {
  for (std::size_t j = 0; j < n_pos; ++j) {
    scores[j] = DotF16Scalar(q, k + j * stride, d) * scale;
  }
}

float SoftmaxAccumF16Scalar(const float* scores, float m, const f16* v,
                            std::size_t stride, std::size_t d,
                            std::size_t n_pos, float* acc) {
  float sum = 0.0f;
  for (std::size_t j = 0; j < n_pos; ++j) {
    float p = ExpF32(scores[j] - m);
    AxpyF16Scalar(p, v + j * stride, acc, d);
    sum += p;
  }
  return sum;
}

// --- Scalar quantized-weight decode (the scalar GEMM tile's) ---
// Element i of a block row decodes as d * q_i; the product is exact in f32
// (≤ 7 significand bits from the code × 11 from the f16 scale), so the
// decode below defines the numbers every vector path must reproduce
// bit-for-bit.

inline float Q8Value(const BlockQ8_0& b, std::size_t e) {
  return b.scale.ToFloat() * static_cast<float>(b.qs[e]);
}

inline float Q4Value(const BlockQ4_0& b, std::size_t e) {
  const std::uint8_t byte = b.qs[e & (kQuantBlock / 2 - 1)];
  const int code = e < kQuantBlock / 2 ? (byte & 0x0F) : (byte >> 4);
  return b.scale.ToFloat() * static_cast<float>(code - 8);
}

void DequantQ8Scalar(const BlockQ8_0* w, float* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = Q8Value(w[i / kQuantBlock], i % kQuantBlock);
  }
}

void DequantQ4Scalar(const BlockQ4_0* w, float* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = Q4Value(w[i / kQuantBlock], i % kQuantBlock);
  }
}

void AxpyQ8Scalar(float a, const BlockQ8_0* w, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    y[i] += a * Q8Value(w[i / kQuantBlock], i % kQuantBlock);
  }
}

void AxpyQ4Scalar(float a, const BlockQ4_0* w, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    y[i] += a * Q4Value(w[i / kQuantBlock], i % kQuantBlock);
  }
}

// --- Scalar GEMM tile ---
// Decodes one W row stripe at a time into a panel and runs the uncontracted
// y = y + x·w per element in ascending p. This TU is never built with FMA
// flags, so the scalar tile keeps its separately rounded products.

constexpr std::size_t kScalarTileCols = 128;

/// W rows the k loop prefetches ahead (the vector paths' distance).
constexpr std::size_t kScalarPrefetchRows = 16;

/// Address and byte length of W[p, j0 .. j0+width).
std::pair<const char*, std::size_t> StripeBytes(const GemmTile& t,
                                                std::size_t p, std::size_t j0,
                                                std::size_t width) {
  const std::size_t blocks = (width + kQuantBlock - 1) / kQuantBlock;
  switch (t.wkind) {
    case TileWeight::kF32:
      return {reinterpret_cast<const char*>(static_cast<const float*>(t.w) +
                                            p * t.ldw + j0),
              width * sizeof(float)};
    case TileWeight::kF16:
      return {reinterpret_cast<const char*>(static_cast<const f16*>(t.w) +
                                            p * t.ldw + j0),
              width * sizeof(f16)};
    case TileWeight::kQ8_0:
      return {reinterpret_cast<const char*>(
                  static_cast<const BlockQ8_0*>(t.w) + p * t.ldw +
                  j0 / kQuantBlock),
              blocks * sizeof(BlockQ8_0)};
    case TileWeight::kQ4_0:
      return {reinterpret_cast<const char*>(
                  static_cast<const BlockQ4_0*>(t.w) + p * t.ldw +
                  j0 / kQuantBlock),
              blocks * sizeof(BlockQ4_0)};
  }
  return {nullptr, 0};
}

/// W[p, j0 .. j0+width) as f32 (j0 block-aligned for quantized W).
const float* DecodeStripeScalar(const GemmTile& t, std::size_t p,
                                std::size_t j0, std::size_t width,
                                float* panel) {
  switch (t.wkind) {
    case TileWeight::kF32:
      return static_cast<const float*>(t.w) + p * t.ldw + j0;
    case TileWeight::kF16:
      HalfToFloatScalar(static_cast<const f16*>(t.w) + p * t.ldw + j0, panel,
                        width);
      return panel;
    case TileWeight::kQ8_0:
      DequantQ8Scalar(static_cast<const BlockQ8_0*>(t.w) + p * t.ldw +
                          j0 / kQuantBlock,
                      panel, width);
      return panel;
    case TileWeight::kQ4_0:
      DequantQ4Scalar(static_cast<const BlockQ4_0*>(t.w) + p * t.ldw +
                          j0 / kQuantBlock,
                      panel, width);
      return panel;
  }
  return panel;
}

/// y[0..width) += a · W[p, j0 .. j0+width), decoding in the same pass —
/// the same per-element operation as decode-then-axpy, without the panel
/// round trip when a single row has no decode to share.
void AxpyStripeScalar(const GemmTile& t, float a, std::size_t p,
                      std::size_t j0, std::size_t width, float* y) {
  switch (t.wkind) {
    case TileWeight::kF32:
      AxpyF32Scalar(a, static_cast<const float*>(t.w) + p * t.ldw + j0, y,
                    width);
      return;
    case TileWeight::kF16:
      AxpyF16Scalar(a, static_cast<const f16*>(t.w) + p * t.ldw + j0, y,
                    width);
      return;
    case TileWeight::kQ8_0:
      AxpyQ8Scalar(a, static_cast<const BlockQ8_0*>(t.w) + p * t.ldw +
                          j0 / kQuantBlock,
                   y, width);
      return;
    case TileWeight::kQ4_0:
      AxpyQ4Scalar(a, static_cast<const BlockQ4_0*>(t.w) + p * t.ldw +
                          j0 / kQuantBlock,
                   y, width);
      return;
  }
}

void GemmTileScalar(const GemmTile& t) {
  if (!t.accumulate) {
    for (int r = 0; r < t.rows; ++r) {
      std::fill(t.y + r * t.ldy, t.y + r * t.ldy + t.n, 0.0f);
    }
  }
  float panel[kScalarTileCols];
  for (std::size_t j0 = 0; j0 < t.n; j0 += kScalarTileCols) {
    const std::size_t width = std::min(kScalarTileCols, t.n - j0);
    for (std::size_t p = 0; p < t.k; ++p) {
      if (p + kScalarPrefetchRows < t.k) {
        const auto [ahead, bytes] =
            StripeBytes(t, p + kScalarPrefetchRows, j0, width);
        for (std::size_t off = 0; off < bytes; off += 64) {
          __builtin_prefetch(ahead + off);
        }
      }
      if (t.rows == 1) {
        AxpyStripeScalar(t, t.x[p], p, j0, width, t.y + j0);
        continue;
      }
      const float* w = DecodeStripeScalar(t, p, j0, width, panel);
      for (int r = 0; r < t.rows; ++r) {
        AxpyF32Scalar(t.x[r * t.ldx + p], w, t.y + r * t.ldy + j0, width);
      }
    }
  }
}

// --- Scalar attention tile ---
// Each K/V entry is decoded once into a float buffer and shared by every
// pair still in range; per pair the products and sums are dot_f16 /
// AxpyF16Scalar's (no contraction in this TU).

/// The tile's softmax pass over position-major scores: each pair's block
/// max m, then its scores replaced in place by p = exp(score − m), summed
/// per page run into s; writes {m, s} to each pair's partial slot.
void AttnTileSoftmaxScalar(const AttnTile& t) {
  constexpr int kMaxPairs = kAttnTileRows * kAttnTileHeads;
  const int pairs = t.rows * t.heads;
  std::int32_t len[kMaxPairs];
  float m[kMaxPairs];
  float s[kMaxPairs];
  float run_sum[kMaxPairs];
  std::int32_t max_len = 0;
  for (int p = 0; p < pairs; ++p) {
    len[p] = t.row_len[p / t.heads];
    m[p] = -INFINITY;
    s[p] = 0.0f;
    max_len = std::max(max_len, len[p]);
  }
  const auto row = [&t](std::int32_t j) { return t.scores + j * t.ld_scores; };
  for (std::int32_t j = 0; j < max_len; ++j) {
    for (int p = 0; p < pairs; ++p) {
      if (j < len[p]) m[p] = std::max(m[p], row(j)[p]);
    }
  }
  // One ascending sum per page run, folded into s after the run — the
  // grouping softmax_accum_f16's per-run return value gives the per-row
  // kernel (one running sum across runs would round differently).
  std::int32_t j = 0;
  for (int ri = 0; ri < t.n_runs && j < max_len; ++ri) {
    const std::int32_t end = std::min(max_len, j + t.runs[ri].len);
    std::fill(run_sum, run_sum + pairs, 0.0f);
    for (; j < end; ++j) {
      float* sc = row(j);
      for (int p = 0; p < pairs; ++p) {
        if (j >= len[p]) continue;
        sc[p] = ExpF32(sc[p] - m[p]);
        run_sum[p] += sc[p];
      }
    }
    for (int p = 0; p < pairs; ++p) s[p] += run_sum[p];
  }
  for (int p = 0; p < pairs; ++p) {
    float* slot = t.out + static_cast<std::size_t>(p) * t.ld_out;
    slot[0] = m[p];
    slot[1] = s[p];
  }
}

void AttnTileScalar(const AttnTile& t) {
  const int pairs = t.rows * t.heads;
  const std::int32_t max_len =
      *std::max_element(t.row_len, t.row_len + t.rows);
  const auto pair_q = [&t](int pr) {
    return t.q + static_cast<std::size_t>(pr / t.heads) * t.ldq +
           static_cast<std::size_t>(pr % t.heads) * t.d;
  };
  const auto in_range = [&t](int pr, std::int32_t j) {
    return j < t.row_len[pr / t.heads];
  };
  float e[kAttnTileMaxDim];
  std::int32_t j = 0;
  for (int ri = 0; ri < t.n_runs && j < max_len; ++ri) {
    const f16* k = t.runs[ri].k;
    for (std::int32_t o = 0; o < t.runs[ri].len; ++o, ++j, k += t.stride) {
      HalfToFloatScalar(k, e, t.d);
      for (int pr = 0; pr < pairs; ++pr) {
        if (!in_range(pr, j)) continue;
        const float* q = pair_q(pr);
        float acc = 0.0f;
        for (std::size_t i = 0; i < t.d; ++i) acc += q[i] * e[i];
        t.scores[j * t.ld_scores + static_cast<std::size_t>(pr)] =
            acc * t.scale;
      }
    }
  }
  AttnTileSoftmaxScalar(t);
  for (int pr = 0; pr < pairs; ++pr) {
    float* acc = t.out + static_cast<std::size_t>(pr) * t.ld_out + 2;
    std::fill(acc, acc + t.d, 0.0f);
  }
  j = 0;
  for (int ri = 0; ri < t.n_runs && j < max_len; ++ri) {
    const f16* v = t.runs[ri].v;
    for (std::int32_t o = 0; o < t.runs[ri].len; ++o, ++j, v += t.stride) {
      HalfToFloatScalar(v, e, t.d);
      for (int pr = 0; pr < pairs; ++pr) {
        if (!in_range(pr, j)) continue;
        const float p =
            t.scores[j * t.ld_scores + static_cast<std::size_t>(pr)];
        float* acc = t.out + static_cast<std::size_t>(pr) * t.ld_out + 2;
        for (std::size_t i = 0; i < t.d; ++i) acc[i] += p * e[i];
      }
    }
  }
}

void ExpF32Scalar(const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = ExpF32(x[i]);
}

void SiluMulScalar(float* gate, const float* up, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const float g = gate[i] / (1.0f + ExpF32(-gate[i]));
    gate[i] = g * up[i];
  }
}

constexpr SimdOps kScalarOps = {
    .level = SimdLevel::kScalar,
    .name = "scalar",
    .half_to_float_n = HalfToFloatScalar,
    .float_to_half_n = FloatToHalfScalar,
    .axpy_f32 = AxpyF32Scalar,
    .dot_f16 = DotF16Scalar,
    .scale_add_f16 = ScaleAddF16Scalar,
    .dot_f16_strip = DotF16StripScalar,
    .softmax_accum_f16 = SoftmaxAccumF16Scalar,
    .gemm_tile = GemmTileScalar,
    .attn_tile = AttnTileScalar,
    .exp_f32 = ExpF32Scalar,
    .silu_mul = SiluMulScalar,
    .pcg_uniform_pairs = nullptr,
    .box_muller_f32 = nullptr,
};

bool CpuSupportsAvx2() {
#if (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__x86_64__) || defined(__i386__))
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
         __builtin_cpu_supports("f16c");
#else
  return false;
#endif
}

bool CpuSupportsAvx512() {
#if (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__x86_64__) || defined(__i386__))
  // The TU is compiled with f/bw/vl; gate on all three even though the
  // kernels only strictly need F, so any instruction the compiler picks
  // from those sets is safe.
  return CpuSupportsAvx2() && __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512vl");
#else
  return false;
#endif
}

/// The level's table if its TU was compiled, else nullptr.
const SimdOps* TableFor(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return &kScalarOps;
    case SimdLevel::kAvx2:
      return simd_detail::Avx2OpsOrNull();
    case SimdLevel::kAvx512:
      return simd_detail::Avx512OpsOrNull();
  }
  return &kScalarOps;
}

/// Resolves a requested level to the best available one at or below it
/// (the silent-degradation rule).
const SimdOps* OpsFor(SimdLevel level) {
  for (int l = static_cast<int>(level); l > 0; --l) {
    const auto candidate = static_cast<SimdLevel>(l);
    if (SimdLevelAvailable(candidate)) return TableFor(candidate);
  }
  return &kScalarOps;
}

SimdLevel LevelFromEnv() {
  const char* env = std::getenv("PUNICA_SIMD");
  // Unset (or "native"): best available — request the top tier and let
  // OpsFor degrade through whatever is missing.
  if (env == nullptr || env[0] == '\0') return SimdLevel::kAvx512;
  if (std::strcmp(env, "scalar") == 0) return SimdLevel::kScalar;
  if (std::strcmp(env, "avx2") == 0) return SimdLevel::kAvx2;
  if (std::strcmp(env, "avx512") == 0) return SimdLevel::kAvx512;
  if (std::strcmp(env, "native") == 0) return SimdLevel::kAvx512;
  // A typo here would silently invert what the pin was for (e.g. a
  // reproduction run landing on the vector kernels) — say so once.
  std::fprintf(stderr,
               "punica: unrecognized PUNICA_SIMD=\"%s\" (expected \"scalar\", "
               "\"avx2\", \"avx512\" or \"native\"); using the default (%s)\n",
               env, SimdLevelName(BestSimdLevel()));
  return SimdLevel::kAvx512;
}

std::atomic<const SimdOps*> g_ops{nullptr};

}  // namespace

const SimdOps& Simd() {
  const SimdOps* ops = g_ops.load(std::memory_order_acquire);
  if (ops == nullptr) {
    // First use: resolve env + cpuid exactly once, then publish. A benign
    // race publishes the same pointer twice.
    static const SimdOps* resolved = OpsFor(LevelFromEnv());
    g_ops.store(resolved, std::memory_order_release);
    ops = resolved;
  }
  return *ops;
}

SimdLevel ActiveSimdLevel() { return Simd().level; }

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "?";
}

bool SimdLevelCompiled(SimdLevel level) { return TableFor(level) != nullptr; }

bool SimdLevelAvailable(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return true;
    case SimdLevel::kAvx2: {
      static const bool ok =
          SimdLevelCompiled(SimdLevel::kAvx2) && CpuSupportsAvx2();
      return ok;
    }
    case SimdLevel::kAvx512: {
      static const bool ok =
          SimdLevelCompiled(SimdLevel::kAvx512) && CpuSupportsAvx512();
      return ok;
    }
  }
  return false;
}

SimdLevel BestSimdLevel() { return OpsFor(SimdLevel::kAvx512)->level; }

SimdLevel SetSimdLevel(SimdLevel level) {
  SimdLevel prev = Simd().level;  // forces initial resolution
  g_ops.store(OpsFor(level), std::memory_order_release);
  return prev;
}

}  // namespace punica
