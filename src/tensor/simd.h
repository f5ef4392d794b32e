// Runtime-dispatched SIMD primitives for the numeric hot path.
//
// Three implementations of one small ops table (SimdOps):
//  * scalar  — portable C++, compiled everywhere. Bit-identical to the
//              pre-vectorization kernels (same per-element operation order),
//              except that every exp is ExpF32 rather than libm's.
//  * avx2    — AVX2+FMA+F16C, 256-bit lanes (src/tensor/simd_avx2.cc).
//  * avx512  — AVX-512 F/BW/VL, 512-bit lanes (src/tensor/simd_avx512.cc).
// The vector TUs are compiled only when CMake is configured with
// -DPUNICA_NATIVE_SIMD=ON so every other translation unit stays portable.
//
// Selection: cpuid at first use picks the highest level whose TU was
// compiled AND whose features the CPU reports. The PUNICA_SIMD environment
// variable overrides: "scalar" | "avx2" | "avx512" pin an explicit level
// ("native" is an alias for best-available); a pinned level the CPU or
// build lacks silently degrades to the next available one, so a binary
// pinned to avx512 still runs (on avx2, then scalar) on older hardware.
// SetSimdLevel() swaps the table at runtime for A/B benching and the
// cross-path equivalence tests.
//
// Determinism: every path keeps the substrate's contract — the operation
// order for a given element depends only on its position, never on the
// thread count. The register-tiled gemm_tile (which the dense GEMM at every
// m, quantized or not, and both SGMV schedules run on) vectorizes across
// *independent output columns*, so each element's k-reduction stays in
// ascending order on every path; attn_tile reduces many dot products at
// once through a transposed copy of dot_f16's fixed lane tree, so each
// score keeps that sequence. Cross-path numerics: f16<->f32 conversions
// are bit-identical (F16C, AVX-512 and the scalar code all round to
// nearest even), and so is every weight decode gemm_tile performs (an
// int8/int4 code times an f16 scale is exact in f32), and so is exp
// (ExpF32, tensor/simd_exp.h: one fixed fma sequence run lane by lane), so
// exp_f32 and silu_mul match across paths bit for bit. gemm_tile and the
// attention ops differ from scalar by FMA contraction only (the multiply
// is not rounded separately), plus dot_f16's fixed 8- or 16-lane
// accumulator reduction — bounded, documented in README "Performance", and
// asserted by tests/tensor/simd_test.cc.
#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/half.h"

namespace punica {

/// Dispatch tiers, ordered: a higher value strictly extends the ISA of the
/// one below. Degradation walks downwards.
enum class SimdLevel { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

inline constexpr int kNumSimdLevels = 3;

/// Element type of a GEMM tile's weight operand.
enum class TileWeight { kF32, kF16, kQ8_0, kQ4_0 };

/// Most output rows one gemm_tile call covers (the GEMM row block).
inline constexpr int kGemmTileRows = 8;

/// One register-tiled GEMM block: Y[rows, n] (+)= X[rows, k] · W[k, n].
/// Rows are addressed by stride, so a tile can read a k-slice of wider
/// activation rows (the split-K shrink) and write strided partials.
struct GemmTile {
  const float* x = nullptr;  ///< X row r at x + r·ldx
  std::size_t ldx = 0;
  const void* w = nullptr;   ///< W row p at w + p·ldw, elements of `wkind`
  std::size_t ldw = 0;       ///< in elements (f32/f16) or blocks (quant)
  TileWeight wkind = TileWeight::kF32;
  float* y = nullptr;        ///< Y row r at y + r·ldy
  std::size_t ldy = 0;
  int rows = 0;              ///< 1..kGemmTileRows
  std::size_t k = 0;
  std::size_t n = 0;         ///< quant: W rows start block-aligned; n may
                             ///< end mid-block (the padded final block)
  bool accumulate = false;   ///< false: Y = X·W; true: Y += X·W
};

/// Most query rows one attn_tile call covers (the prefill tile height).
inline constexpr int kAttnTileRows = 4;
/// Most query heads (sharing one KV head) one attn_tile call covers.
inline constexpr int kAttnTileHeads = 8;
/// Largest head_dim attn_tile supports.
inline constexpr int kAttnTileMaxDim = 256;
/// Most positions one attn_tile call covers (the softmax block length).
inline constexpr int kAttnTileMaxBlock = 128;

/// One contiguous page run of a KV block: `len` consecutive positions
/// whose K and V entries (head offset applied) sit `stride` elements apart.
struct AttnRun {
  const f16* k = nullptr;
  const f16* v = nullptr;
  std::int32_t len = 0;
};

/// One row-tiled attention block: the softmax partials of `rows` query
/// rows × `heads` query heads sharing one KV head, over the ascending page
/// runs of one softmax block. Row r covers the block's first row_len[r]
/// positions (rows of a causal prefill tile end at different positions);
/// no row reads a score or a V entry past its own end.
struct AttnTile {
  const float* q = nullptr;  ///< row r, head t at q + r·ldq + t·d
  std::size_t ldq = 0;
  int rows = 0;              ///< 1..kAttnTileRows
  int heads = 0;             ///< 1..kAttnTileHeads
  std::size_t d = 0;         ///< 1..kAttnTileMaxDim
  const AttnRun* runs = nullptr;
  int n_runs = 0;
  std::size_t stride = 0;
  const std::int32_t* row_len = nullptr;  ///< per row, 1..Σ run lengths
  float scale = 1.0f;
  float* scores = nullptr;   ///< scratch, position-major: pair i = r·heads
  std::size_t ld_scores = 0; ///< + t at position j is scores[j·ld_scores
                             ///< + i]; ld_scores is a power of two
                             ///< ≥ rows·heads
  float* out = nullptr;      ///< pair (r, t) partial {m, s, acc[0..d)} at
  std::size_t ld_out = 0;    ///< out + (r·heads + t)·ld_out
};

/// The dispatch table. One instance per implementation; kernels grab the
/// active table once per invocation (`const SimdOps& ops = Simd();`) and
/// call through it in their inner loops.
struct SimdOps {
  SimdLevel level;
  const char* name;

  /// dst[0..n) = decode(src[0..n))  — exact, bit-identical across paths.
  void (*half_to_float_n)(const f16* src, float* dst, std::size_t n);
  /// dst[0..n) = round_to_nearest_even_f16(src[0..n)) — bit-identical
  /// across paths for all non-NaN inputs (NaN payloads may differ).
  void (*float_to_half_n)(const float* src, f16* dst, std::size_t n);
  /// y[0..n) += a * x[0..n)  (exact when a == 1.0f, FMA-contracted
  /// otherwise on the vector paths).
  void (*axpy_f32)(float a, const float* x, float* y, std::size_t n);
  /// Σ_i a[i] * decode(b[i]). Vector paths use lane accumulators reduced in
  /// a fixed shuffle order — deterministic, but a different summation order
  /// than scalar.
  float (*dot_f16)(const float* a, const f16* b, std::size_t n);
  /// acc[0..n) = acc[0..n) * c + p * decode(v[0..n)) — the online-softmax
  /// V accumulation step. No kernel calls dot_f16 or scale_add_f16 as a
  /// table entry: bench_attention's frozen replica of the pre-page-run
  /// decode kernel does, and its gated speedup is measured against it.
  void (*scale_add_f16)(float* acc, float c, float p, const f16* v,
                        std::size_t n);

  // Page-run attention strips: one call processes a whole contiguous run of
  // cache positions (KvRunCursor runs), entries `stride` elements apart.
  // Per position both ops run this level's dot_f16 body or its fused
  // decode + axpy (acc += p · decode(v)), so how a KV range is segmented
  // into strip calls never changes the numerics — the property the split-KV
  // determinism contract rests on.
  /// scores[j] = scale · Σ_t q[t] · decode(k[j·stride + t]) for ascending
  /// j in [0, n_pos).
  void (*dot_f16_strip)(const float* q, const f16* k, std::size_t stride,
                        std::size_t d, std::size_t n_pos, float scale,
                        float* scores);
  /// The post-max softmax·V pass over one run: for ascending j,
  /// p = exp(scores[j] − m); acc[0..d) += p · decode(v[j·stride .. +d)).
  /// Returns Σ p. exp is ExpF32 (tensor/simd_exp.h) on every path.
  float (*softmax_accum_f16)(const float* scores, float m, const f16* v,
                             std::size_t stride, std::size_t d,
                             std::size_t n_pos, float* acc);

  /// The register-tiled GEMM micro-kernel behind GemmBlocked and both SGMV
  /// schedules. Every Y element is one reduction over ascending p, started
  /// from 0 (Set) or from Y (accumulate):
  ///   avx2/avx512:  y = fma(x[r,p], w[p,j], y)
  ///   scalar:       y = y + x[r,p] * w[p,j]   (product rounded, no FMA)
  /// where w[p,j] is the exact decoded weight (f16 and d·q decodes are
  /// exact in f32). The vector paths hold a block of rows × columns in
  /// registers across the whole k loop — 8×32 on avx512, 4×16 on avx2,
  /// wider column blocks for fewer rows — so each W element is decoded
  /// once per call (per 4-row half on avx2) and Y is read and written once
  /// per element. Tile shapes never change the per-element sequence, so
  /// the result is the same for any row grouping, column split or thread
  /// count. Every path software-prefetches W rows ahead of the k loop.
  void (*gemm_tile)(const GemmTile& tile);

  /// The row-tiled attention block behind prefill and decode attention.
  /// Per (row, head) pair it computes exactly the partial that
  /// dot_f16_strip + softmax_accum_f16 compute for that row alone:
  ///  * score j = the level's dot_f16 sequence over (q, K_j), times scale;
  ///  * m = ascending max of the row's scores;
  ///  * per page run (clipped at the row's end): a run sum starts at 0;
  ///    for ascending j, p = exp(score_j − m) (ExpF32),
  ///    acc = fma(p, V_j, acc) (scalar: acc + p·V_j, product rounded), and
  ///    the run sum adds p; then s += run sum (s and acc start at 0).
  /// The vector paths decode each K and V entry once per tile and hold a
  /// register group of pairs' dot and V accumulators across the block;
  /// the softmax runs lane-wise over the pairs of one position (scores are
  /// position-major), each lane keeping its pair's sequence. So the tile
  /// shape never changes a partial.
  void (*attn_tile)(const AttnTile& tile);

  /// y[0..n) = ExpF32(x[0..n)) — lane-wise on the vector paths, so the
  /// bits are the same at every level. x and y may be the same array.
  void (*exp_f32)(const float* x, float* y, std::size_t n);
  /// gate[i] = gate[i] / (1 + ExpF32(−gate[i])) · up[i] — SiLU(gate)·up,
  /// the division and the multiply each rounded; the same bits at every
  /// level.
  void (*silu_mul)(float* gate, const float* up, std::size_t n);

  // The synthetic-weight draw behind FillGaussianF16, in vector lanes.
  // nullptr on the scalar table: the fill there is the libm loop itself —
  // the oracle the vector levels reproduce bit for bit.
  /// u1[i], u2[i] = the two NextDouble() values of pair i of the Pcg32
  /// stream whose next NextU32 steps from LCG `state` with increment `inc`:
  /// four NextU32 draws per pair, no u1 == 0 rejection.
  void (*pcg_uniform_pairs)(std::uint64_t state, std::uint64_t inc,
                            std::size_t n, double* u1, double* u2);
  /// z[2i], z[2i+1] = the floats of BoxMuller(u1[i], u2[i]) (util/rng.h),
  /// bit for bit: a lane's own float stands only where it provably equals
  /// libm's, i.e. where every double within relative `eps` of the lane's z
  /// rounds to it — eps must bound the kernel's and libm's combined
  /// relative error (kBoxMullerEps) — and any other lane is recomputed
  /// through BoxMuller. Works in blocks of 4 (avx2) or 8 (avx512) pairs and
  /// stops before the first block with a u1 == 0, which NextGaussian
  /// rejects; returns the pairs written (n when there is none).
  std::size_t (*box_muller_f32)(const double* u1, const double* u2,
                                std::size_t n, double eps, float* z);
};

/// The ε box_muller_f32's callers pass: the vector log/sin/cos and glibc's
/// are each within a few ulps (2^-50) of the true value, so 2^-44 leaves a
/// 64× margin while sending about one lane in 2^19 to the libm fallback.
inline constexpr double kBoxMullerEps = 0x1.0p-44;

/// The active table. First call resolves PUNICA_SIMD / cpuid; later calls
/// are one atomic load.
const SimdOps& Simd();

SimdLevel ActiveSimdLevel();
const char* SimdLevelName(SimdLevel level);

/// True when the level's translation unit was compiled in (kScalar always;
/// the vector TUs under CMake -DPUNICA_NATIVE_SIMD=ON on x86).
bool SimdLevelCompiled(SimdLevel level);
/// True when the level is compiled AND cpuid reports its features
/// (avx2+fma+f16c; avx512 additionally f+bw+vl).
bool SimdLevelAvailable(SimdLevel level);
/// Highest available level — what "native" and the unset default resolve to.
SimdLevel BestSimdLevel();

/// Swaps the active table (process-wide). Returns the previously active
/// level. An unavailable level degrades to the next available one below.
/// Not synchronised against kernels already running on pool workers —
/// switch between kernel invocations, as the benches and tests do.
SimdLevel SetSimdLevel(SimdLevel level);

/// RAII guard forcing a dispatch level for a scope — the seam the
/// cross-path equivalence tests and the A/B benches switch on.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) : prev_(SetSimdLevel(level)) {}
  ~ScopedSimdLevel() { SetSimdLevel(prev_); }
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

 private:
  SimdLevel prev_;
};

namespace simd_detail {
/// Defined by simd_avx2.cc / simd_avx512.cc: the level's table, or nullptr
/// when that TU was compiled without PUNICA_NATIVE_SIMD (the portable
/// default).
const SimdOps* Avx2OpsOrNull();
const SimdOps* Avx512OpsOrNull();
}  // namespace simd_detail

}  // namespace punica
