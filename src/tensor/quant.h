// Groupwise weight quantization (llama.cpp-style Q8_0 / Q4_0 blocks).
//
// Decode in the numeric tier is memory-bound on weight traffic: every
// projection's GemmAccF16W streams the full weight matrix per step. Storing
// weights as 32-element blocks with one shared f16 scale halves (Q8_0,
// 34 B/block vs 64 B f16) or quarters (Q4_0, 18 B/block) the streamed
// bytes, which is a direct decode win and a proportional KV-page capacity
// multiplier in the simulated tier.
//
// Block layouts (bit-compatible with llama.cpp's ggml formats):
//  * Q8_0: one f16 scale d, then 32 int8 q; value_i = d * q_i.
//          d = max|x| / 127, q_i = round(x_i / d).
//  * Q4_0: one f16 scale d, then 16 packed bytes. Byte j holds element j in
//          its LOW nibble and element j+16 in its HIGH nibble (the
//          llama.cpp packing); nibbles are unsigned with an offset of 8:
//          value_i = d * (q_i - 8). d = x_at_max_|x| / -8 (sign kept so the
//          largest-magnitude value lands exactly on q = 0).
//
// Blocks run along the *contiguous* (column) dimension of a row-major
// [rows, cols] matrix, so the GEMM kernels' k-row stripes stay block-
// aligned (the column tile width is a multiple of kQuantBlock). A row whose
// length is not a multiple of 32 pads its final block with zeros.
//
// Determinism: dequantization (int8/int4 × f16 scale) is EXACT in f32 —
// the product has at most 7 + 11 significand bits — so the decoded panel
// is bit-identical on every dispatch path (scalar/avx2/avx512). The GEMM
// tile then runs the f16 path's per-element step on it, so quantized
// outputs differ across paths only by FMA contraction, exactly the
// documented f16-path contract.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "tensor/half.h"
#include "tensor/tensor.h"

namespace punica {

/// Storage format of dense model weights (LlamaConfig::weight_dtype).
enum class WeightDtype { kF16 = 0, kQ8_0 = 1, kQ4_0 = 2 };

const char* WeightDtypeName(WeightDtype dtype);
/// Parses "f16" | "q8_0" | "q4_0" (also accepts "q8"/"q4"). Returns false
/// on anything else, leaving *out untouched.
bool ParseWeightDtype(std::string_view s, WeightDtype* out);

/// Elements per quantization group (and per block struct).
inline constexpr std::int64_t kQuantBlock = 32;

struct BlockQ8_0 {
  f16 scale;                ///< d
  std::int8_t qs[kQuantBlock];
};
static_assert(sizeof(BlockQ8_0) == 34, "Q8_0 block is 2 + 32 bytes");

struct BlockQ4_0 {
  f16 scale;                ///< d
  std::uint8_t qs[kQuantBlock / 2];  ///< byte j: elem j (lo), elem j+16 (hi)
};
static_assert(sizeof(BlockQ4_0) == 18, "Q4_0 block is 2 + 16 bytes");

/// Blocks needed to store one `cols`-element row (ceil division).
inline std::int64_t QuantBlocksPerRow(std::int64_t cols) {
  return (cols + kQuantBlock - 1) / kQuantBlock;
}

/// Bytes `params` weights occupy under `dtype`. Exact when row lengths are
/// multiples of 32 (true for every model config's projection dims); a
/// whole-model accounting helper, so per-row tail padding is ignored.
std::int64_t WeightBytesFor(std::int64_t params, WeightDtype dtype);

/// Reference quantize/dequantize routines (portable scalar; quantization is
/// cold path — it runs once at model build). `dst` must hold
/// QuantBlocksPerRow(src.size()) blocks; a partial final block is padded
/// with zero codes. An all-zero (or f16-underflowing) group stores scale 0
/// and zero codes, never a NaN.
void QuantizeRowQ8(std::span<const float> src, BlockQ8_0* dst);
void QuantizeRowQ4(std::span<const float> src, BlockQ4_0* dst);

/// Scalar reference dequant: dst[i] = d * q_i (exact f32 products, the
/// numbers every dispatch path computes with). `src` points at the block
/// containing element 0.
void DequantRowQ8Ref(const BlockQ8_0* src, std::span<float> dst);
void DequantRowQ4Ref(const BlockQ4_0* src, std::span<float> dst);

/// A dense [rows, cols] weight matrix in one of the three storage formats.
/// The f16 path wraps the tensor unchanged (zero conversion cost); the
/// quantized paths hold rows × QuantBlocksPerRow(cols) blocks, quantized
/// row-by-row so slicing/sharding stays row-local.
class WeightMatrix {
 public:
  WeightMatrix() = default;

  /// Wraps (kF16) or quantizes (kQ8_0/kQ4_0) a 2-D f16 tensor.
  /// Quantization is deterministic: it depends only on the f16 bits.
  static WeightMatrix FromF16(Tensor<f16> w, WeightDtype dtype);

  WeightDtype dtype() const { return dtype_; }
  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  /// Tensor-compatible shape accessor (0 = rows, 1 = cols).
  std::int64_t dim(std::size_t i) const { return i == 0 ? rows_ : cols_; }
  std::int64_t blocks_per_row() const { return bpr_; }

  /// Stored bytes (the quantity the capacity accounting scales by dtype).
  std::size_t byte_size() const;

  std::span<const f16> f16_data() const;
  /// Writable f16 payload (f16 path only): the in-place fill of a matrix
  /// allocated elsewhere (LayerWeights::Draw).
  std::span<f16> mutable_f16_data();
  const Tensor<f16>& f16_tensor() const;
  std::span<const BlockQ8_0> q8_data() const;
  std::span<const BlockQ4_0> q4_data() const;

  /// Element access for tests/slicing; valid only on the f16 path.
  f16 at(std::initializer_list<std::int64_t> idx) const {
    return f16_tensor().at(idx);
  }

  /// Dequantizes row r into out (size cols) — the exact f32 values the
  /// kernels compute with, on any path.
  void DequantRow(std::int64_t r, std::span<float> out) const;

  /// Slices rows [row_begin, row_end), preserving the dtype. Quantization
  /// blocks run along the column dimension, so a row slice copies whole
  /// block rows at ANY boundary — the sliced shard is bit-identical to
  /// quantizing the sliced f16 master (quantize and row-slice commute).
  /// This is why the row-parallel shards (O/Down, and LoRA A row slices)
  /// never pay a requantization penalty.
  WeightMatrix SliceRows(std::int64_t row_begin, std::int64_t row_end) const;

  /// Slices columns [col_begin, col_end), preserving the dtype. f16 slices
  /// at any boundary. Quantized formats require col_begin to be a multiple
  /// of kQuantBlock and col_end a multiple or the full width: an aligned
  /// slice copies whole blocks (bit-identical to quantize-after-slice; the
  /// padded tail block of a non-multiple width travels with the last
  /// shard), while a mid-block slice would have to requantize with
  /// different per-group extrema — a silent precision change. Misaligned
  /// quantized requests abort (PUNICA_CHECK); callers that genuinely need a
  /// mid-block column split must slice the f16 master and requantize,
  /// accepting the documented shard-local-blocks exemption (see the q8_0
  /// tp=4 case in tests/integration/determinism_test.cc).
  WeightMatrix SliceCols(std::int64_t col_begin, std::int64_t col_end) const;

  /// Re-encodes this matrix's payload under `dtype` via the f16 master
  /// (f16 source only — requantizing an already-quantized matrix would
  /// silently compound rounding). The shard path: slice the f16 master,
  /// then quantize shard-locally.
  WeightMatrix Requantize(WeightDtype dtype) const;

 private:
  WeightDtype dtype_ = WeightDtype::kF16;
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::int64_t bpr_ = 0;  ///< blocks per row (quantized paths)
  Tensor<f16> f16_;
  std::vector<BlockQ8_0> q8_;
  std::vector<BlockQ4_0> q4_;
};

}  // namespace punica
