#include "tensor/quant.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/half.h"
#include "util/check.h"

namespace punica {
namespace {

// Quantizes one group of up to kQuantBlock values. Pure scalar and
// branch-deterministic: the result depends only on the input bits, never on
// the dispatch level or thread count.
BlockQ8_0 QuantizeBlockQ8(const float* x, std::int64_t n) {
  BlockQ8_0 b{};
  float amax = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) amax = std::max(amax, std::fabs(x[i]));
  const f16 d(amax / 127.0f);
  b.scale = d;
  const float df = d.ToFloat();
  if (df == 0.0f) return b;  // all-zero or f16-underflowing group
  const float inv = 1.0f / df;
  for (std::int64_t i = 0; i < n; ++i) {
    const float q = std::nearbyint(x[i] * inv);
    b.qs[i] = static_cast<std::int8_t>(std::clamp(q, -127.0f, 127.0f));
  }
  return b;
}

BlockQ4_0 QuantizeBlockQ4(const float* x, std::int64_t n) {
  BlockQ4_0 b{};
  // llama.cpp convention: keep the SIGN of the largest-magnitude value so it
  // quantizes exactly to code 0 (value -8*d).
  float amax = 0.0f;
  float maxv = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) {
    const float a = std::fabs(x[i]);
    if (a > amax) {
      amax = a;
      maxv = x[i];
    }
  }
  const f16 d(maxv / -8.0f);
  b.scale = d;
  const float df = d.ToFloat();
  if (df == 0.0f) {
    // Zero scale: every code decodes to 0 regardless of the nibble, but
    // store the centered code anyway so dequant(q - 8) * 0 == 0 exactly.
    std::memset(b.qs, 0x88, sizeof(b.qs));
    return b;
  }
  const float inv = 1.0f / df;
  std::uint8_t codes[kQuantBlock] = {};
  for (std::int64_t i = 0; i < n; ++i) {
    const float q = std::nearbyint(x[i] * inv) + 8.0f;
    codes[i] = static_cast<std::uint8_t>(std::clamp(q, 0.0f, 15.0f));
  }
  for (std::int64_t i = n; i < kQuantBlock; ++i) codes[i] = 8;  // pad = 0.0
  for (std::int64_t j = 0; j < kQuantBlock / 2; ++j) {
    b.qs[j] = static_cast<std::uint8_t>(codes[j] |
                                        (codes[j + kQuantBlock / 2] << 4));
  }
  return b;
}

}  // namespace

const char* WeightDtypeName(WeightDtype dtype) {
  switch (dtype) {
    case WeightDtype::kF16:
      return "f16";
    case WeightDtype::kQ8_0:
      return "q8_0";
    case WeightDtype::kQ4_0:
      return "q4_0";
  }
  return "?";
}

bool ParseWeightDtype(std::string_view s, WeightDtype* out) {
  if (s == "f16" || s == "fp16" || s == "half") {
    *out = WeightDtype::kF16;
  } else if (s == "q8_0" || s == "q8") {
    *out = WeightDtype::kQ8_0;
  } else if (s == "q4_0" || s == "q4") {
    *out = WeightDtype::kQ4_0;
  } else {
    return false;
  }
  return true;
}

std::int64_t WeightBytesFor(std::int64_t params, WeightDtype dtype) {
  switch (dtype) {
    case WeightDtype::kF16:
      return params * 2;
    case WeightDtype::kQ8_0:
      return QuantBlocksPerRow(params) *
             static_cast<std::int64_t>(sizeof(BlockQ8_0));
    case WeightDtype::kQ4_0:
      return QuantBlocksPerRow(params) *
             static_cast<std::int64_t>(sizeof(BlockQ4_0));
  }
  return params * 2;
}

void QuantizeRowQ8(std::span<const float> src, BlockQ8_0* dst) {
  const std::int64_t n = static_cast<std::int64_t>(src.size());
  const std::int64_t blocks = QuantBlocksPerRow(n);
  for (std::int64_t b = 0; b < blocks; ++b) {
    const std::int64_t lo = b * kQuantBlock;
    dst[b] = QuantizeBlockQ8(src.data() + lo, std::min(kQuantBlock, n - lo));
  }
}

void QuantizeRowQ4(std::span<const float> src, BlockQ4_0* dst) {
  const std::int64_t n = static_cast<std::int64_t>(src.size());
  const std::int64_t blocks = QuantBlocksPerRow(n);
  for (std::int64_t b = 0; b < blocks; ++b) {
    const std::int64_t lo = b * kQuantBlock;
    dst[b] = QuantizeBlockQ4(src.data() + lo, std::min(kQuantBlock, n - lo));
  }
}

void DequantRowQ8Ref(const BlockQ8_0* src, std::span<float> dst) {
  const std::int64_t n = static_cast<std::int64_t>(dst.size());
  for (std::int64_t i = 0; i < n; ++i) {
    const BlockQ8_0& b = src[i / kQuantBlock];
    dst[i] = b.scale.ToFloat() * static_cast<float>(b.qs[i % kQuantBlock]);
  }
}

void DequantRowQ4Ref(const BlockQ4_0* src, std::span<float> dst) {
  const std::int64_t n = static_cast<std::int64_t>(dst.size());
  for (std::int64_t i = 0; i < n; ++i) {
    const BlockQ4_0& b = src[i / kQuantBlock];
    const std::int64_t e = i % kQuantBlock;
    const std::uint8_t byte = b.qs[e % (kQuantBlock / 2)];
    const int code = (e < kQuantBlock / 2) ? (byte & 0x0F) : (byte >> 4);
    dst[i] = b.scale.ToFloat() * static_cast<float>(code - 8);
  }
}

WeightMatrix WeightMatrix::FromF16(Tensor<f16> w, WeightDtype dtype) {
  PUNICA_CHECK_MSG(w.ndim() == 2, "WeightMatrix wants a 2-D tensor");
  WeightMatrix m;
  m.dtype_ = dtype;
  m.rows_ = w.dim(0);
  m.cols_ = w.dim(1);
  if (dtype == WeightDtype::kF16) {
    m.f16_ = std::move(w);
    return m;
  }
  m.bpr_ = QuantBlocksPerRow(m.cols_);
  std::vector<float> row(static_cast<std::size_t>(m.cols_));
  if (dtype == WeightDtype::kQ8_0) {
    m.q8_.resize(static_cast<std::size_t>(m.rows_ * m.bpr_));
    for (std::int64_t r = 0; r < m.rows_; ++r) {
      HalfToFloatN(w.row(r), row);
      QuantizeRowQ8(row, m.q8_.data() + r * m.bpr_);
    }
  } else {
    m.q4_.resize(static_cast<std::size_t>(m.rows_ * m.bpr_));
    for (std::int64_t r = 0; r < m.rows_; ++r) {
      HalfToFloatN(w.row(r), row);
      QuantizeRowQ4(row, m.q4_.data() + r * m.bpr_);
    }
  }
  return m;
}

std::size_t WeightMatrix::byte_size() const {
  switch (dtype_) {
    case WeightDtype::kF16:
      return static_cast<std::size_t>(rows_ * cols_) * sizeof(f16);
    case WeightDtype::kQ8_0:
      return q8_.size() * sizeof(BlockQ8_0);
    case WeightDtype::kQ4_0:
      return q4_.size() * sizeof(BlockQ4_0);
  }
  return 0;
}

std::span<const f16> WeightMatrix::f16_data() const {
  return f16_tensor().data();
}

std::span<f16> WeightMatrix::mutable_f16_data() {
  PUNICA_CHECK_MSG(dtype_ == WeightDtype::kF16,
                   "f16 view of a quantized WeightMatrix");
  return f16_.data();
}

const Tensor<f16>& WeightMatrix::f16_tensor() const {
  PUNICA_CHECK_MSG(dtype_ == WeightDtype::kF16,
                   "f16 view of a quantized WeightMatrix");
  return f16_;
}

std::span<const BlockQ8_0> WeightMatrix::q8_data() const {
  PUNICA_CHECK_MSG(dtype_ == WeightDtype::kQ8_0, "q8 view of a non-q8 matrix");
  return q8_;
}

std::span<const BlockQ4_0> WeightMatrix::q4_data() const {
  PUNICA_CHECK_MSG(dtype_ == WeightDtype::kQ4_0, "q4 view of a non-q4 matrix");
  return q4_;
}

WeightMatrix WeightMatrix::SliceRows(std::int64_t row_begin,
                                     std::int64_t row_end) const {
  PUNICA_CHECK_MSG(row_begin >= 0 && row_end <= rows_ && row_begin < row_end,
                   "row slice out of range");
  WeightMatrix m;
  m.dtype_ = dtype_;
  m.rows_ = row_end - row_begin;
  m.cols_ = cols_;
  m.bpr_ = bpr_;
  switch (dtype_) {
    case WeightDtype::kF16:
      m.f16_ = punica::SliceRows(f16_, row_begin, row_end);
      break;
    case WeightDtype::kQ8_0:
      // Whole block rows: bit-exact at any row boundary.
      m.q8_.assign(q8_.begin() + row_begin * bpr_, q8_.begin() + row_end * bpr_);
      break;
    case WeightDtype::kQ4_0:
      m.q4_.assign(q4_.begin() + row_begin * bpr_, q4_.begin() + row_end * bpr_);
      break;
  }
  return m;
}

WeightMatrix WeightMatrix::SliceCols(std::int64_t col_begin,
                                     std::int64_t col_end) const {
  PUNICA_CHECK_MSG(col_begin >= 0 && col_end <= cols_ && col_begin < col_end,
                   "column slice out of range");
  WeightMatrix m;
  m.dtype_ = dtype_;
  m.rows_ = rows_;
  m.cols_ = col_end - col_begin;
  if (dtype_ == WeightDtype::kF16) {
    m.f16_ = punica::SliceCols(f16_, col_begin, col_end);
    return m;
  }
  // Quantized: blocks are column-groupwise, so the slice must copy whole
  // blocks. A mid-block boundary would force requantization with different
  // group extrema — refuse loudly rather than silently change precision.
  PUNICA_CHECK_MSG(col_begin % kQuantBlock == 0,
                   "quantized column slice must start on a 32-block boundary");
  PUNICA_CHECK_MSG(col_end % kQuantBlock == 0 || col_end == cols_,
                   "quantized column slice must end on a 32-block boundary "
                   "(or span to the full width)");
  const std::int64_t b_begin = col_begin / kQuantBlock;
  const std::int64_t b_end = QuantBlocksPerRow(col_end);
  m.bpr_ = b_end - b_begin;
  if (dtype_ == WeightDtype::kQ8_0) {
    m.q8_.resize(static_cast<std::size_t>(rows_ * m.bpr_));
    for (std::int64_t r = 0; r < rows_; ++r) {
      std::copy(q8_.begin() + r * bpr_ + b_begin, q8_.begin() + r * bpr_ + b_end,
                m.q8_.begin() + r * m.bpr_);
    }
  } else {
    m.q4_.resize(static_cast<std::size_t>(rows_ * m.bpr_));
    for (std::int64_t r = 0; r < rows_; ++r) {
      std::copy(q4_.begin() + r * bpr_ + b_begin, q4_.begin() + r * bpr_ + b_end,
                m.q4_.begin() + r * m.bpr_);
    }
  }
  return m;
}

WeightMatrix WeightMatrix::Requantize(WeightDtype dtype) const {
  PUNICA_CHECK_MSG(dtype_ == WeightDtype::kF16,
                   "Requantize re-encodes an f16 master; requantizing a "
                   "quantized matrix would compound rounding");
  Tensor<f16> copy({rows_, cols_});
  std::copy(f16_.data().begin(), f16_.data().end(), copy.data().begin());
  return FromF16(std::move(copy), dtype);
}

void WeightMatrix::DequantRow(std::int64_t r, std::span<float> out) const {
  PUNICA_CHECK_MSG(r >= 0 && r < rows_, "row out of range");
  PUNICA_CHECK_MSG(static_cast<std::int64_t>(out.size()) == cols_,
                   "DequantRow wants a full row");
  switch (dtype_) {
    case WeightDtype::kF16:
      HalfToFloatN(f16_.row(r), out);
      return;
    case WeightDtype::kQ8_0:
      DequantRowQ8Ref(q8_.data() + r * bpr_, out);
      return;
    case WeightDtype::kQ4_0:
      DequantRowQ4Ref(q4_.data() + r * bpr_, out);
      return;
  }
}

}  // namespace punica
