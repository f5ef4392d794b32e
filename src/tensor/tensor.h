// Minimal owning row-major tensor.
//
// The kernels in this repo operate on raw spans for speed and clarity;
// Tensor<T> is the owning container that hands those spans out with shape
// checking. It deliberately supports only what the repro needs: contiguous
// row-major storage, 1–4 dims, element access for tests.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/check.h"

namespace punica {

namespace tensor_detail {

/// std::allocator whose argument-less construct leaves trivially copyable
/// elements as allocated — unwritten, so a buffer the caller overwrites
/// anyway is neither zeroed nor touched until then.
template <typename T>
struct UninitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = UninitAllocator<U>;
  };
  UninitAllocator() = default;
  template <typename U>
  UninitAllocator(const UninitAllocator<U>& /*other*/) noexcept {}

  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) == 0 && std::is_trivially_copyable_v<U> &&
                  std::is_trivially_destructible_v<U>) {
      (void)p;
    } else {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  }
};

}  // namespace tensor_detail

template <typename T>
class Tensor {
 public:
  Tensor() = default;

  /// Zero-filled (value-initialized) elements.
  explicit Tensor(std::vector<std::int64_t> shape)
      : shape_(std::move(shape)), data_(CheckedNumel(shape_), T()) {}

  Tensor(std::vector<std::int64_t> shape, std::vector<T> data)
      : shape_(std::move(shape)), data_(data.begin(), data.end()) {
    PUNICA_CHECK_MSG(data_.size() == CheckedNumel(shape_),
                     "data size must match shape");
  }

  /// Elements left unwritten, for a caller that overwrites every one
  /// (the synthetic-weight draws): no zero pass, and no page is touched
  /// before the writer touches it.
  static Tensor Uninitialized(std::vector<std::int64_t> shape) {
    Tensor t;
    t.data_ = Storage(CheckedNumel(shape));
    t.shape_ = std::move(shape);
    return t;
  }

  const std::vector<std::int64_t>& shape() const { return shape_; }
  std::int64_t dim(std::size_t i) const { return shape_.at(i); }
  std::size_t ndim() const { return shape_.size(); }
  std::size_t numel() const { return data_.size(); }

  std::span<T> data() { return data_; }
  std::span<const T> data() const { return data_; }
  T* raw() { return data_.data(); }
  const T* raw() const { return data_.data(); }

  /// Row view for a 2-D tensor: tensor.row(i) spans shape[1] elements.
  std::span<T> row(std::int64_t i) {
    PUNICA_CHECK(ndim() == 2);
    PUNICA_CHECK(i >= 0 && i < shape_[0]);
    auto w = static_cast<std::size_t>(shape_[1]);
    return std::span<T>(data_).subspan(static_cast<std::size_t>(i) * w, w);
  }
  std::span<const T> row(std::int64_t i) const {
    PUNICA_CHECK(ndim() == 2);
    PUNICA_CHECK(i >= 0 && i < shape_[0]);
    auto w = static_cast<std::size_t>(shape_[1]);
    return std::span<const T>(data_).subspan(static_cast<std::size_t>(i) * w,
                                             w);
  }

  T& at(std::initializer_list<std::int64_t> idx) {
    return data_[Offset(idx)];
  }
  const T& at(std::initializer_list<std::int64_t> idx) const {
    return data_[Offset(idx)];
  }

  void Fill(T value) { std::fill(data_.begin(), data_.end(), value); }

 private:
  static std::size_t CheckedNumel(const std::vector<std::int64_t>& shape) {
    std::size_t n = 1;
    for (auto d : shape) {
      PUNICA_CHECK_MSG(d >= 0, "negative dimension");
      n *= static_cast<std::size_t>(d);
    }
    return n;
  }

  std::size_t Offset(std::initializer_list<std::int64_t> idx) const {
    PUNICA_CHECK(idx.size() == shape_.size());
    std::size_t off = 0;
    std::size_t d = 0;
    for (auto i : idx) {
      PUNICA_CHECK(i >= 0 && i < shape_[d]);
      off = off * static_cast<std::size_t>(shape_[d]) +
            static_cast<std::size_t>(i);
      ++d;
    }
    return off;
  }

  using Storage = std::vector<T, tensor_detail::UninitAllocator<T>>;

  std::vector<std::int64_t> shape_;
  Storage data_;
};

/// Copies rows [row_begin, row_end) of a 2-D tensor.
template <typename T>
Tensor<T> SliceRows(const Tensor<T>& t, std::int64_t row_begin,
                    std::int64_t row_end) {
  PUNICA_CHECK(t.ndim() == 2);
  PUNICA_CHECK(row_begin >= 0 && row_end <= t.dim(0) && row_begin < row_end);
  Tensor<T> out({row_end - row_begin, t.dim(1)});
  for (std::int64_t i = row_begin; i < row_end; ++i) {
    auto src = t.row(i);
    std::copy(src.begin(), src.end(), out.row(i - row_begin).begin());
  }
  return out;
}

/// Copies columns [col_begin, col_end) of a 2-D tensor.
template <typename T>
Tensor<T> SliceCols(const Tensor<T>& t, std::int64_t col_begin,
                    std::int64_t col_end) {
  PUNICA_CHECK(t.ndim() == 2);
  PUNICA_CHECK(col_begin >= 0 && col_end <= t.dim(1) && col_begin < col_end);
  Tensor<T> out({t.dim(0), col_end - col_begin});
  for (std::int64_t i = 0; i < t.dim(0); ++i) {
    auto src = t.row(i);
    std::copy(src.begin() + col_begin, src.begin() + col_end,
              out.row(i).begin());
  }
  return out;
}

}  // namespace punica
