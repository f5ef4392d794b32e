#include "model/rope.h"

#include <cmath>
#include <cstdint>

#include "util/check.h"

namespace punica {

void ApplyRope(std::span<float> x, int num_heads, int head_dim,
               std::int64_t pos, float theta) {
  PUNICA_CHECK(head_dim % 2 == 0);
  PUNICA_CHECK(x.size() == static_cast<std::size_t>(num_heads) *
                               static_cast<std::size_t>(head_dim));
  for (int h = 0; h < num_heads; ++h) {
    float* head = &x[static_cast<std::size_t>(h) *
                     static_cast<std::size_t>(head_dim)];
    for (int i = 0; i < head_dim / 2; ++i) {
      float freq = std::pow(theta, -2.0f * static_cast<float>(i) /
                                       static_cast<float>(head_dim));
      float angle = static_cast<float>(pos) * freq;
      float c = std::cos(angle);
      float s = std::sin(angle);
      float x0 = head[2 * i];
      float x1 = head[2 * i + 1];
      head[2 * i] = x0 * c - x1 * s;
      head[2 * i + 1] = x0 * s + x1 * c;
    }
  }
}

void RopeTable::Build(std::span<const std::int64_t> positions, int head_dim,
                      float theta, const ComputeContext& ctx) {
  PUNICA_CHECK(head_dim % 2 == 0);
  rows_ = positions.size();
  half_ = static_cast<std::size_t>(head_dim / 2);
  if (freq_.size() < half_) freq_.resize(half_);
  if (cos_.size() < rows_ * half_) {
    cos_.resize(rows_ * half_);
    sin_.resize(rows_ * half_);
  }
  // ApplyRope's expressions, evaluated once per pair (freq) and once per
  // (row, pair) (angle, cos, sin).
  for (std::size_t i = 0; i < half_; ++i) {
    freq_[i] = std::pow(theta, -2.0f * static_cast<float>(i) /
                                   static_cast<float>(head_dim));
  }
  ctx.ParallelFor(static_cast<std::int64_t>(rows_), 16,
                  [&](std::int64_t lo, std::int64_t hi) {
    for (auto t = static_cast<std::size_t>(lo);
         t < static_cast<std::size_t>(hi); ++t) {
      const auto pos = static_cast<float>(positions[t]);
      for (std::size_t i = 0; i < half_; ++i) {
        const float angle = pos * freq_[i];
        cos_[t * half_ + i] = std::cos(angle);
        sin_[t * half_ + i] = std::sin(angle);
      }
    }
  });
}

void RopeTable::Apply(std::size_t t, std::span<float> x,
                      int num_heads) const {
  PUNICA_CHECK(t < rows_);
  PUNICA_CHECK(x.size() == static_cast<std::size_t>(num_heads) * 2 * half_);
  const float* c = &cos_[t * half_];
  const float* s = &sin_[t * half_];
  for (int h = 0; h < num_heads; ++h) {
    float* head = &x[static_cast<std::size_t>(h) * 2 * half_];
    for (std::size_t i = 0; i < half_; ++i) {
      float x0 = head[2 * i];
      float x1 = head[2 * i + 1];
      head[2 * i] = x0 * c[i] - x1 * s[i];
      head[2 * i + 1] = x0 * s[i] + x1 * c[i];
    }
  }
}

}  // namespace punica
