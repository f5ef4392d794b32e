#include "tensor/half.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <vector>

#include "tensor/simd.h"
#include "util/check.h"
#include "util/compute_context.h"
#include "util/rng.h"

namespace punica {

void HalfToFloatN(std::span<const f16> src, std::span<float> dst) {
  PUNICA_CHECK(src.size() == dst.size());
  Simd().half_to_float_n(src.data(), dst.data(), src.size());
}

void FloatToHalfN(std::span<const float> src, std::span<f16> dst) {
  PUNICA_CHECK(src.size() == dst.size());
  Simd().float_to_half_n(src.data(), dst.data(), src.size());
}

namespace {

/// The libm draw: dst[i] = f16(float(rng.NextGaussian()) · scale), a small
/// float buffer at a time. Returns dst.size().
std::size_t FillGaussianF16Libm(Pcg32& rng, float scale, std::span<f16> dst) {
  const SimdOps& ops = Simd();
  float buf[256];
  for (std::size_t i = 0; i < dst.size(); i += std::size(buf)) {
    const std::size_t n = std::min(std::size(buf), dst.size() - i);
    for (std::size_t j = 0; j < n; ++j) {
      buf[j] = static_cast<float>(rng.NextGaussian()) * scale;
    }
    ops.float_to_half_n(buf, dst.data() + i, n);
  }
  return dst.size();
}

}  // namespace

void FillGaussianF16(Pcg32& rng, float scale, std::span<f16> dst) {
  const SimdOps& ops = Simd();
  std::size_t i = 0;
  if (ops.box_muller_f16 != nullptr) {
    // A cached deviate is the stream's next element; whole pairs follow.
    if (rng.has_cached_gaussian() && !dst.empty()) {
      i = FillGaussianF16Libm(rng, scale, dst.first(1));
    }
    constexpr std::size_t kPairs = 256;
    double u1[kPairs];
    double u2[kPairs];
    while (dst.size() - i >= 2) {
      const std::size_t n = std::min(kPairs, (dst.size() - i) / 2);
      ops.pcg_uniform_pairs(rng.state(), rng.increment(), n, u1, u2);
      const std::size_t done =
          ops.box_muller_f16(u1, u2, n, scale, kBoxMullerEps, dst.data() + i)
              .pairs;
      rng.Advance(4 * done);
      i += 2 * done;
      if (done < n) {
        // A u1 == 0 ahead: the libm loop's rejection redraws it, which
        // shifts the rest of these pairs.
        i += FillGaussianF16Libm(rng, scale, dst.subspan(i, 2 * (n - done)));
      }
    }
  }
  // The whole span at the scalar level; otherwise an odd tail, whose draw
  // leaves the pair's second deviate cached for the next call.
  FillGaussianF16Libm(rng, scale, dst.subspan(i));
}

void FillGaussianF16Parallel(std::span<const Pcg32> streams,
                             std::span<const GaussianFill> fills,
                             const ComputeContext& ctx) {
  constexpr std::size_t kPiece = std::size_t{1} << 15;
  // A task: deviates [begin, end) of fill `fill`, or (fill == kWhole)
  // all of stream `stream`'s fills in order.
  constexpr std::size_t kWhole = ~std::size_t{0};
  struct Piece {
    std::size_t stream = 0;
    std::size_t fill = kWhole;
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  std::vector<std::uint64_t> drawn(streams.size(), 0);
  std::vector<std::uint64_t> before(fills.size());
  std::vector<char> whole(streams.size(), 0);
  for (std::size_t s = 0; s < streams.size(); ++s) {
    whole[s] = streams[s].has_cached_gaussian() ? 1 : 0;
  }
  for (std::size_t i = 0; i < fills.size(); ++i) {
    const std::size_t s = fills[i].stream;
    PUNICA_CHECK(s < streams.size());
    if (drawn[s] % 2 != 0) whole[s] = 1;  // an odd fill before this one
    before[i] = drawn[s];
    drawn[s] += fills[i].dst.size();
  }
  std::vector<Piece> pieces;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    if (whole[s] != 0) pieces.push_back({.stream = s});
  }
  for (std::size_t i = 0; i < fills.size(); ++i) {
    if (whole[fills[i].stream] != 0) continue;
    for (std::size_t b = 0; b < fills[i].dst.size(); b += kPiece) {
      pieces.push_back({fills[i].stream, i, b,
                        std::min(fills[i].dst.size(), b + kPiece)});
    }
  }
  // Draws stream s serially, its fills in order.
  const auto draw_stream = [&](std::size_t s) {
    Pcg32 rng = streams[s];
    for (const GaussianFill& f : fills) {
      if (f.stream == s) FillGaussianF16(rng, f.scale, f.dst);
    }
  };
  std::vector<std::atomic<bool>> redraw(streams.size());
  ctx.ParallelFor(static_cast<std::int64_t>(pieces.size()), 1,
                  [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t k = lo; k < hi; ++k) {
      const Piece& p = pieces[static_cast<std::size_t>(k)];
      if (p.fill == kWhole) {
        draw_stream(p.stream);
        continue;
      }
      const GaussianFill& f = fills[p.fill];
      Pcg32 rng = streams[p.stream];
      rng.Advance(2 * (before[p.fill] + p.begin));
      // A piece of whole pairs takes 4 NextU32 per pair and no more; an
      // odd final piece draws one more pair and keeps its second deviate.
      const std::size_t n = p.end - p.begin;
      Pcg32 end = rng;
      end.Advance(2 * (n + n % 2));
      FillGaussianF16(rng, f.scale, f.dst.subspan(p.begin, n));
      if (rng.state() != end.state()) {
        redraw[p.stream].store(true, std::memory_order_relaxed);
      }
    }
  });
  for (std::size_t s = 0; s < streams.size(); ++s) {
    if (redraw[s].load(std::memory_order_relaxed)) draw_stream(s);
  }
}

std::uint16_t FloatToHalfBits(float f) {
  std::uint32_t x = std::bit_cast<std::uint32_t>(f);
  std::uint32_t sign = (x >> 16U) & 0x8000U;
  std::uint32_t exp = (x >> 23U) & 0xFFU;
  std::uint32_t mant = x & 0x7FFFFFU;

  if (exp == 0xFFU) {
    // Inf / NaN. Preserve a non-zero mantissa bit for NaN.
    return static_cast<std::uint16_t>(sign | 0x7C00U |
                                      (mant != 0 ? 0x200U : 0U));
  }

  // Re-bias: fp32 bias 127, fp16 bias 15.
  std::int32_t e = static_cast<std::int32_t>(exp) - 127 + 15;
  if (e >= 0x1F) {
    return static_cast<std::uint16_t>(sign | 0x7C00U);  // overflow → inf
  }
  if (e <= 0) {
    // Subnormal or zero. Shift mantissa (with implicit leading 1) right.
    if (e < -10) return static_cast<std::uint16_t>(sign);  // underflow → 0
    mant |= 0x800000U;  // implicit bit
    std::uint32_t shift = static_cast<std::uint32_t>(14 - e);
    std::uint32_t half_mant = mant >> shift;
    // Round to nearest even on the dropped bits.
    std::uint32_t dropped = mant & ((1U << shift) - 1U);
    std::uint32_t halfway = 1U << (shift - 1U);
    if (dropped > halfway || (dropped == halfway && (half_mant & 1U) != 0)) {
      ++half_mant;
    }
    return static_cast<std::uint16_t>(sign | half_mant);
  }

  // Normal number: keep top 10 mantissa bits, round to nearest even.
  std::uint32_t half_mant = mant >> 13U;
  std::uint32_t dropped = mant & 0x1FFFU;
  std::uint32_t result = sign | (static_cast<std::uint32_t>(e) << 10U) |
                         half_mant;
  if (dropped > 0x1000U || (dropped == 0x1000U && (half_mant & 1U) != 0)) {
    ++result;  // carry may roll into the exponent; that is correct rounding
  }
  return static_cast<std::uint16_t>(result);
}

float HalfBitsToFloat(std::uint16_t bits) {
  std::uint32_t sign = (static_cast<std::uint32_t>(bits) & 0x8000U) << 16U;
  std::uint32_t exp = (bits >> 10U) & 0x1FU;
  std::uint32_t mant = bits & 0x3FFU;

  std::uint32_t out;
  if (exp == 0x1FU) {
    out = sign | 0x7F800000U | (mant << 13U);  // inf / NaN
  } else if (exp == 0) {
    if (mant == 0) {
      out = sign;  // ±0
    } else {
      // Subnormal: normalise by shifting until the implicit bit appears.
      std::int32_t e = -1;
      std::uint32_t m = mant;
      do {
        ++e;
        m <<= 1U;
      } while ((m & 0x400U) == 0);
      out = sign |
            (static_cast<std::uint32_t>(127 - 15 - e) << 23U) |
            ((m & 0x3FFU) << 13U);
    }
  } else {
    out = sign | ((exp + 127U - 15U) << 23U) | (mant << 13U);
  }
  return std::bit_cast<float>(out);
}

}  // namespace punica
