#include "util/rng.h"

#include <cmath>
#include <numbers>

namespace punica {

Pcg32::Pcg32(std::uint64_t seed, std::uint64_t stream)
    : state_(0), inc_((stream << 1U) | 1U) {
  NextU32();
  state_ += seed;
  NextU32();
}

std::uint32_t Pcg32::NextU32() {
  std::uint64_t old = state_;
  state_ = old * kPcgMultiplier + inc_;
  auto xorshifted = static_cast<std::uint32_t>(((old >> 18U) ^ old) >> 27U);
  auto rot = static_cast<std::uint32_t>(old >> 59U);
  return (xorshifted >> rot) | (xorshifted << ((32U - rot) & 31U));
}

std::uint32_t Pcg32::NextBounded(std::uint32_t bound) {
  if (bound <= 1) return 0;
  // Rejection sampling: discard the biased low region.
  std::uint32_t threshold = (~bound + 1U) % bound;
  for (;;) {
    std::uint32_t r = NextU32();
    if (r >= threshold) return r % bound;
  }
}

double Pcg32::NextDouble() {
  // 53 random bits into [0, 1).
  std::uint64_t hi = NextU32();
  std::uint64_t lo = NextU32();
  std::uint64_t bits = ((hi << 32U) | lo) >> 11U;
  return static_cast<double>(bits) * 0x1.0p-53;
}

float Pcg32::NextFloat(float lo, float hi) {
  return lo + static_cast<float>(NextDouble()) * (hi - lo);
}

double Pcg32::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  double u2 = NextDouble();
  auto [z0, z1] = BoxMuller(u1, u2);
  cached_gaussian_ = z1;
  has_cached_gaussian_ = true;
  return z0;
}

void Pcg32::Advance(std::uint64_t delta) {
  const PcgJump j = PcgJumpOf(delta);
  state_ = j.mult * state_ + j.plus * inc_;
}

std::pair<double, double> BoxMuller(double u1, double u2) {
  double mag = std::sqrt(-2.0 * std::log(u1));
  return {mag * std::cos(2.0 * std::numbers::pi * u2),
          mag * std::sin(2.0 * std::numbers::pi * u2)};
}

double Pcg32::NextExponential(double rate) {
  double u = 0.0;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

std::vector<float> RandomGaussianVector(std::size_t n, float scale,
                                        Pcg32& rng) {
  std::vector<float> out(n);
  for (auto& x : out) {
    x = static_cast<float>(rng.NextGaussian()) * scale;
  }
  return out;
}

}  // namespace punica
