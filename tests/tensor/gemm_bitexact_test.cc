// Bit-exactness of the register-tiled dense GEMM at every compiled SIMD
// level, against a sequential oracle written from the numerics contract
// (SimdOps::gemm_tile): each output element is one reduction over
// ascending p, started from 0 (Set) or from y (Acc), of
//   scalar:      y = y + x·w   (product rounded separately)
//   avx2/avx512: y = fma(x, w, y)
// with w the exact decoded weight. The tile shapes, row blocks, column
// tiles and masked tails must never change a bit, so outputs compare with
// memcmp.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/quant.h"
#include "tensor/simd.h"
#include "util/rng.h"

namespace punica {
namespace {

// Activation rows repeat with this period, so the oracle computes at most
// kDistinctRows rows even for m = 256. Any 8-row block (and any two row
// blocks a stride of 8 apart) still sees distinct rows.
constexpr int kDistinctRows = 13;

std::vector<SimdLevel> Levels() {
  std::vector<SimdLevel> out;
  for (int l = 0; l < kNumSimdLevels; ++l) {
    auto level = static_cast<SimdLevel>(l);
    if (SimdLevelAvailable(level)) out.push_back(level);
  }
  return out;
}

float Step(SimdLevel level, float acc, float x, float w) {
  return level == SimdLevel::kScalar ? acc + x * w : std::fma(x, w, acc);
}

/// y[i, :] for i < min(m, kDistinctRows) per the contract.
std::vector<float> Oracle(SimdLevel level, const std::vector<float>& x,
                          const std::vector<float>& w_dec,
                          const std::vector<float>& y0, int rows, int k,
                          int n, bool acc) {
  std::vector<float> y(static_cast<std::size_t>(rows) * n);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < n; ++j) {
      const std::size_t o = static_cast<std::size_t>(i) * n + j;
      float v = acc ? y0[o] : 0.0f;
      for (int p = 0; p < k; ++p) {
        v = Step(level, v, x[static_cast<std::size_t>(i) * k + p],
                 w_dec[static_cast<std::size_t>(p) * n + j]);
      }
      y[o] = v;
    }
  }
  return y;
}

/// Rows [0, m) repeating the first kDistinctRows rows of `base`.
std::vector<float> Periodic(const std::vector<float>& base, int m, int width) {
  std::vector<float> out(static_cast<std::size_t>(m) * width);
  for (int i = 0; i < m; ++i) {
    std::memcpy(&out[static_cast<std::size_t>(i) * width],
                &base[static_cast<std::size_t>(i % kDistinctRows) * width],
                static_cast<std::size_t>(width) * sizeof(float));
  }
  return out;
}

void ExpectBitEqual(const std::vector<float>& got,
                    const std::vector<float>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  if (std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) == 0) {
    return;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0) {
      FAIL() << what << ": first mismatch at element " << i << " got "
             << got[i] << " want " << want[i];
    }
  }
}

TEST(GemmBitExactTest, TiledGemmMatchesContractOracleAtEveryLevel) {
  const int ms[] = {1, 7, 8, 9, 33, 256};
  const int ns[] = {1, 15, 16, 17, 31, 32, 33, 352, 704};
  const int ks[] = {1, 17, 256, 704};
  const WeightDtype dtypes[] = {WeightDtype::kF16, WeightDtype::kQ8_0,
                                WeightDtype::kQ4_0};
  ComputeContext ctx({.num_threads = 2});
  Pcg32 rng(4242);
  for (int k : ks) {
    for (int n : ns) {
      Tensor<f16> master({k, n});
      for (auto& v : master.data()) {
        v = f16(static_cast<float>(rng.NextGaussian()) * 0.1f);
      }
      const auto base_x = RandomGaussianVector(
          static_cast<std::size_t>(kDistinctRows) * k, 1.0f, rng);
      const auto base_y = RandomGaussianVector(
          static_cast<std::size_t>(kDistinctRows) * n, 1.0f, rng);
      for (WeightDtype dtype : dtypes) {
        const WeightMatrix w = WeightMatrix::FromF16(master, dtype);
        std::vector<float> w_dec(static_cast<std::size_t>(k) * n);
        for (int p = 0; p < k; ++p) {
          w.DequantRow(p, std::span<float>(w_dec).subspan(
                              static_cast<std::size_t>(p) * n, n));
        }
        for (SimdLevel level : Levels()) {
          ScopedSimdLevel guard(level);
          for (bool acc : {false, true}) {
            const std::vector<float> want_base =
                Oracle(level, base_x, w_dec, base_y, kDistinctRows, k, n, acc);
            for (int m : ms) {
              const std::string what =
                  std::string(SimdLevelName(level)) + " " +
                  WeightDtypeName(dtype) + (acc ? " Acc" : " Set") +
                  " m=" + std::to_string(m) + " n=" + std::to_string(n) +
                  " k=" + std::to_string(k);
              const auto x = Periodic(base_x, m, k);
              auto y = Periodic(base_y, m, n);
              if (acc) {
                GemmAccW(x, w, y, m, k, n, ctx);
              } else {
                GemmSetW(x, w, y, m, k, n, ctx);
              }
              ExpectBitEqual(y, Periodic(want_base, m, n), what);
            }
          }
        }
      }
    }
  }
}

TEST(GemmBitExactTest, F32WeightsMatchContractOracleAtEveryLevel) {
  ComputeContext ctx({.num_threads = 2});
  Pcg32 rng(99);
  const int m = 9, k = 67, n = 131;
  const auto x = RandomGaussianVector(static_cast<std::size_t>(m) * k, 1.0f,
                                      rng);
  const auto w = RandomGaussianVector(static_cast<std::size_t>(k) * n, 0.1f,
                                      rng);
  const std::vector<float> stale(static_cast<std::size_t>(m) * n, 7.0f);
  for (SimdLevel level : Levels()) {
    ScopedSimdLevel guard(level);
    std::vector<float> y = stale;
    GemmSet(x, w, y, m, k, n, ctx);
    ExpectBitEqual(y, Oracle(level, x, w, stale, m, k, n, /*acc=*/false),
                   SimdLevelName(level));
  }
}

}  // namespace
}  // namespace punica
