// Row-tiled prefill attention against a per-row oracle, bit for bit.
//
// The oracle is written from the attention numerics contract (see
// SimdOps::attn_tile and src/model/attention.h), one (row, head) at a time
// with the level's per-row strip primitives: per kAttnBlockLen block the
// scores come from dot_f16_strip over each page run, m is their ascending
// max, s sums softmax_accum_f16's per-run sums, and the block partials fold
// left to right before one normalisation. The tiled kernel must reproduce
// it exactly (memcmp) at every SIMD level, chunk length, cache offset,
// page size, GQA group, head slice, head_dim and forced split-KV size.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "model/attention.h"
#include "tensor/simd.h"
#include "util/rng.h"

namespace punica {
namespace {

LlamaConfig TileConfig(int group, int head_dim) {
  LlamaConfig c;
  c.name = "attn-tile-test";
  c.num_heads = 8;
  c.num_kv_heads = 8 / group;
  c.hidden_size = 8 * head_dim;
  c.num_layers = 1;
  c.ffn_hidden = 64;
  c.vocab_size = 64;
  return c;
}

/// One sequence of `len` random cache positions in a pool of `page_size`
/// pages.
struct Cache {
  std::unique_ptr<PagedKvCache> kv;
  SeqId seq = 0;
};

Cache MakeCache(const LlamaConfig& c, int page_size, std::int64_t len,
                std::uint64_t seed) {
  Cache out;
  out.kv = std::make_unique<PagedKvCache>(KvCacheConfig{
      .num_layers = 1,
      .num_kv_heads = c.num_kv_heads,
      .head_dim = c.head_dim(),
      .page_size = page_size,
      .num_pages = static_cast<std::int32_t>(len / page_size + 2)});
  out.seq = out.kv->CreateSequence();
  EXPECT_TRUE(out.kv->Extend(out.seq, len));
  Pcg32 rng(seed);
  for (std::int64_t pos = 0; pos < len; ++pos) {
    for (KvSlot slot : {KvSlot::kKey, KvSlot::kValue}) {
      for (auto& e : out.kv->Entry(out.seq, 0, pos, slot)) {
        e = f16(rng.NextFloat(-1.0f, 1.0f));
      }
    }
  }
  return out;
}

/// The per-row kernel: head `h` (global) of one query row attending over
/// cache positions [0, kv_len).
void OracleRowHead(const LlamaConfig& c, const PagedKvCache& kv, SeqId seq,
                   std::int64_t kv_len, int h, const float* q, float* out) {
  const SimdOps& ops = Simd();
  const int d = c.head_dim();
  const std::size_t head_off =
      static_cast<std::size_t>(h / (c.num_heads / c.num_kv_heads)) *
      static_cast<std::size_t>(d);
  const std::size_t stride = kv.config().token_entry_elems();
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  KvRunCursor kcur(kv, seq, 0, KvSlot::kKey);
  KvRunCursor vcur(kv, seq, 0, KvSlot::kValue);
  std::vector<float> scores(kAttnBlockLen);
  std::vector<float> acc(static_cast<std::size_t>(d));
  float m = -INFINITY;
  float s = 0.0f;
  std::fill(out, out + d, 0.0f);
  for (std::int64_t b0 = 0; b0 < kv_len; b0 += kAttnBlockLen) {
    const std::int64_t end = std::min(kv_len, b0 + kAttnBlockLen);
    KvRun run;
    kcur.Seek(b0);
    std::int64_t done = 0;
    while (kcur.Next(end, &run)) {
      ops.dot_f16_strip(q, run.data + head_off, stride,
                        static_cast<std::size_t>(d),
                        static_cast<std::size_t>(run.len), scale,
                        scores.data() + done);
      done += run.len;
    }
    float bm = -INFINITY;
    for (std::int64_t j = 0; j < end - b0; ++j) bm = std::max(bm, scores[j]);
    float bs = 0.0f;
    std::fill(acc.begin(), acc.end(), 0.0f);
    vcur.Seek(b0);
    done = 0;
    while (vcur.Next(end, &run)) {
      bs += ops.softmax_accum_f16(scores.data() + done, bm,
                                  run.data + head_off, stride,
                                  static_cast<std::size_t>(d),
                                  static_cast<std::size_t>(run.len),
                                  acc.data());
      done += run.len;
    }
    // The ascending left fold of block partials.
    const float new_m = std::max(m, bm);
    const float alpha = std::exp(m - new_m);
    const float beta = std::exp(bm - new_m);
    for (int i = 0; i < d; ++i) out[i] = out[i] * alpha + beta * acc[i];
    s = s * alpha + beta * bs;
    m = new_m;
  }
  const float inv = s > 0.0f ? 1.0f / s : 0.0f;
  for (int i = 0; i < d; ++i) out[i] *= inv;
}

struct Case {
  int group = 2;
  int head_dim = 64;
  int page_size = 16;
  std::int64_t chunk = 4;
  std::int64_t pos_offset = 0;
  int head_begin = 0;
  int head_end = 8;
  int split = 1;

  std::string Name() const {
    return "group " + std::to_string(group) + " d " +
           std::to_string(head_dim) + " page " + std::to_string(page_size) +
           " chunk " + std::to_string(chunk) + " offset " +
           std::to_string(pos_offset) + " heads [" +
           std::to_string(head_begin) + "," + std::to_string(head_end) +
           ") split " + std::to_string(split);
  }
};

/// Runs one case on `cache` and compares against the oracle bit for bit.
void CheckCase(const Case& k, const Cache& cache) {
  const LlamaConfig c = TileConfig(k.group, k.head_dim);
  const int heads = k.head_end - k.head_begin;
  const std::size_t width =
      static_cast<std::size_t>(heads) * static_cast<std::size_t>(k.head_dim);
  Pcg32 rng(static_cast<std::uint64_t>(k.chunk * 1000 + k.pos_offset));
  std::vector<float> q(static_cast<std::size_t>(k.chunk) * width);
  for (auto& v : q) v = rng.NextFloat(-1.0f, 1.0f);

  ComputeContext ctx({.num_threads = 3, .attn_split = k.split});
  std::vector<float> got(q.size());
  std::vector<float> scratch;
  BatchPrefillAttentionRanged(c, *cache.kv, cache.seq, 0, k.pos_offset, q,
                              got, k.head_begin, k.head_end, ctx, &scratch);

  std::vector<float> want(q.size());
  for (std::int64_t j = 0; j < k.chunk; ++j) {
    for (int t = 0; t < heads; ++t) {
      const std::size_t off = static_cast<std::size_t>(j) * width +
                              static_cast<std::size_t>(t) * k.head_dim;
      OracleRowHead(c, *cache.kv, cache.seq, k.pos_offset + j + 1,
                    k.head_begin + t, q.data() + off, want.data() + off);
    }
  }
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
            0)
      << SimdLevelName(ActiveSimdLevel()) << ": " << k.Name();
}

std::vector<SimdLevel> Levels() {
  std::vector<SimdLevel> out;
  for (SimdLevel l :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (SimdLevelAvailable(l)) out.push_back(l);
  }
  return out;
}

TEST(AttentionTileTest, ChunkLengthsOffsetsAndPageSizes) {
  for (SimdLevel level : Levels()) {
    ScopedSimdLevel scoped(level);
    for (int page_size : {16, 7}) {
      Case k;
      k.page_size = page_size;
      k.head_begin = 1;  // one partial GQA group, one whole one
      k.head_end = 4;
      const LlamaConfig c = TileConfig(k.group, k.head_dim);
      const Cache cache = MakeCache(c, page_size, 448 + 256, 11);
      for (std::int64_t chunk : {1, 3, 4, 5, 127, 128, 129, 256}) {
        for (std::int64_t offset : {0, 17, 448}) {
          k.chunk = chunk;
          k.pos_offset = offset;
          CheckCase(k, cache);
        }
      }
    }
  }
}

TEST(AttentionTileTest, GqaGroupsHeadSlicesHeadDimsAndSplits) {
  for (SimdLevel level : Levels()) {
    ScopedSimdLevel scoped(level);
    // (head_dim 64, group 2) is the first test's geometry.
    for (auto [head_dim, group] : {std::pair{64, 1}, std::pair{64, 4},
                                   std::pair{128, 1}, std::pair{128, 2},
                                   std::pair{128, 4}}) {
      const LlamaConfig c = TileConfig(group, head_dim);
      const Cache cache = MakeCache(c, 7, 17 + 129, 23);
      // Rank slices at tp 1/2/4 (at group 4, tp 4 cuts every GQA group in
      // half), plus a range aligned to nothing; the forced split cycles
      // through 1, 2, 3 across them.
      std::vector<std::pair<int, int>> ranges;
      for (int tp : {1, 2, 4}) {
        for (int r = 0; r < tp; ++r) {
          ranges.push_back({r * 8 / tp, (r + 1) * 8 / tp});
        }
      }
      ranges.push_back({1, 6});
      for (std::size_t i = 0; i < ranges.size(); ++i) {
        Case k;
        k.group = group;
        k.head_dim = head_dim;
        k.page_size = 7;
        k.chunk = 129;
        k.pos_offset = 17;
        k.head_begin = ranges[i].first;
        k.head_end = ranges[i].second;
        k.split = 1 + static_cast<int>(i % 3);
        CheckCase(k, cache);
      }
    }
  }
}

TEST(AttentionTileTest, ForcedSplitsOverLongSuffixes) {
  for (SimdLevel level : Levels()) {
    ScopedSimdLevel scoped(level);
    Case k;
    k.head_end = 2;  // one GQA group
    const LlamaConfig c = TileConfig(k.group, k.head_dim);
    const Cache cache = MakeCache(c, 16, 448 + 256, 31);
    for (std::int64_t chunk : {5, 129, 256}) {
      for (int split : {2, 3}) {
        k.chunk = chunk;
        k.pos_offset = 448;
        k.split = split;
        CheckCase(k, cache);
      }
    }
  }
}

}  // namespace
}  // namespace punica
