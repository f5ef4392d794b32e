// Decode-attention kernel rewrite: page-run iteration + split-KV vs the
// pre-rewrite serial kernel.
//
// The baseline replicated here is the kernel this bench replaced: one task
// per (row, head) walking the cache position-by-position through
// PagedKvCache::Entry() (an unordered_map lookup plus bounds checks per
// position), an online softmax, and a per-task heap accumulator. The
// rewrite walks contiguous page runs through KvRunCursor (one lookup per
// cursor), evaluates fixed kAttnBlockLen softmax blocks with the SimdOps
// strip entries, and optionally splits long KV ranges across workers with
// a bit-exact ascending fold (see src/model/attention.h).
//
// Both kernels run on the same cache bits in the same process, so the
// per-shape `speedup` is a same-run ratio: runner speed cancels, and CI
// can gate an absolute floor on it (decode/b1/kv4096/speedup >= 2.0 at 4
// threads) while excluding the wall-clock columns from baseline compare.
// A split sweep asserts the determinism contract where it is cheapest to
// see: every forced split size must produce byte-identical output.
//
// Prefill rows (kind "prefill": a 256-row chunk at offset 0 and a 48-row
// suffix at offset 448) time the row-tiled prefill kernel against an
// in-bench replica of the per-row kernel it replaced. Both run the same
// numerics contract, so the bench exits non-zero unless they agree bit for
// bit.
//
// --json PATH   emit BENCH_attention.json ("bench": "attention")
// --threads N   pool width (default 4)
// --repeat N    best-of reps per timing (default 5)
// --smoke       small shapes, correctness + split bit-identity only (Debug
//               CI; exits non-zero on mismatch)
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "kvcache/kvcache.h"
#include "util/check.h"
#include "model/attention.h"
#include "tensor/simd.h"
#include "util/compute_context.h"
#include "util/rng.h"
#include "util/table.h"

namespace punica {
namespace {

/// Llama-7B-shaped attention: 32 query heads over 8 KV heads (GQA 4),
/// head_dim 128. One layer — the kernel under test is per-layer.
LlamaConfig BenchConfig() {
  return {.name = "attn-bench",
          .hidden_size = 4096,
          .num_layers = 1,
          .num_heads = 32,
          .num_kv_heads = 8,
          .ffn_hidden = 64,
          .vocab_size = 64};
}

/// The pre-rewrite decode kernel, kept verbatim as the measurement
/// baseline: per-position Entry() lookups, online softmax, per-task heap
/// accumulator.
void BaselineDecode(const LlamaConfig& c, const PagedKvCache& kv,
                    std::span<const SeqId> seqs, int layer,
                    std::span<const float> q, std::span<float> out,
                    const ComputeContext& ctx) {
  const SimdOps& ops = Simd();
  const int heads = c.num_heads;
  const int d = c.head_dim();
  const int group = heads / c.num_kv_heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  const auto rows = static_cast<std::int64_t>(seqs.size());
  const std::size_t width = static_cast<std::size_t>(heads) *
                            static_cast<std::size_t>(d);
  std::vector<std::int64_t> kv_lens(seqs.size());
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    kv_lens[i] = kv.SeqLen(seqs[i]);
  }
  ctx.ParallelFor(rows * heads, 1, [&](std::int64_t lo, std::int64_t hi) {
   for (std::int64_t i = lo; i < hi; ++i) {
    const std::int64_t row = i / heads;
    const int h = static_cast<int>(i % heads);
    const float* qh =
        q.data() + static_cast<std::size_t>(row) * width +
        static_cast<std::size_t>(h * d);
    const std::size_t off = static_cast<std::size_t>((h / group) * d);
    std::vector<float> acc(static_cast<std::size_t>(d), 0.0f);
    float m = -std::numeric_limits<float>::infinity();
    float s = 0.0f;
    for (std::int64_t pos = 0; pos < kv_lens[static_cast<std::size_t>(row)];
         ++pos) {
      auto k = kv.Entry(seqs[static_cast<std::size_t>(row)], layer, pos,
                        KvSlot::kKey);
      float score =
          ops.dot_f16(qh, k.data() + off, static_cast<std::size_t>(d)) *
          scale;
      float m_new = std::max(m, score);
      float corr = std::exp(m - m_new);
      float p = std::exp(score - m_new);
      auto v = kv.Entry(seqs[static_cast<std::size_t>(row)], layer, pos,
                        KvSlot::kValue);
      ops.scale_add_f16(acc.data(), corr, p, v.data() + off,
                        static_cast<std::size_t>(d));
      s = s * corr + p;
      m = m_new;
    }
    float inv = s > 0.0f ? 1.0f / s : 0.0f;
    float* oh = out.data() + static_cast<std::size_t>(row) * width +
                static_cast<std::size_t>(h * d);
    for (int j = 0; j < d; ++j) {
      oh[j] = acc[static_cast<std::size_t>(j)] * inv;
    }
   }
  });
}

/// The per-row prefill kernel the row-tiled one replaced, kept as the
/// prefill baseline: one task per (query row, KV head), each softmax block
/// scored by dot_f16_strip and accumulated by softmax_accum_f16 per page
/// run, so every K/V entry is decoded once per row instead of once per
/// tile. It runs the same numerics contract, so its output must match the
/// shipped kernel bit for bit.
void PerRowPrefill(const LlamaConfig& c, const PagedKvCache& kv, SeqId seq,
                   std::int64_t pos_offset, std::span<const float> q,
                   std::span<float> out, const ComputeContext& ctx) {
  const SimdOps& ops = Simd();
  const int d = c.head_dim();
  const int group = c.num_heads / c.num_kv_heads;
  const std::size_t width = static_cast<std::size_t>(c.num_heads) *
                            static_cast<std::size_t>(d);
  const std::size_t stride = kv.config().token_entry_elems();
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  const auto rows = static_cast<std::int64_t>(q.size() / width);
  ctx.ParallelFor(rows * c.num_kv_heads, 1, [&](std::int64_t lo,
                                                std::int64_t hi) {
    std::vector<float> scores(static_cast<std::size_t>(group) *
                              kAttnBlockLen);
    std::vector<float> acc(static_cast<std::size_t>(group) *
                           static_cast<std::size_t>(d));
    std::vector<float> bm(static_cast<std::size_t>(group));
    std::vector<float> bs(static_cast<std::size_t>(group));
    for (std::int64_t task = lo; task < hi; ++task) {
      const std::int64_t row = task / c.num_kv_heads;
      const int g = static_cast<int>(task % c.num_kv_heads);
      const std::int64_t kv_len = pos_offset + row + 1;
      const std::size_t head_off = static_cast<std::size_t>(g * d);
      const float* q0 = q.data() + static_cast<std::size_t>(row) * width +
                        static_cast<std::size_t>(g * group * d);
      float* o0 = out.data() + static_cast<std::size_t>(row) * width +
                  static_cast<std::size_t>(g * group * d);
      std::vector<float> m(static_cast<std::size_t>(group), -INFINITY);
      std::vector<float> s(static_cast<std::size_t>(group), 0.0f);
      std::fill(o0, o0 + group * d, 0.0f);
      KvRunCursor kcur(kv, seq, 0, KvSlot::kKey, head_off);
      KvRunCursor vcur(kv, seq, 0, KvSlot::kValue, head_off);
      for (std::int64_t b0 = 0; b0 < kv_len; b0 += kAttnBlockLen) {
        const std::int64_t end = std::min(kv_len, b0 + kAttnBlockLen);
        KvRun run;
        kcur.Seek(b0);
        std::int64_t done = 0;
        while (kcur.Next(end, &run)) {
          for (int t = 0; t < group; ++t) {
            ops.dot_f16_strip(q0 + t * d, run.data + head_off, stride,
                              static_cast<std::size_t>(d),
                              static_cast<std::size_t>(run.len), scale,
                              scores.data() + t * kAttnBlockLen + done);
          }
          done += run.len;
        }
        for (int t = 0; t < group; ++t) {
          bm[t] = -INFINITY;
          for (std::int64_t j = 0; j < end - b0; ++j) {
            bm[t] = std::max(bm[t], scores[t * kAttnBlockLen + j]);
          }
          bs[t] = 0.0f;
        }
        std::fill(acc.begin(), acc.end(), 0.0f);
        vcur.Seek(b0);
        done = 0;
        while (vcur.Next(end, &run)) {
          for (int t = 0; t < group; ++t) {
            bs[t] += ops.softmax_accum_f16(
                scores.data() + t * kAttnBlockLen + done, bm[t],
                run.data + head_off, stride, static_cast<std::size_t>(d),
                static_cast<std::size_t>(run.len), acc.data() + t * d);
          }
          done += run.len;
        }
        for (int t = 0; t < group; ++t) {
          const float new_m = std::max(m[t], bm[t]);
          const float alpha = std::exp(m[t] - new_m);
          const float beta = std::exp(bm[t] - new_m);
          float* oh = o0 + t * d;
          for (int i = 0; i < d; ++i) {
            oh[i] = oh[i] * alpha + beta * acc[t * d + i];
          }
          s[t] = s[t] * alpha + beta * bs[t];
          m[t] = new_m;
        }
      }
      for (int t = 0; t < group; ++t) {
        const float inv = s[t] > 0.0f ? 1.0f / s[t] : 0.0f;
        for (int i = 0; i < d; ++i) o0[t * d + i] *= inv;
      }
    }
  });
}

struct Fixture {
  std::unique_ptr<PagedKvCache> kv;
  std::vector<SeqId> seqs;
  std::vector<float> q;
};

Fixture MakeFixture(const LlamaConfig& c, int batch, std::int64_t kv_len) {
  const std::int32_t page_size = 16;
  Fixture f;
  f.kv = std::make_unique<PagedKvCache>(KvCacheConfig{
      .num_layers = c.num_layers,
      .num_kv_heads = c.num_kv_heads,
      .head_dim = c.head_dim(),
      .page_size = page_size,
      .num_pages = static_cast<std::int32_t>(
          batch * ((kv_len + page_size - 1) / page_size + 1))});
  Pcg32 rng(0xA77E + static_cast<std::uint64_t>(kv_len) * 131 +
            static_cast<std::uint64_t>(batch));
  const auto kvd = static_cast<std::size_t>(c.kv_dim());
  for (int b = 0; b < batch; ++b) {
    SeqId seq = f.kv->CreateSequence();
    PUNICA_CHECK(f.kv->Extend(seq, kv_len));
    for (std::int64_t pos = 0; pos < kv_len; ++pos) {
      auto ke = f.kv->Entry(seq, 0, pos, KvSlot::kKey);
      auto ve = f.kv->Entry(seq, 0, pos, KvSlot::kValue);
      for (std::size_t i = 0; i < kvd; ++i) {
        ke[i] = f16(rng.NextFloat(-0.5f, 0.5f));
        ve[i] = f16(rng.NextFloat(-0.5f, 0.5f));
      }
    }
    f.seqs.push_back(seq);
  }
  f.q = RandomGaussianVector(
      static_cast<std::size_t>(batch) *
          static_cast<std::size_t>(c.num_heads) *
          static_cast<std::size_t>(c.head_dim()),
      1.0f, rng);
  return f;
}

double BestOf(int reps, const std::function<void()>& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    auto start = std::chrono::steady_clock::now();
    fn();
    auto stop = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double>(stop - start).count());
  }
  return best;
}

float MaxAbsDiff(std::span<const float> a, std::span<const float> b) {
  float worst = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::fabs(a[i] - b[i]));
  }
  return worst;
}

struct ShapeRow {
  int batch;
  std::int64_t kv_len;
  double base_s;
  double new_s;
  double speedup;
  double pos_per_s;
  float max_diff;
};

ShapeRow MeasureShape(const ComputeContext& ctx, int batch,
                      std::int64_t kv_len, int reps) {
  LlamaConfig c = BenchConfig();
  Fixture f = MakeFixture(c, batch, kv_len);
  std::vector<float> out_base(f.q.size()), out_new(f.q.size());
  std::vector<float> scratch;
  double base_s = BestOf(reps, [&] {
    BaselineDecode(c, *f.kv, f.seqs, 0, f.q, out_base, ctx);
  });
  double new_s = BestOf(reps, [&] {
    BatchDecodeAttention(c, *f.kv, f.seqs, 0, f.q, out_new, ctx, &scratch);
  });
  return {batch,
          kv_len,
          base_s,
          new_s,
          base_s / new_s,
          static_cast<double>(batch) * static_cast<double>(kv_len) / new_s,
          MaxAbsDiff(out_base, out_new)};
}

struct PrefillRow {
  std::int64_t chunk;
  std::int64_t pos_offset;
  double base_s;
  double new_s;
  double speedup;
  double pos_per_s;  ///< attended (query row, cache position) pairs per s
  float max_diff;
};

/// One prefill chunk of `chunk` rows after `pos_offset` cached positions:
/// the row-tiled kernel vs the per-row replica on the same cache bits.
PrefillRow MeasurePrefill(const ComputeContext& ctx, std::int64_t chunk,
                          std::int64_t pos_offset, int reps) {
  LlamaConfig c = BenchConfig();
  Fixture f = MakeFixture(c, /*batch=*/1, pos_offset + chunk);
  Pcg32 rng(0x9E7);
  f.q = RandomGaussianVector(static_cast<std::size_t>(chunk) *
                                 static_cast<std::size_t>(c.num_heads) *
                                 static_cast<std::size_t>(c.head_dim()),
                             1.0f, rng);
  std::vector<float> out_base(f.q.size()), out_new(f.q.size());
  std::vector<float> scratch;
  double base_s = BestOf(reps, [&] {
    PerRowPrefill(c, *f.kv, f.seqs[0], pos_offset, f.q, out_base, ctx);
  });
  double new_s = BestOf(reps, [&] {
    BatchPrefillAttention(c, *f.kv, f.seqs[0], 0, pos_offset, f.q, out_new,
                          ctx, &scratch);
  });
  const double pairs = static_cast<double>(chunk) *
                       (static_cast<double>(pos_offset) +
                        (static_cast<double>(chunk) + 1.0) / 2.0);
  return {chunk,  pos_offset,         base_s, new_s, base_s / new_s,
          pairs / new_s, MaxAbsDiff(out_base, out_new)};
}

/// Exits the process when the tiled kernel and the per-row replica
/// disagree in any bit.
void RequireBitIdentical(const PrefillRow& r) {
  if (r.max_diff != 0.0f) {
    std::fprintf(stderr,
                 "FAIL: prefill chunk %lld at offset %lld differs from the "
                 "per-row kernel (max diff %g)\n",
                 static_cast<long long>(r.chunk),
                 static_cast<long long>(r.pos_offset), r.max_diff);
    std::exit(1);
  }
}

/// Forced-split sweep on one long sequence: every split size must produce
/// byte-identical output (the fixed-block fold contract). Returns rows of
/// (split, seconds); exits the process on a mismatch.
std::vector<std::pair<int, double>> SplitSweep(int threads,
                                               std::int64_t kv_len,
                                               int reps) {
  LlamaConfig c = BenchConfig();
  Fixture f = MakeFixture(c, /*batch=*/1, kv_len);
  std::vector<float> ref(f.q.size());
  std::vector<float> scratch;
  std::vector<std::pair<int, double>> rows;
  for (int split : {1, 2, 4, 8, 16}) {
    ComputeContext ctx({.num_threads = threads, .attn_split = split});
    std::vector<float> out(f.q.size());
    double secs = BestOf(reps, [&] {
      BatchDecodeAttention(c, *f.kv, f.seqs, 0, f.q, out, ctx, &scratch);
    });
    if (split == 1) {
      ref = out;
    } else if (std::memcmp(out.data(), ref.data(),
                           out.size() * sizeof(float)) != 0) {
      std::fprintf(stderr,
                   "FAIL: split=%d output differs from split=1 "
                   "(determinism contract broken)\n",
                   split);
      std::exit(1);
    }
    rows.push_back({split, secs});
  }
  return rows;
}

int RunSmoke() {
  // Debug-CI gate: tiny shapes, correctness vs the baseline kernel and
  // split bit-identity. No timing — Debug wall-clock is meaningless.
  int failures = 0;
  for (auto [batch, kv_len] : {std::pair<int, std::int64_t>{1, 64},
                               {2, 160},
                               {3, kAttnBlockLen + 1}}) {
    ComputeContext ctx({.num_threads = 0});
    ShapeRow r = MeasureShape(ctx, batch, kv_len, /*reps=*/1);
    const char* verdict = r.max_diff <= 2e-3f ? "ok" : "FAIL";
    if (r.max_diff > 2e-3f) ++failures;
    std::printf("smoke b%d kv%lld: max |new - baseline| = %.2e  %s\n",
                batch, static_cast<long long>(kv_len), r.max_diff, verdict);
  }
  SplitSweep(/*threads=*/0, /*kv_len=*/kAttnBlockLen * 3 + 7, /*reps=*/1);
  std::printf("smoke splits {1,2,4,8,16}: byte-identical  ok\n");
  {
    ComputeContext ctx({.num_threads = 0});
    RequireBitIdentical(MeasurePrefill(ctx, /*chunk=*/21, /*pos_offset=*/130,
                                       /*reps=*/1));
    std::printf("smoke prefill c21 off130: tiled == per-row bitwise  ok\n");
  }
  if (failures != 0) {
    std::fprintf(stderr, "FAIL: %d smoke shape(s) out of tolerance\n",
                 failures);
    return 1;
  }
  std::printf("attention smoke passed\n");
  return 0;
}

void Run(const char* json_path, int threads, int reps) {
  LlamaConfig c = BenchConfig();
  std::printf("Decode attention: page-run split-KV kernel vs pre-rewrite "
              "serial kernel\n");
  std::printf("model: %d q heads / %d kv heads / head_dim %d, f16 cache; "
              "%d threads; best of %d; SIMD %s\n\n",
              c.num_heads, c.num_kv_heads, c.head_dim(), threads, reps,
              SimdLevelName(ActiveSimdLevel()));

  ComputeContext ctx({.num_threads = threads});
  Table t({"batch", "kv_len", "baseline", "page-run", "speedup",
           "Mpos/s", "max diff"});
  std::vector<ShapeRow> rows;
  for (int batch : {1, 8}) {
    for (std::int64_t kv_len : {512, 2048, 4096, 8192}) {
      ShapeRow r = MeasureShape(ctx, batch, kv_len, reps);
      rows.push_back(r);
      t.AddRow({std::to_string(batch), std::to_string(kv_len),
                FormatDouble(r.base_s * 1e3, 2) + " ms",
                FormatDouble(r.new_s * 1e3, 2) + " ms",
                FormatDouble(r.speedup, 2) + "x",
                FormatDouble(r.pos_per_s / 1e6, 2),
                FormatDouble(r.max_diff, 5)});
    }
  }
  t.Print();

  std::printf("\nPrefill attention: row-tiled kernel vs per-row kernel "
              "(outputs must match bit for bit):\n");
  Table pt({"chunk", "offset", "per-row", "tiled", "speedup", "Mpair/s",
            "max diff"});
  std::vector<PrefillRow> prefill;
  for (auto [chunk, offset] : {std::pair<std::int64_t, std::int64_t>{256, 0},
                               {48, 448}}) {
    PrefillRow r = MeasurePrefill(ctx, chunk, offset, reps);
    RequireBitIdentical(r);
    prefill.push_back(r);
    pt.AddRow({std::to_string(chunk), std::to_string(offset),
               FormatDouble(r.base_s * 1e3, 2) + " ms",
               FormatDouble(r.new_s * 1e3, 2) + " ms",
               FormatDouble(r.speedup, 2) + "x",
               FormatDouble(r.pos_per_s / 1e6, 2),
               FormatDouble(r.max_diff, 5)});
  }
  pt.Print();

  auto splits = SplitSweep(threads, /*kv_len=*/8192, reps);
  std::printf("\nForced split-KV sweep, batch 1 x kv 8192 (byte-identical "
              "outputs asserted):\n");
  Table st({"split", "time", "Mpos/s"});
  for (auto [split, secs] : splits) {
    st.AddRow({std::to_string(split), FormatDouble(secs * 1e3, 2) + " ms",
               FormatDouble(8192.0 / secs / 1e6, 2)});
  }
  st.Print();
  std::printf(
      "\nReading the table:\n"
      " * baseline is the replaced kernel: per-position hash-map Entry()\n"
      "   lookups, online softmax, per-task heap accumulator. page-run is\n"
      "   the shipped kernel: one KvRunCursor per (row, head) walking\n"
      "   contiguous page runs with SimdOps strip calls and split-KV\n"
      "   scheduling. Both read the same cache bits in the same run, so\n"
      "   speedup is machine-independent enough for CI to gate a floor\n"
      "   (>= 2x at b1/kv4096); absolute ms and Mpos/s are wall-clock and\n"
      "   excluded from baseline comparison.\n"
      " * max diff is baseline-vs-new over f16 inputs: the kernels order\n"
      "   the softmax differently (online vs fixed-block), so they agree\n"
      "   to rounding, not bitwise. Split sizes of the NEW kernel are\n"
      "   byte-identical by construction — checked above, and across\n"
      "   threads/levels by tests/integration/determinism_test.cc.\n");

  if (json_path != nullptr) {
    FILE* json = std::fopen(json_path, "w");
    if (json == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path);
      std::exit(1);
    }
    std::fprintf(json,
                 "{\n  \"bench\": \"attention\",\n  \"threads\": %d,\n"
                 "  \"simd\": \"%s\",\n  \"rows\": [\n",
                 threads, SimdLevelName(ActiveSimdLevel()));
    bool first = true;
    for (const auto& r : rows) {
      std::fprintf(json,
                   "%s    {\"kind\": \"decode\", \"batch\": %d, "
                   "\"kv_len\": %lld, \"base_s\": %.6f, \"new_s\": %.6f, "
                   "\"speedup\": %.4f, \"pos_per_s\": %.1f, "
                   "\"max_diff\": %.6f}",
                   first ? "" : ",\n", r.batch,
                   static_cast<long long>(r.kv_len), r.base_s, r.new_s,
                   r.speedup, r.pos_per_s, r.max_diff);
      first = false;
    }
    for (const auto& r : prefill) {
      std::fprintf(json,
                   ",\n    {\"kind\": \"prefill\", \"chunk\": %lld, "
                   "\"pos_offset\": %lld, \"base_s\": %.6f, "
                   "\"new_s\": %.6f, \"speedup\": %.4f, "
                   "\"pos_per_s\": %.1f, \"max_diff\": %.6f}",
                   static_cast<long long>(r.chunk),
                   static_cast<long long>(r.pos_offset), r.base_s, r.new_s,
                   r.speedup, r.pos_per_s, r.max_diff);
    }
    for (auto [split, secs] : splits) {
      std::fprintf(json,
                   ",\n    {\"kind\": \"split\", \"split\": %d, "
                   "\"kv_len\": 8192, \"time_s\": %.6f, "
                   "\"pos_per_s\": %.1f}",
                   split, secs, 8192.0 / secs);
    }
    std::fprintf(json, "\n  ]\n}\n");
    if (std::ferror(json) != 0 || std::fclose(json) != 0) {
      std::fprintf(stderr, "error writing %s\n", json_path);
      std::exit(1);
    }
    std::printf("\nwrote %s\n", json_path);
  }
}

}  // namespace
}  // namespace punica

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  int threads = 4;
  int reps = 5;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[i + 1];
    }
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  if (threads < 1) threads = 1;
  if (reps < 1) reps = 1;
  if (smoke) return punica::RunSmoke();
  punica::Run(json_path, threads, reps);
  return 0;
}
