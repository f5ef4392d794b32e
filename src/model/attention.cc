#include "model/attention.h"

#include <algorithm>
#include <cmath>

#include "tensor/simd.h"
#include "util/check.h"
#include "util/small_buffer.h"

namespace punica {
namespace {

// Inline capacity for per-call metadata: decode batches up to this many
// rows resolve kv lengths and split offsets on the stack (the hot path);
// bigger batches and long prefill chunks spill to reused heap storage.
constexpr std::size_t kStackRows = 64;

/// One attention row: a query token and the cache range it attends over.
struct RowInfo {
  SeqId seq = 0;
  std::int64_t kv_len = 0;
};

/// Query heads per task: GQA query heads sharing one KV head are evaluated
/// together, block-interleaved, so each K/V cache block is streamed from
/// memory once per task instead of once per query head (the cache bytes
/// are the decode roofline). Capped at what one attn_tile call covers; a
/// wider GQA group becomes several tasks over the same KV head.
constexpr int kMaxSegHeads = kAttnTileHeads;
static_assert(kMaxAttnHeadDim == kAttnTileMaxDim);
static_assert(kAttnBlockLen == kAttnTileMaxBlock);

/// A run of consecutive local query heads sharing one KV head.
struct HeadSeg {
  std::int32_t lo = 0;  ///< first local head
  std::int32_t hi = 0;  ///< one past the last local head
};

/// Per-task scratch of one tile: the block's page runs, per-row lengths,
/// scores and the per-(row, head) block partials {m, s, acc[d]}.
struct TileScratch {
  AttnRun runs[kAttnBlockLen];
  std::int32_t row_len[kAttnTileRows];
  float scores[kAttnTileRows * kMaxSegHeads * kAttnBlockLen];
  float partial[kAttnTileRows * kMaxSegHeads * (2 + kMaxAttnHeadDim)];
};

/// One task's query rows: `n` consecutive rows of one sequence with
/// ascending kv_len — a prefill tile, or a single decode row. Row i's
/// heads start at q + i·ldq.
struct TileRows {
  const RowInfo* rows = nullptr;
  int n = 0;
  const float* q = nullptr;
  std::size_t ldq = 0;
};

/// The softmax partials of the block starting at position b0, for the
/// tile's rows that reach into it (a suffix, since kv_len ascends) and the
/// `n_h` heads sharing the cursors' KV head. The block's page runs are
/// collected once (run boundaries come from the page geometry and the
/// absolute block grid, never from the tile, split or thread count) and
/// handed to the level's attn_tile, which gives every (row, head) pair the
/// partial its row alone would get. Pair (first + i, t) lands at
/// sc.partial + (i·n_h + t)·(d + 2). Returns `first`.
int ComputeTileBlock(const SimdOps& ops, KvRunCursor& kcur,
                     KvRunCursor& vcur, const TileRows& tile, int n_h,
                     std::size_t head_off, std::size_t stride, int d,
                     std::int64_t b0, float scale, TileScratch& sc) {
  int first = 0;
  while (tile.rows[first].kv_len <= b0) ++first;
  const std::int64_t end =
      std::min(tile.rows[tile.n - 1].kv_len, b0 + kAttnBlockLen);
  kcur.Seek(b0);
  vcur.Seek(b0);
  KvRun kr;
  KvRun vr;
  int n_runs = 0;
  while (kcur.Next(end, &kr)) {
    vcur.Next(end, &vr);
    sc.runs[n_runs++] = {kr.data + head_off, vr.data + head_off, kr.len};
  }
  for (int r = first; r < tile.n; ++r) {
    sc.row_len[r - first] = static_cast<std::int32_t>(
        std::min(tile.rows[r].kv_len, b0 + kAttnBlockLen) - b0);
  }
  ops.attn_tile({.q = tile.q + static_cast<std::size_t>(first) * tile.ldq,
                 .ldq = tile.ldq,
                 .rows = tile.n - first,
                 .heads = n_h,
                 .d = static_cast<std::size_t>(d),
                 .runs = sc.runs,
                 .n_runs = n_runs,
                 .stride = stride,
                 .row_len = sc.row_len,
                 .scale = scale,
                 .scores = sc.scores,
                 .ld_scores = kAttnBlockLen,
                 .out = sc.partial,
                 .ld_out = static_cast<std::size_t>(d) + 2});
  return first;
}

/// Folds one block partial into the running (m, s, acc) state. This is the
/// ONLY way partials ever combine — a left fold in ascending block order —
/// on both the inline path and the split-KV path, so the non-associative
/// softmax merge is always the same arithmetic sequence. Seeded with
/// (m = −inf, s = 0, acc = 0): exp(−inf − m') = 0 makes the first fold an
/// exact copy-in.
inline void FoldBlock(float bm, float bs, const float* bacc, int d, float* m,
                      float* s, float* acc) {
  const float new_m = std::max(*m, bm);
  const float alpha = std::exp(*m - new_m);
  const float beta = std::exp(bm - new_m);
  for (int i = 0; i < d; ++i) acc[i] = acc[i] * alpha + beta * bacc[i];
  *s = *s * alpha + beta * bs;
  *m = new_m;
}

inline void NormalizeOut(float s, int d, float* out_head) {
  const float inv = s > 0.0f ? 1.0f / s : 0.0f;
  for (int i = 0; i < d; ++i) out_head[i] *= inv;
}

/// The unsplit path: every block of one (tile, head-segment) task computed
/// and folded inline. Each (row, head) output slice doubles as its fold
/// accumulator — no per-task heap allocation. Per (row, head) the
/// block/fold sequence is identical to a one-row, one-head task; tiling
/// and grouping only change which task runs it.
void AttendTileInline(const SimdOps& ops, const PagedKvCache& kv,
                      const TileRows& tile, int layer, const HeadSeg& seg,
                      std::size_t head_off, std::size_t stride, int d,
                      float* out0, std::size_t ld_out, float scale) {
  const int n_h = seg.hi - seg.lo;
  KvRunCursor kcur(kv, tile.rows[0].seq, layer, KvSlot::kKey, head_off);
  KvRunCursor vcur(kv, tile.rows[0].seq, layer, KvSlot::kValue, head_off);
  TileScratch sc;
  const std::size_t pstride = static_cast<std::size_t>(d) + 2;
  // Running fold (m, s) per (row, head).
  float m[kAttnTileRows * kMaxSegHeads];
  float s[kAttnTileRows * kMaxSegHeads];
  const auto out_head = [&](int r, int t) {
    return out0 + static_cast<std::size_t>(r) * ld_out +
           static_cast<std::size_t>(t) * d;
  };
  for (int r = 0; r < tile.n; ++r) {
    for (int t = 0; t < n_h; ++t) {
      m[r * n_h + t] = -INFINITY;
      s[r * n_h + t] = 0.0f;
      std::fill(out_head(r, t), out_head(r, t) + d, 0.0f);
    }
  }
  for (std::int64_t b0 = 0; b0 < tile.rows[tile.n - 1].kv_len;
       b0 += kAttnBlockLen) {
    const int first = ComputeTileBlock(ops, kcur, vcur, tile, n_h, head_off,
                                       stride, d, b0, scale, sc);
    for (int r = first; r < tile.n; ++r) {
      for (int t = 0; t < n_h; ++t) {
        const float* slot =
            sc.partial +
            static_cast<std::size_t>((r - first) * n_h + t) * pstride;
        FoldBlock(slot[0], slot[1], slot + 2, d, &m[r * n_h + t],
                  &s[r * n_h + t], out_head(r, t));
      }
    }
  }
  for (int r = 0; r < tile.n; ++r) {
    for (int t = 0; t < n_h; ++t) {
      NormalizeOut(s[r * n_h + t], d, out_head(r, t));
    }
  }
}

/// Work-size heuristic (split-KV chunk count): split only when the batch's
/// (tile × head-segment) tasks under-fill the worker pool — the long-context
/// single-sequence decode that otherwise leaves most workers idle — and
/// the longest row spans at least two blocks. Any S computes the identical
/// stream (the block math is fixed), so this is purely a scheduling choice
/// and may depend on the thread count without breaking determinism.
int PickSplit(const ComputeContext& ctx, std::int64_t tasks,
              std::int64_t max_kv_len) {
  const int forced = ctx.attn_split();
  if (forced > 0) return forced;
  const auto threads = static_cast<std::int64_t>(ctx.num_threads());
  if (threads <= 1 || tasks <= 0) return 1;
  if (tasks >= 2 * threads) return 1;
  if (max_kv_len < 2 * kAttnBlockLen) return 1;
  // Oversubscribe ~3 chunks per worker: chunk costs vary (tail blocks,
  // page effects) and the pool assigns chunks dynamically.
  const std::int64_t s = (3 * threads + tasks - 1) / tasks;
  return static_cast<int>(
      std::clamp<std::int64_t>(s, 1, ComputeContext::kMaxAttnSplit));
}

/// Shared core of all four entry points: attention of `rows` query tokens
/// over their cache ranges, for local heads [0, heads) mapping to global
/// heads [head_begin, head_begin + heads). Tasks cover `tile_rows`
/// consecutive rows (a prefill chunk's rows, kv_len ascending, share one
/// sequence; decode rows run one per task).
void AttendRowsRanged(const LlamaConfig& config, const PagedKvCache& kv,
                      std::span<const RowInfo> rows, int tile_rows, int layer,
                      std::span<const float> q, std::span<float> out,
                      int head_begin, int heads, const ComputeContext& ctx,
                      std::vector<float>* scratch) {
  const SimdOps& ops = Simd();
  const int d = config.head_dim();
  PUNICA_CHECK(d <= kMaxAttnHeadDim);
  const int group = config.num_heads / config.num_kv_heads;
  const std::size_t width = static_cast<std::size_t>(heads) *
                            static_cast<std::size_t>(d);
  const std::size_t stride = kv.config().token_entry_elems();
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  const auto n_rows = static_cast<std::int64_t>(rows.size());
  const std::int64_t pairs = n_rows * heads;
  const std::int64_t n_tiles = (n_rows + tile_rows - 1) / tile_rows;

  std::int64_t max_kv_len = 0;
  for (const RowInfo& r : rows) max_kv_len = std::max(max_kv_len, r.kv_len);

  const auto head_off_of = [&](int local_head) {
    return static_cast<std::size_t>((head_begin + local_head) / group) *
           static_cast<std::size_t>(d);
  };
  const auto tile_of = [&](std::int64_t ti, const HeadSeg& seg) {
    const std::int64_t r0 = ti * tile_rows;
    return TileRows{
        rows.data() + r0,
        static_cast<int>(std::min<std::int64_t>(tile_rows, n_rows - r0)),
        q.data() + static_cast<std::size_t>(r0) * width +
            static_cast<std::size_t>(seg.lo) * d,
        width};
  };
  const auto blocks_of = [](std::int64_t kv_len) {
    return (kv_len + kAttnBlockLen - 1) / kAttnBlockLen;
  };

  // Head segments: maximal runs of local query heads sharing one KV head
  // (capped at kMaxSegHeads). Tasks are (tile, segment), so one task streams
  // each cache block once for its whole tile and GQA group. A rank's head
  // range need not be group-aligned — the first/last segments may be
  // partial groups.
  SmallBuffer<HeadSeg, 64> segs(static_cast<std::size_t>(heads));
  std::int64_t n_segs = 0;
  for (int lh = 0; lh < heads;) {
    const int gh = head_begin + lh;
    const int group_end = (gh / group + 1) * group - head_begin;
    const int hi = std::min({heads, group_end, lh + kMaxSegHeads});
    segs[static_cast<std::size_t>(n_segs++)] = {lh, hi};
    lh = hi;
  }
  const std::int64_t n_tasks = n_tiles * n_segs;

  const int S = PickSplit(ctx, n_tasks, max_kv_len);

  // Per-row block counts and per-tile chunk counts (min(S, blocks of the
  // tile's longest row)), as prefix sums so tasks and partial slots index
  // by flat offset.
  SmallBuffer<std::int64_t, kStackRows + 1> block_off;
  SmallBuffer<std::int64_t, kStackRows + 1> chunk_off;
  std::int64_t total_blocks = 0;
  std::int64_t total_chunks = 0;
  if (S > 1) {
    block_off.Resize(static_cast<std::size_t>(n_rows) + 1);
    chunk_off.Resize(static_cast<std::size_t>(n_tiles) + 1);
    block_off[0] = chunk_off[0] = 0;
    for (std::int64_t i = 0; i < n_rows; ++i) {
      total_blocks += blocks_of(rows[static_cast<std::size_t>(i)].kv_len);
      block_off[static_cast<std::size_t>(i) + 1] = total_blocks;
    }
    for (std::int64_t ti = 0; ti < n_tiles; ++ti) {
      const TileRows tile = tile_of(ti, segs[0]);
      total_chunks += std::min<std::int64_t>(
          S, blocks_of(tile.rows[tile.n - 1].kv_len));
      chunk_off[static_cast<std::size_t>(ti) + 1] = total_chunks;
    }
  }

  if (S <= 1 || total_chunks == n_tiles) {
    // One task per (tile, head segment) — the whole-range inline fold; each
    // out slice has exactly one writer.
    ctx.ParallelFor(n_tasks, 1, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t task = lo; task < hi; ++task) {
        const std::int64_t ti = task / n_segs;
        const HeadSeg seg = segs[static_cast<std::size_t>(task % n_segs)];
        AttendTileInline(
            ops, kv, tile_of(ti, seg), layer, seg, head_off_of(seg.lo),
            stride, d,
            out.data() + static_cast<std::size_t>(ti * tile_rows) * width +
                static_cast<std::size_t>(seg.lo) * d,
            width, scale);
      }
    });
    return;
  }

  // Split-KV: phase A computes every block's raw partial into workspace
  // scratch — never pre-folded, so the fold below is the same sequence the
  // inline path runs — and phase B folds them in ascending block order.
  // Partial slot layout: [total_blocks][heads][2 + d] floats (m, s, acc),
  // row i's blocks starting at block_off[i].
  const std::size_t slot_elems = static_cast<std::size_t>(d) + 2;
  const std::size_t need =
      static_cast<std::size_t>(total_blocks * heads) * slot_elems;
  SmallBuffer<float, 4096> local_partials;
  float* partials;
  if (scratch != nullptr) {
    if (scratch->size() < need) scratch->resize(need);
    partials = scratch->data();
  } else {
    local_partials.Resize(need);
    partials = local_partials.data();
  }

  ctx.ParallelFor(total_chunks * n_segs, 1, [&](std::int64_t lo,
                                                std::int64_t hi) {
    for (std::int64_t task = lo; task < hi; ++task) {
      const std::int64_t cg = task / n_segs;
      const HeadSeg seg = segs[static_cast<std::size_t>(task % n_segs)];
      const int n_h = seg.hi - seg.lo;
      // Tile containing global chunk cg: chunk_off[ti] <= cg < [ti + 1].
      const std::int64_t ti =
          std::upper_bound(chunk_off.data() + 1,
                           chunk_off.data() + n_tiles + 1, cg) -
          (chunk_off.data() + 1);
      const TileRows tile = tile_of(ti, seg);
      const auto ci = static_cast<std::size_t>(ti);
      const std::int64_t c = cg - chunk_off[ci];
      const std::int64_t blocks = blocks_of(tile.rows[tile.n - 1].kv_len);
      const std::int64_t chunks = chunk_off[ci + 1] - chunk_off[ci];
      const std::int64_t b_lo = c * blocks / chunks;
      const std::int64_t b_hi = (c + 1) * blocks / chunks;
      const std::size_t head_off = head_off_of(seg.lo);
      KvRunCursor kcur(kv, tile.rows[0].seq, layer, KvSlot::kKey, head_off);
      KvRunCursor vcur(kv, tile.rows[0].seq, layer, KvSlot::kValue,
                       head_off);
      TileScratch sc;
      for (std::int64_t b = b_lo; b < b_hi; ++b) {
        const int first =
            ComputeTileBlock(ops, kcur, vcur, tile, n_h, head_off, stride, d,
                             b * kAttnBlockLen, scale, sc);
        for (int r = first; r < tile.n; ++r) {
          const auto row = static_cast<std::size_t>(ti * tile_rows + r);
          float* slot0 = partials + (static_cast<std::size_t>(
                                         block_off[row] + b) *
                                         static_cast<std::size_t>(heads) +
                                     static_cast<std::size_t>(seg.lo)) *
                                        slot_elems;
          std::copy_n(sc.partial + static_cast<std::size_t>(r - first) *
                                       static_cast<std::size_t>(n_h) *
                                       slot_elems,
                      static_cast<std::size_t>(n_h) * slot_elems, slot0);
        }
      }
    }
  });

  ctx.ParallelFor(pairs, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t task = lo; task < hi; ++task) {
      const auto ri = static_cast<std::size_t>(task / heads);
      const int lh = static_cast<int>(task % heads);
      float* out_head =
          out.data() + ri * width + static_cast<std::size_t>(lh) * d;
      std::fill(out_head, out_head + d, 0.0f);
      float m = -INFINITY;
      float s = 0.0f;
      const std::int64_t blocks = block_off[ri + 1] - block_off[ri];
      for (std::int64_t b = 0; b < blocks; ++b) {
        const float* slot_p =
            partials + (static_cast<std::size_t>(block_off[ri] + b) *
                            static_cast<std::size_t>(heads) +
                        static_cast<std::size_t>(lh)) *
                           slot_elems;
        FoldBlock(slot_p[0], slot_p[1], slot_p + 2, d, &m, &s, out_head);
      }
      NormalizeOut(s, d, out_head);
    }
  });
}

void CheckRange(const LlamaConfig& config, int head_begin, int head_end) {
  PUNICA_CHECK(config.num_heads % config.num_kv_heads == 0);
  PUNICA_CHECK(head_begin >= 0);
  PUNICA_CHECK(head_end > head_begin);
  PUNICA_CHECK(head_end <= config.num_heads);
}

}  // namespace

void BatchPrefillAttentionRanged(const LlamaConfig& config,
                                 const PagedKvCache& kv, SeqId seq, int layer,
                                 std::int64_t pos_offset,
                                 std::span<const float> q,
                                 std::span<float> out, int head_begin,
                                 int head_end, const ComputeContext& ctx,
                                 std::vector<float>* scratch) {
  CheckRange(config, head_begin, head_end);
  const int heads = head_end - head_begin;
  const std::size_t width = static_cast<std::size_t>(heads) *
                            static_cast<std::size_t>(config.head_dim());
  PUNICA_CHECK(q.size() % width == 0);
  PUNICA_CHECK(q.size() == out.size());
  const auto chunk_len = static_cast<std::int64_t>(q.size() / width);
  PUNICA_CHECK(kv.SeqLen(seq) >= pos_offset + chunk_len);
  SmallBuffer<RowInfo, kStackRows> rows(static_cast<std::size_t>(chunk_len));
  for (std::int64_t j = 0; j < chunk_len; ++j) {
    rows[static_cast<std::size_t>(j)] = {seq, pos_offset + j + 1};  // causal
  }
  AttendRowsRanged(config, kv, {rows.data(), rows.size()}, kAttnTileRows,
                   layer, q, out, head_begin, heads, ctx, scratch);
}

void BatchDecodeAttentionRanged(const LlamaConfig& config,
                                const PagedKvCache& kv,
                                std::span<const SeqId> seqs, int layer,
                                std::span<const float> q, std::span<float> out,
                                int head_begin, int head_end,
                                const ComputeContext& ctx,
                                std::vector<float>* scratch) {
  CheckRange(config, head_begin, head_end);
  const int heads = head_end - head_begin;
  const std::size_t width = static_cast<std::size_t>(heads) *
                            static_cast<std::size_t>(config.head_dim());
  PUNICA_CHECK(q.size() == seqs.size() * width);
  PUNICA_CHECK(q.size() == out.size());
  // Resolve each row's cache length once, not once per (row, head) task.
  SmallBuffer<RowInfo, kStackRows> rows(seqs.size());
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    rows[i] = {seqs[i], kv.SeqLen(seqs[i])};
    PUNICA_CHECK(rows[i].kv_len > 0);
  }
  AttendRowsRanged(config, kv, {rows.data(), rows.size()}, /*tile_rows=*/1,
                   layer, q, out, head_begin, heads, ctx, scratch);
}

void BatchPrefillAttention(const LlamaConfig& config, const PagedKvCache& kv,
                           SeqId seq, int layer, std::int64_t pos_offset,
                           std::span<const float> q, std::span<float> out,
                           const ComputeContext& ctx,
                           std::vector<float>* scratch) {
  BatchPrefillAttentionRanged(config, kv, seq, layer, pos_offset, q, out, 0,
                              config.num_heads, ctx, scratch);
}

void BatchDecodeAttention(const LlamaConfig& config, const PagedKvCache& kv,
                          std::span<const SeqId> seqs, int layer,
                          std::span<const float> q, std::span<float> out,
                          const ComputeContext& ctx,
                          std::vector<float>* scratch) {
  BatchDecodeAttentionRanged(config, kv, seqs, layer, q, out, 0,
                             config.num_heads, ctx, scratch);
}

}  // namespace punica
