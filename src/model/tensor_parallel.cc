#include "model/tensor_parallel.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "model/attention.h"
#include "model/rope.h"
#include "tensor/gemm.h"
#include "util/check.h"
#include "util/small_buffer.h"

namespace punica {

LlamaConfig RankConfig(const LlamaConfig& config, int tp) {
  PUNICA_CHECK(tp >= 1);
  PUNICA_CHECK_MSG(config.num_heads % tp == 0, "heads must divide tp");
  PUNICA_CHECK_MSG(config.num_kv_heads % tp == 0, "kv heads must divide tp");
  PUNICA_CHECK_MSG(config.ffn_hidden % tp == 0, "ffn must divide tp");
  LlamaConfig rank = config;
  rank.num_heads = config.num_heads / tp;
  rank.num_kv_heads = config.num_kv_heads / tp;
  rank.ffn_hidden = config.ffn_hidden / tp;
  // hidden_size stays global: inputs are replicated, outputs reduced.
  return rank;
}

TpShardedLayer ShardLayer(const LlamaConfig& config, const LayerWeights& full,
                          int tp) {
  RankConfig(config, tp);  // validates divisibility
  // Shards are sliced from f16 MASTER weights and quantized per shard
  // afterwards. Slicing quantized blocks directly would be lossy anyway
  // (dequant→f16 re-rounds d·q), and post-slice quantization keeps each
  // rank's block boundaries local to its own columns.
  PUNICA_CHECK_MSG(
      full.proj[0].dtype() == WeightDtype::kF16,
      "ShardLayer slices f16 master weights; shards are quantized "
      "to config.weight_dtype after the slice");
  const auto quantize = [&config](WeightMatrix sliced) {
    if (config.weight_dtype == WeightDtype::kF16) return sliced;
    return sliced.Requantize(config.weight_dtype);
  };
  TpShardedLayer sharded;
  int d = config.head_dim();
  std::int64_t q_cols = static_cast<std::int64_t>(config.num_heads / tp) * d;
  std::int64_t kv_cols =
      static_cast<std::int64_t>(config.num_kv_heads / tp) * d;
  std::int64_t f_cols = config.ffn_hidden / tp;
  for (int r = 0; r < tp; ++r) {
    LayerWeights shard;
    shard.proj[static_cast<int>(Proj::kQ)] =
        quantize(full.proj[static_cast<int>(Proj::kQ)].SliceCols(
            r * q_cols, (r + 1) * q_cols));
    shard.proj[static_cast<int>(Proj::kK)] =
        quantize(full.proj[static_cast<int>(Proj::kK)].SliceCols(
            r * kv_cols, (r + 1) * kv_cols));
    shard.proj[static_cast<int>(Proj::kV)] =
        quantize(full.proj[static_cast<int>(Proj::kV)].SliceCols(
            r * kv_cols, (r + 1) * kv_cols));
    shard.proj[static_cast<int>(Proj::kO)] =
        quantize(full.proj[static_cast<int>(Proj::kO)].SliceRows(
            r * q_cols, (r + 1) * q_cols));
    shard.proj[static_cast<int>(Proj::kGate)] =
        quantize(full.proj[static_cast<int>(Proj::kGate)].SliceCols(
            r * f_cols, (r + 1) * f_cols));
    shard.proj[static_cast<int>(Proj::kUp)] =
        quantize(full.proj[static_cast<int>(Proj::kUp)].SliceCols(
            r * f_cols, (r + 1) * f_cols));
    shard.proj[static_cast<int>(Proj::kDown)] =
        quantize(full.proj[static_cast<int>(Proj::kDown)].SliceRows(
            r * f_cols, (r + 1) * f_cols));
    shard.attn_norm = full.attn_norm;  // replicated
    shard.mlp_norm = full.mlp_norm;
    sharded.ranks.push_back(std::move(shard));
  }
  return sharded;
}

TpShardedLora ShardLoraModel(const LlamaConfig& config,
                             const LoraModelWeights& full, int tp) {
  RankConfig(config, tp);  // validates divisibility of the dense seams
  TpShardedLora sharded;
  sharded.tp = tp;
  sharded.rank = full.rank;
  const int d = config.head_dim();
  const std::int64_t q_cols =
      static_cast<std::int64_t>(config.num_heads / tp) * d;
  const std::int64_t kv_cols =
      static_cast<std::int64_t>(config.num_kv_heads / tp) * d;
  const std::int64_t f_cols = config.ffn_hidden / tp;
  // Column-parallel seam: B column-sliced to the rank's output columns,
  // A shared — every rank's LoraAB aliases the one allocation, and the
  // layer runs its h_in→r shrink once per row for all ranks.
  const auto col_shard = [](const LoraAB& ab, std::int64_t b, std::int64_t e) {
    LoraAB out;
    out.rank = ab.rank;
    out.h_in = ab.h_in;
    out.h_out = static_cast<int>(e - b);
    out.a = ab.a;  // aliased, not copied
    out.b = SliceCols(ab.b.tensor(), b, e);
    return out;
  };
  // Row-parallel seam: A row-sliced to match the rank's dense input rows,
  // B shared; the delta sums across ranks inside the existing all-reduce
  // (Σ_r x_r·A_r·B = x·A·B).
  const auto row_shard = [](const LoraAB& ab, std::int64_t b, std::int64_t e) {
    LoraAB out;
    out.rank = ab.rank;
    out.h_in = static_cast<int>(e - b);
    out.h_out = ab.h_out;
    out.a = SliceRows(ab.a.tensor(), b, e);
    out.b = ab.b;  // aliased, not copied
    return out;
  };
  for (int r = 0; r < tp; ++r) {
    LoraModelWeights rank_w;
    rank_w.rank = full.rank;
    rank_w.layers.reserve(full.layers.size());
    for (const LoraLayerWeights& layer : full.layers) {
      LoraLayerWeights lw;
      lw.proj[static_cast<int>(Proj::kQ)] = col_shard(
          layer.proj[static_cast<int>(Proj::kQ)], r * q_cols, (r + 1) * q_cols);
      lw.proj[static_cast<int>(Proj::kK)] =
          col_shard(layer.proj[static_cast<int>(Proj::kK)], r * kv_cols,
                    (r + 1) * kv_cols);
      lw.proj[static_cast<int>(Proj::kV)] =
          col_shard(layer.proj[static_cast<int>(Proj::kV)], r * kv_cols,
                    (r + 1) * kv_cols);
      lw.proj[static_cast<int>(Proj::kO)] = row_shard(
          layer.proj[static_cast<int>(Proj::kO)], r * q_cols, (r + 1) * q_cols);
      lw.proj[static_cast<int>(Proj::kGate)] =
          col_shard(layer.proj[static_cast<int>(Proj::kGate)], r * f_cols,
                    (r + 1) * f_cols);
      lw.proj[static_cast<int>(Proj::kUp)] =
          col_shard(layer.proj[static_cast<int>(Proj::kUp)], r * f_cols,
                    (r + 1) * f_cols);
      lw.proj[static_cast<int>(Proj::kDown)] =
          row_shard(layer.proj[static_cast<int>(Proj::kDown)], r * f_cols,
                    (r + 1) * f_cols);
      rank_w.layers.push_back(std::move(lw));
    }
    sharded.ranks.push_back(std::move(rank_w));
  }
  return sharded;
}

std::size_t TpShardedLora::byte_size() const {
  std::unordered_set<const f16*> seen;
  std::size_t total = 0;
  const auto add = [&](const SharedTensor<f16>& t) {
    if (seen.insert(t.raw()).second) total += t.numel() * sizeof(f16);
  };
  for (const LoraModelWeights& r : ranks) {
    for (const LoraLayerWeights& l : r.layers) {
      for (const LoraAB& ab : l.proj) {
        add(ab.a);
        add(ab.b);
      }
    }
  }
  return total;
}

void TpWorkspace::Resize(const LlamaConfig& config, int tp, int tokens,
                         int max_rank) {
  const auto t = static_cast<std::size_t>(tokens);
  const auto h = static_cast<std::size_t>(config.hidden_size);
  const auto d = static_cast<std::size_t>(config.head_dim());
  const auto p = static_cast<std::size_t>(tp);
  const std::size_t q_w = static_cast<std::size_t>(config.num_heads / tp) * d;
  const std::size_t kv_w =
      static_cast<std::size_t>(config.num_kv_heads / tp) * d;
  const std::size_t f_pr = static_cast<std::size_t>(config.ffn_hidden / tp);
  auto grow = [](std::vector<float>& v, std::size_t n) {
    if (v.size() < n) v.resize(n);
  };
  grow(normed, t * h);
  grow(arena, p * t * std::max(2 * q_w + 2 * kv_w, 2 * f_pr));
  grow(partial, p * t * h);
  // One split-KV attention scratch per rank (grown on demand by the
  // attention kernels): concurrent ranks must never share partial buffers.
  if (attn_scratch.size() < p) attn_scratch.resize(p);
  // One SGMV workspace per rank for the row-parallel seams' addons (v rows
  // + split-K partials, the BatchedLoraAddon contract), so concurrent ranks
  // never share the shrink buffer and the addon never allocates in the
  // forward hot path; the column seams' shared shrinks fill three v slots.
  if (lora_tmp.size() < p) lora_tmp.resize(p);
  const auto r = static_cast<std::size_t>(std::max(max_rank, 1));
  grow(lora_v, 3 * t * r);
  const std::size_t lt =
      t * r * (1 + static_cast<std::size_t>(kMaxSplitKPartitions));
  for (auto& per_rank : lora_tmp) {
    if (per_rank.size() < lt) per_rank.resize(lt);
  }
}

namespace {

/// The one transformer-layer body, over tp = ranks.size() rank shards
/// (LayerForward passes one full layer). `lora_of(seg, r)` is rank r's
/// adapter model for batch segment seg (nullptr = backbone only).
template <typename LoraOf>
void ForwardRanks(const LlamaConfig& config,
                  std::span<const LayerWeights> ranks, const LoraOf& lora_of,
                  const ModelBatch& batch, int layer_idx, PagedKvCache& kv,
                  std::span<float> x, TpWorkspace& ws,
                  const ComputeContext& ctx,
                  std::span<const ComputeContext* const> rank_ctxs,
                  const RopeTable* rope) {
  const int tp = static_cast<int>(ranks.size());
  const int tokens = batch.total_tokens();
  const auto h = static_cast<std::size_t>(config.hidden_size);
  PUNICA_CHECK(tp >= 1);
  PUNICA_CHECK(x.size() == static_cast<std::size_t>(tokens) * h);
  const bool concurrent = !rank_ctxs.empty();
  if (concurrent) {
    PUNICA_CHECK(static_cast<int>(rank_ctxs.size()) == tp);
  }
  const auto num_segs =
      static_cast<std::size_t>(batch.segments.num_segments());
  bool any_lora = false;
  int max_rank = 1;
  for (std::size_t i = 0; i < num_segs; ++i) {
    if (const LoraModelWeights* l = lora_of(i, 0)) {
      any_lora = true;
      max_rank = std::max(max_rank, l->rank);
    }
  }
  const int d = config.head_dim();
  const int heads_pr = config.num_heads / tp;
  const int kv_heads_pr = config.num_kv_heads / tp;
  const int f_pr = config.ffn_hidden / tp;
  const auto q_w = static_cast<std::size_t>(heads_pr) *
                   static_cast<std::size_t>(d);
  const auto kv_w = static_cast<std::size_t>(kv_heads_pr) *
                    static_cast<std::size_t>(d);
  ws.Resize(config, tp, tokens, max_rank);

  const std::size_t q_stride = static_cast<std::size_t>(tokens) * q_w;
  const std::size_t kv_stride = static_cast<std::size_t>(tokens) * kv_w;
  const std::size_t f_stride =
      static_cast<std::size_t>(tokens) * static_cast<std::size_t>(f_pr);
  const std::size_t h_stride = static_cast<std::size_t>(tokens) * h;
  const std::span<float> normed(ws.normed.data(), h_stride);
  RopeTable local_rope;
  if (rope == nullptr) {
    local_rope.Build(batch.row_pos, d, config.rope_theta, ctx);
    rope = &local_rope;
  }

  // Rank r's adapters for one projection, one per batch segment (nullptr =
  // backbone only).
  using SegAdapters = SmallBuffer<const LoraAB*, kInlineLoraSegments>;
  const auto gather = [&](int r, Proj proj, SegAdapters& out) {
    out.Resize(num_segs);
    for (std::size_t i = 0; i < num_segs; ++i) {
      const LoraModelWeights* l = lora_of(i, static_cast<std::size_t>(r));
      out[i] = l == nullptr ? nullptr
                            : &l->layers[static_cast<std::size_t>(layer_idx)]
                                   .proj[static_cast<int>(proj)];
    }
  };
  // Row-parallel seams (O/Down): rank r's batched SGMV addon y += x_r·A_r·B
  // over the batch's unchanged segment grouping, through rank r's private
  // workspace, into the rank's pre-all-reduce partial — so the reduce
  // folds the adapter delta alongside the dense partials.
  const auto lora_addon = [&](int r, Proj proj, std::span<const float> in,
                              std::span<float> out, int h_in, int h_out,
                              const ComputeContext& rctx) {
    if (!any_lora) return;
    SegAdapters adapters;
    gather(r, proj, adapters);
    BatchedLoraAddon(out, in, {adapters.data(), adapters.size()},
                     batch.segments.offsets, h_in, h_out,
                     ws.lora_tmp[static_cast<std::size_t>(r)], rctx);
  };
  // Column-parallel seams (Q/K/V, Gate/Up): every rank's A is the one
  // shared allocation and the input is the shared normed rows, so the
  // shrink v = x·A runs once per row, inside the row-split region that
  // norms the row, into seam slot `slot` of ws.lora_v. Each rank then only
  // expands v through its own B slice into its output columns.
  const auto lora_v = [&](int slot) {
    const std::size_t n = static_cast<std::size_t>(tokens) *
                          static_cast<std::size_t>(max_rank);
    return std::span<float>(ws.lora_v).subspan(
        static_cast<std::size_t>(slot) * n, n);
  };
  const auto lora_shrink_rows = [&](const SegAdapters& adapters, int slot,
                                    std::int64_t lo, std::int64_t hi) {
    LoraShrinkRows(lora_v(slot), normed, {adapters.data(), adapters.size()},
                   batch.segments.offsets, config.hidden_size, max_rank, lo,
                   hi);
  };
  const auto lora_expand = [&](int r, Proj proj, int slot,
                               std::span<float> out, int h_out,
                               const ComputeContext& rctx) {
    if (!any_lora) return;
    SegAdapters adapters;
    gather(r, proj, adapters);
    LoraExpand(out, lora_v(slot), {adapters.data(), adapters.size()},
               batch.segments.offsets, h_out, max_rank, rctx);
  };

  // Runs rank_fn(r, rank_ctx) for every rank: concurrently on disjoint
  // worker groups, or as a plain serial loop on the root context. Both
  // paths execute the identical per-element fp32 expression — ranks write
  // disjoint workspace slices and meet only at the reduce below — so the
  // modes are bit-identical by construction.
  const auto for_each_rank = [&](const auto& rank_fn) {
    if (concurrent) {
      ctx.RunGroupTasks(tp, [&](int r) {
        rank_fn(r, *rank_ctxs[static_cast<std::size_t>(r)]);
      });
    } else {
      for (int r = 0; r < tp; ++r) rank_fn(r, ctx);
    }
  };

  // The deterministic all-reduce of token rows [lo, hi): per-rank partials
  // sum into the residual stream in fixed ascending rank order, whatever
  // order the ranks *finished* in (a deterministic stand-in for NCCL's
  // fixed ring order). Per element acc = partial_0 + partial_1 + …, then
  // x += acc, in 256-element strips so each pass is a plain vectorizable
  // loop.
  const auto reduce_rows = [&](std::int64_t lo, std::int64_t hi) {
    constexpr std::size_t kStrip = 256;
    float acc[kStrip];
    const auto end = static_cast<std::size_t>(hi) * h;
    for (auto b = static_cast<std::size_t>(lo) * h; b < end; b += kStrip) {
      const std::size_t n = std::min(kStrip, end - b);
      std::copy_n(ws.partial.data() + b, n, acc);
      for (int r = 1; r < tp; ++r) {
        const float* p = ws.partial.data() + static_cast<std::size_t>(r) *
                                                 h_stride + b;
        for (std::size_t i = 0; i < n; ++i) acc[i] += p[i];
      }
      for (std::size_t i = 0; i < n; ++i) x[b + i] += acc[i];
    }
  };
  const auto norm_rows = [&](const Tensor<f16>& weight, std::int64_t lo,
                             std::int64_t hi) {
    const auto b = static_cast<std::size_t>(lo) * h;
    const auto e = static_cast<std::size_t>(hi) * h;
    RmsNormRows(x.subspan(b, e - b), weight.data(), normed.subspan(b, e - b),
                config.rms_eps);
  };

  // Rank r's slice of an arena region: the region starts tp·offset floats
  // in and holds tp slices of `stride` floats. The attention block lays
  // q/k/v/attn_out over the one arena and the MLP block lays gate/up over
  // it. A block's start is where the other block's views die, so debug
  // builds poison the arena there.
  const auto arena_view = [&](std::size_t offset, std::size_t stride,
                              std::size_t r) {
    return std::span<float>(ws.arena).subspan(
        offset * static_cast<std::size_t>(tp) + r * stride, stride);
  };
  const auto start_phase = [&] {
#ifndef NDEBUG
    std::fill(ws.arena.begin(), ws.arena.end(),
              std::numeric_limits<float>::quiet_NaN());
#endif
  };

  // --- Attention block --- (the Q/K/V shrinks in the norm's region: a
  // row is shrunk right after it is normed)
  start_phase();
  SegAdapters col_a[3];
  if (any_lora) {
    gather(0, Proj::kQ, col_a[0]);
    gather(0, Proj::kK, col_a[1]);
    gather(0, Proj::kV, col_a[2]);
  }
  ctx.ParallelFor(tokens, 1, [&](std::int64_t lo, std::int64_t hi) {
    norm_rows(ranks[0].attn_norm, lo, hi);
    if (!any_lora) return;
    for (int slot = 0; slot < 3; ++slot) {
      lora_shrink_rows(col_a[slot], slot, lo, hi);
    }
  });

  for_each_rank([&](int r, const ComputeContext& rctx) {
    const auto ur = static_cast<std::size_t>(r);
    const LayerWeights& shard = ranks[ur];
    const std::span<float> q = arena_view(0, q_stride, ur);
    const std::span<float> k = arena_view(q_stride, kv_stride, ur);
    const std::span<float> v =
        arena_view(q_stride + kv_stride, kv_stride, ur);
    const std::span<float> attn_out =
        arena_view(q_stride + 2 * kv_stride, q_stride, ur);
    const std::span<float> partial(ws.partial.data() + ur * h_stride,
                                   h_stride);
    GemmSetW(normed, shard.proj[static_cast<int>(Proj::kQ)], q, tokens,
             config.hidden_size, heads_pr * d, rctx);
    GemmSetW(normed, shard.proj[static_cast<int>(Proj::kK)], k, tokens,
             config.hidden_size, kv_heads_pr * d, rctx);
    GemmSetW(normed, shard.proj[static_cast<int>(Proj::kV)], v, tokens,
             config.hidden_size, kv_heads_pr * d, rctx);
    // Column-parallel LoRA: expand the shared shrink through this rank's
    // B slice — the addon lands before RoPE.
    lora_expand(r, Proj::kQ, 0, q, heads_pr * d, rctx);
    lora_expand(r, Proj::kK, 1, k, kv_heads_pr * d, rctx);
    lora_expand(r, Proj::kV, 2, v, kv_heads_pr * d, rctx);

    // RoPE on this rank's heads; write this rank's KV slice of each entry
    // (disjoint across ranks, so concurrent ranks never share a writer).
    rctx.ParallelFor(tokens, 1, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t t = lo; t < hi; ++t) {
        const auto row = static_cast<std::size_t>(t);
        std::int64_t pos = batch.row_pos[row];
        rope->Apply(row, q.subspan(row * q_w, q_w), heads_pr);
        rope->Apply(row, k.subspan(row * kv_w, kv_w), kv_heads_pr);
        SeqId seq = batch.row_seq[static_cast<std::size_t>(t)];
        auto k_entry = kv.Entry(seq, layer_idx, pos, KvSlot::kKey);
        auto v_entry = kv.Entry(seq, layer_idx, pos, KvSlot::kValue);
        std::size_t off = ur * kv_w;
        FloatToHalfN(std::span<const float>(k).subspan(
                         static_cast<std::size_t>(t) * kv_w, kv_w),
                     k_entry.subspan(off, kv_w));
        FloatToHalfN(std::span<const float>(v).subspan(
                         static_cast<std::size_t>(t) * kv_w, kv_w),
                     v_entry.subspan(off, kv_w));
      }
    });

    // Attention over this rank's query heads (no communication needed).
    int head_begin = r * heads_pr;
    int head_end = head_begin + heads_pr;
    std::size_t row = 0;
    for (const auto& e : batch.entries) {
      if (!e.is_prefill) break;
      auto chunk = static_cast<std::size_t>(e.num_tokens);
      BatchPrefillAttentionRanged(
          config, kv, e.seq, layer_idx, e.pos_offset,
          std::span<const float>(q).subspan(row * q_w, chunk * q_w),
          attn_out.subspan(row * q_w, chunk * q_w), head_begin, head_end,
          rctx, &ws.attn_scratch[ur]);
      row += chunk;
    }
    if (!batch.decode_seqs.empty()) {
      auto n_dec = batch.decode_seqs.size();
      BatchDecodeAttentionRanged(
          config, kv, batch.decode_seqs, layer_idx,
          std::span<const float>(q).subspan(row * q_w, n_dec * q_w),
          attn_out.subspan(row * q_w, n_dec * q_w), head_begin, head_end,
          rctx, &ws.attn_scratch[ur]);
    }

    // Row-parallel O projection: this rank's partial [tokens, h]. The LoRA
    // delta (A row-sliced, B replicated) adds into the partial, so the
    // fixed-rank-order all-reduce folds it with the dense partials.
    GemmSetW(attn_out, shard.proj[static_cast<int>(Proj::kO)], partial,
             tokens, heads_pr * d, config.hidden_size, rctx);
    lora_addon(r, Proj::kO, attn_out, partial, heads_pr * d,
               config.hidden_size, rctx);
  });

  // --- MLP block --- (its norm and the Gate/Up shrinks in the same
  // region as the attention block's all-reduce: a row is normed right
  // after it is summed, and shrunk right after it is normed; the shrinks
  // reuse seam slots 0 and 1, whose Q/K rows the attention ranks are done
  // with)
  start_phase();
  if (any_lora) {
    gather(0, Proj::kGate, col_a[0]);
    gather(0, Proj::kUp, col_a[1]);
  }
  ctx.ParallelFor(tokens, 1, [&](std::int64_t lo, std::int64_t hi) {
    reduce_rows(lo, hi);
    norm_rows(ranks[0].mlp_norm, lo, hi);
    if (!any_lora) return;
    lora_shrink_rows(col_a[0], 0, lo, hi);
    lora_shrink_rows(col_a[1], 1, lo, hi);
  });
  for_each_rank([&](int r, const ComputeContext& rctx) {
    const auto ur = static_cast<std::size_t>(r);
    const LayerWeights& shard = ranks[ur];
    const std::span<float> gate = arena_view(0, f_stride, ur);
    const std::span<float> up = arena_view(f_stride, f_stride, ur);
    const std::span<float> partial(ws.partial.data() + ur * h_stride,
                                   h_stride);
    GemmSetW(normed, shard.proj[static_cast<int>(Proj::kGate)], gate, tokens,
             config.hidden_size, f_pr, rctx);
    GemmSetW(normed, shard.proj[static_cast<int>(Proj::kUp)], up, tokens,
             config.hidden_size, f_pr, rctx);
    // Column-parallel LoRA on the FFN seams, before the SwiGLU nonlinearity.
    lora_expand(r, Proj::kGate, 0, gate, f_pr, rctx);
    lora_expand(r, Proj::kUp, 1, up, f_pr, rctx);
    SiluMulInPlace(gate, up, rctx);
    // Row-parallel Down projection: this rank's partial [tokens, h]; the
    // LoRA delta folds through the second all-reduce like O above.
    GemmSetW(gate, shard.proj[static_cast<int>(Proj::kDown)], partial,
             tokens, f_pr, config.hidden_size, rctx);
    lora_addon(r, Proj::kDown, gate, partial, f_pr, config.hidden_size,
               rctx);
  });
  // Rows per chunk: a step of ≤ 2048 elements (a few decode rows) reduces
  // inline.
  const auto reduce_grain = static_cast<std::int64_t>((2048 + h - 1) / h);
  ctx.ParallelFor(tokens, reduce_grain, reduce_rows);
}

}  // namespace

void LayerForward(const LlamaConfig& config, const LayerWeights& weights,
                  std::span<const LoraModelWeights* const> seg_lora,
                  const ModelBatch& batch, int layer, PagedKvCache& kv,
                  std::span<float> x, LayerWorkspace& ws,
                  const ComputeContext& ctx, const RopeTable* rope) {
  PUNICA_CHECK(seg_lora.size() ==
               static_cast<std::size_t>(batch.segments.num_segments()));
  ForwardRanks(
      config, std::span<const LayerWeights>(&weights, 1),
      [&](std::size_t seg, std::size_t) { return seg_lora[seg]; }, batch,
      layer, kv, x, ws, ctx, {}, rope);
}

void TpLayerForward(const LlamaConfig& config, const TpShardedLayer& layer,
                    const ModelBatch& batch, int layer_idx, PagedKvCache& kv,
                    std::span<float> x, TpWorkspace& ws,
                    const ComputeContext& ctx,
                    std::span<const ComputeContext* const> rank_ctxs,
                    std::span<const TpShardedLora* const> seg_lora,
                    const RopeTable* rope) {
  if (!seg_lora.empty()) {
    PUNICA_CHECK(seg_lora.size() ==
                 static_cast<std::size_t>(batch.segments.num_segments()));
    for (const TpShardedLora* l : seg_lora) {
      PUNICA_CHECK_MSG(
          l == nullptr || l->tp == static_cast<int>(layer.ranks.size()),
          "LoRA shards were built for a different tp degree");
    }
  }
  ForwardRanks(
      config, layer.ranks,
      [&](std::size_t seg, std::size_t r) -> const LoraModelWeights* {
        const TpShardedLora* l = seg_lora.empty() ? nullptr : seg_lora[seg];
        return l == nullptr ? nullptr : &l->ranks[r];
      },
      batch, layer_idx, kv, x, ws, ctx, rank_ctxs, rope);
}

void TpLayerForward(const LlamaConfig& config, const TpShardedLayer& layer,
                    const ModelBatch& batch, int layer_idx, PagedKvCache& kv,
                    std::span<float> x, const ComputeContext& ctx,
                    std::span<const TpShardedLora* const> seg_lora) {
  TpWorkspace ws;
  TpLayerForward(config, layer, batch, layer_idx, kv, x, ws, ctx, {},
                 seg_lora);
}

std::int64_t RankLayerBytes(const LlamaConfig& config, int tp) {
  RankConfig(config, tp);
  return config.layer_weight_bytes() / tp +
         static_cast<std::int64_t>(config.hidden_size) * 2 * 2;  // norms
}

}  // namespace punica
