// Batched attention over the paged KvCache — the FlashInfer-style interface
// the paper uses (§6): a BatchPrefill kernel for the leading prefill tokens
// (causal within the prompt) and a BatchDecode kernel for the trailing
// decode tokens (each attends over its sequence's full cache), with no
// padding anywhere. GQA is supported (query-head groups share a KV head).
//
// Execution (flash-decoding over page runs): the KV range of every
// (token, head) pair is evaluated as ascending fixed-length blocks of
// kAttnBlockLen positions. Each block's softmax partial (max, normaliser,
// unnormalised V accumulator) is computed in two passes over the block's
// contiguous page runs (KvRunCursor + the SimdOps strip entries), and the
// partials fold left-to-right in ascending block order. Because the block
// structure is anchored at absolute position 0 and the fold order is fixed,
// the result is bit-identical whether blocks are folded inline or computed
// by S parallel split-KV chunks and folded afterwards — at any thread
// count, split size and SIMD level. Tasks group the GQA query heads that
// share a KV head, and a prefill chunk's tasks also group kAttnTileRows
// consecutive query rows: each block goes through one SimdOps::attn_tile
// call per task, which decodes every K/V entry once for the whole tile
// and gives each (row, head) exactly the partial its row alone would get.
// A work-size heuristic picks the split from the task count vs. the
// context's worker count (ComputeConfig::attn_split / PUNICA_ATTN_SPLIT
// force it).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "kvcache/kvcache.h"
#include "model/config.h"
#include "util/compute_context.h"

namespace punica {

/// Fixed softmax block length (cache positions per partial). Part of the
/// numerics contract: attention is always evaluated as ascending blocks of
/// this length folded left-to-right, independent of split size and thread
/// count — which is what makes split-KV bit-deterministic. Changing it
/// changes streams.
inline constexpr std::int64_t kAttnBlockLen = 128;

/// Largest head_dim the kernels' fixed per-task scratch covers.
inline constexpr int kMaxAttnHeadDim = 256;

/// Attention for one prefill request chunk.
/// `q` is [chunk_len, num_heads·head_dim] with RoPE already applied.
/// K/V for positions [0, pos_offset + chunk_len) must already be in the
/// cache; token j of the chunk attends causally over [0, pos_offset + j].
/// Output overwrites `out` ([chunk_len, num_heads·head_dim]).
/// `scratch` (optional, grown on demand) holds split-KV partials so the
/// steady-state hot path never allocates; null falls back to call-local
/// SmallBuffer storage.
void BatchPrefillAttention(const LlamaConfig& config, const PagedKvCache& kv,
                           SeqId seq, int layer, std::int64_t pos_offset,
                           std::span<const float> q, std::span<float> out,
                           const ComputeContext& ctx =
                               ComputeContext::Default(),
                           std::vector<float>* scratch = nullptr);

/// Attention for a batch of decode tokens: row i of `q` belongs to seqs[i]
/// and attends over that sequence's entire cache [0, SeqLen). Output rows
/// align with input rows.
void BatchDecodeAttention(const LlamaConfig& config, const PagedKvCache& kv,
                          std::span<const SeqId> seqs, int layer,
                          std::span<const float> q, std::span<float> out,
                          const ComputeContext& ctx =
                              ComputeContext::Default(),
                          std::vector<float>* scratch = nullptr);

/// Head-ranged variants for tensor parallelism: the caller owns query heads
/// [head_begin, head_end) and `q`/`out` are [..., (head_end−head_begin)·D]
/// slices. KV heads are addressed globally (head/group), so ranks read
/// their slice of the shared cache layout.
void BatchPrefillAttentionRanged(const LlamaConfig& config,
                                 const PagedKvCache& kv, SeqId seq, int layer,
                                 std::int64_t pos_offset,
                                 std::span<const float> q,
                                 std::span<float> out, int head_begin,
                                 int head_end,
                                 const ComputeContext& ctx =
                                     ComputeContext::Default(),
                                 std::vector<float>* scratch = nullptr);
void BatchDecodeAttentionRanged(const LlamaConfig& config,
                                const PagedKvCache& kv,
                                std::span<const SeqId> seqs, int layer,
                                std::span<const float> q, std::span<float> out,
                                int head_begin, int head_end,
                                const ComputeContext& ctx =
                                    ComputeContext::Default(),
                                std::vector<float>* scratch = nullptr);

}  // namespace punica
