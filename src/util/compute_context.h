// ComputeContext — the deterministic parallel compute substrate every
// numeric-tier kernel runs on.
//
// A context owns one persistent ThreadPool; GEMM, SGMV, attention and the
// layer/model loops take a context (defaulting to the process-wide
// ComputeContext::Default()) and express their parallelism through
// ParallelFor. LlamaModel captures a context at construction, so every
// Engine/EngineBackend sharing that model shares one pool.
//
// Thread-count resolution (ResolveThreadCount):
//   explicit config  >  PUNICA_THREADS env  >  hardware_concurrency.
//
// Tensor parallelism: Split(k) partitions the pool's threads into k
// disjoint worker groups and returns k *view* contexts, one pinned to each
// group. RunGroupTasks(k, fn) runs fn(rank) concurrently with rank r's
// ParallelFors confined to group r, so k TP ranks execute simultaneously
// without sharing threads. Views borrow the root context's pool: they must
// not outlive it, and Split only re-points the partition (calling it while
// regions are in flight is a caller error).
//
// Determinism contract: kernels partition work so each output element is
// computed by exactly one worker with a fixed internal reduction order
// (split-K partials reduce in fixed partition order). Token streams are
// therefore bit-identical for any thread count — asserted by
// tests/integration/determinism_test.cc.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/thread_pool.h"

namespace punica {

struct ComputeConfig {
  /// 0 = resolve from PUNICA_THREADS / hardware_concurrency.
  int num_threads = 0;
  /// Split-KV chunk count for decode attention. 0 = resolve from
  /// PUNICA_ATTN_SPLIT, else the work-size heuristic picks per batch shape;
  /// > 0 forces that split (tests / benches). Purely a scheduling knob:
  /// the attention math is fixed-block, so streams are bit-identical at
  /// any value.
  int attn_split = 0;
};

class ComputeContext {
 public:
  explicit ComputeContext(ComputeConfig config = {});

  /// Root context: pool width. Group view: the group's thread count
  /// (at least 1 — a virtual group's work runs serially on the caller).
  int num_threads() const {
    if (group_ < 0) return pool_->num_threads();
    int w = pool_->group_width(group_);
    return w > 0 ? w : 1;
  }

  /// Deterministic data-parallel loop over [0, n); see ThreadPool.
  /// Allocation-free: the callable is passed by reference, never wrapped
  /// in a std::function. On a group view the region is confined to that
  /// group's threads.
  template <typename Fn>
  void ParallelFor(std::int64_t n, std::int64_t grain, Fn&& fn) const {
    if (group_ >= 0) {
      pool_->ParallelForGroup(group_, n, grain, std::forward<Fn>(fn));
    } else {
      pool_->ParallelFor(n, grain, std::forward<Fn>(fn));
    }
  }

  /// Partitions the pool into `k` disjoint worker groups and returns k view
  /// contexts, view r pinned to group r (see file comment). Views borrow
  /// this context's pool and must not outlive it. Must be called on a root
  /// context.
  std::vector<std::unique_ptr<ComputeContext>> Split(int k) const;

  /// Runs fn(rank) for rank in [0, k) concurrently, rank r pinned to worker
  /// group r (repartitioning the pool to k groups if needed). ParallelFor
  /// calls inside fn(rank) — directly or via a group view — stay inside
  /// group r. Blocks until all ranks return.
  template <typename Fn>
  void RunGroupTasks(int k, Fn&& fn) const {
    pool_->RunGroupTasks(k, std::forward<Fn>(fn));
  }

  /// Forced split-KV chunk count for decode attention (0 = heuristic).
  /// Group views inherit the root's value.
  int attn_split() const { return attn_split_; }

  /// True for a Split() view pinned to one worker group.
  bool is_group_view() const { return group_ >= 0; }
  /// The pinned group index (-1 on a root context).
  int group_index() const { return group_; }
  /// Threads in group `g` under the pool's current partition.
  int group_width(int g) const { return pool_->group_width(g); }

  /// Process-wide shared context (PUNICA_THREADS / hardware default).
  /// Created lazily on first use; persists for the process lifetime.
  static const ComputeContext& Default();

  /// `requested` <= 0 resolves via PUNICA_THREADS, then
  /// hardware_concurrency; the result is clamped to [1, kMaxThreads]. A
  /// PUNICA_THREADS that is not an integer is reported on stderr and
  /// ignored.
  static int ResolveThreadCount(int requested);

  /// `requested` <= 0 resolves via PUNICA_ATTN_SPLIT (absent = 0, the
  /// heuristic; not an integer = 0 after a stderr line); the result is
  /// clamped to [0, kMaxAttnSplit].
  static int ResolveAttnSplit(int requested);

  static constexpr int kMaxThreads = 256;
  static constexpr int kMaxAttnSplit = 64;

 private:
  ComputeContext(ThreadPool* pool, int group, int attn_split)
      : pool_(pool), group_(group), attn_split_(attn_split) {}

  std::unique_ptr<ThreadPool> owned_pool_;
  // Kernels take `const ComputeContext&` — running work does not mutate the
  // context's observable state, only the pool's internal scheduling.
  ThreadPool* pool_;
  int group_ = -1;  ///< pinned worker group; -1 = root (whole pool)
  int attn_split_ = 0;  ///< forced split-KV chunks; 0 = heuristic
};

}  // namespace punica
