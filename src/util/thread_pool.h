// A persistent worker-thread pool with a deterministic ParallelFor and a
// worker-group partition for concurrent tensor-parallel shard execution.
//
// Determinism contract: ParallelFor splits [0, n) into contiguous chunks and
// guarantees each index is visited by exactly one fn(lo, hi) invocation, in
// ascending order within the chunk. If fn writes only outputs derived from
// its index range (never per-worker or per-timing state), the overall result
// is bit-identical for ANY thread count and ANY chunk assignment — the
// property the numeric tier's migration/consolidation tests depend on.
//
// The calling thread participates in the work, so a pool of 1 thread (or a
// fork()ed child whose workers are gone) degrades to a plain serial loop
// rather than deadlocking. Nested ParallelFor calls from inside a worker run
// inline for the same reason.
//
// Worker groups (tensor parallelism): Partition(k) splits the pool's
// threads into k disjoint groups — group 0 contains the external caller
// plus ⌈T/k⌉−1 workers, groups 1..k−1 are led by a dedicated worker each.
// RunGroupTasks(k, fn) then runs fn(g) concurrently, one task per group,
// and a ParallelFor issued from inside task g fans out over group g's
// threads ONLY — it never steals from sibling groups, so two ranks'
// regions can run simultaneously while each preserves the chunked
// determinism contract within its group. A root-level ParallelFor on a
// partitioned pool decomposes the range into per-group contiguous spans
// (proportional to group widths) and runs them as concurrent group tasks;
// chunk boundaries differ from the unpartitioned pool but every index is
// still visited exactly once, so results are bit-identical either way.
//
// ParallelFor is a template dispatched through a raw function pointer, not
// std::function, so launching a region never heap-allocates — it sits on
// the per-layer hot path. For the same reason every hand-off spins before
// it sleeps: an idle worker, and a poster waiting for its join, poll the
// state they wait on for a short fixed budget before parking on a condvar,
// so back-to-back regions never pay a futex wake-up.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

namespace punica {

class ThreadPool {
 public:
  /// Spawns `num_threads - 1` workers (the caller is the Nth thread).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution width, caller included (always >= 1).
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs fn(lo, hi) over a chunked partition of [0, n). Chunks are at least
  /// `grain` indices (the last may be shorter); serial when the range is
  /// small, the pool is width 1, or the call is nested inside another
  /// parallel region. Safe to call from multiple caller threads: whole
  /// regions serialize, they never interleave chunks. Called from inside a
  /// group task, the region fans out over that group's threads only.
  template <typename Fn>
  void ParallelFor(std::int64_t n, std::int64_t grain, Fn&& fn) {
    ParallelForImpl(n, grain, &InvokeRange<std::remove_reference_t<Fn>>,
                    const_cast<void*>(static_cast<const void*>(&fn)));
  }

  /// Repartitions the pool's threads into `k` disjoint worker groups (see
  /// file comment). Group widths differ by at most one; when k > T the
  /// trailing groups have width 0 and their tasks run serially on the
  /// caller. Must not be called while any region or task is in flight.
  void Partition(int num_groups);

  /// Current partition arity (1 = unpartitioned).
  int num_groups() const {
    return num_groups_.load(std::memory_order_acquire);
  }

  /// Threads in `group` under the current partition (0 for virtual groups,
  /// whose tasks run serially on the caller).
  int group_width(int group) const;

  /// Runs fn(g) for g in [0, k) with each invocation pinned to worker group
  /// g: group 0's task runs on the caller, each other real group's task on
  /// that group's leader worker, concurrently. Repartitions to k groups if
  /// the pool is currently partitioned differently. ParallelFor calls made
  /// inside fn(g) are confined to group g. Blocks until all k tasks finish.
  /// Nested calls (from inside a task or region) run fn serially in-place.
  template <typename Fn>
  void RunGroupTasks(int num_groups, Fn&& fn) {
    RunGroupTasksImpl(num_groups, &InvokeTask<std::remove_reference_t<Fn>>,
                      const_cast<void*>(static_cast<const void*>(&fn)));
  }

  /// ParallelFor pinned to one group of the current partition; serial when
  /// the group has width <= 1 or does not exist. Used by group-view
  /// ComputeContexts; plain callers use ParallelFor, which routes here
  /// automatically from inside a group task.
  template <typename Fn>
  void ParallelForGroup(int group, std::int64_t n, std::int64_t grain,
                        Fn&& fn) {
    ParallelForGroupImpl(group, n, grain,
                         &InvokeRange<std::remove_reference_t<Fn>>,
                         const_cast<void*>(static_cast<const void*>(&fn)));
  }

 private:
  /// Type-erased range callback: arg points at the caller's callable, which
  /// outlives the region (ParallelForImpl returns only when all chunks ran).
  using RangeFn = void (*)(void* arg, std::int64_t lo, std::int64_t hi);
  /// Type-erased group-task callback.
  using TaskFn = void (*)(void* arg, int group);

  template <typename Fn>
  static void InvokeRange(void* arg, std::int64_t lo, std::int64_t hi) {
    (*static_cast<Fn*>(arg))(lo, hi);
  }

  template <typename Fn>
  static void InvokeTask(void* arg, int group) {
    (*static_cast<Fn*>(arg))(group);
  }

  struct Group;
  struct State;
  void WorkerMain(int worker_index);
  void ParallelForImpl(std::int64_t n, std::int64_t grain, RangeFn fn,
                       void* arg);
  void ParallelForGroupImpl(int group, std::int64_t n, std::int64_t grain,
                            RangeFn fn, void* arg);
  void RunGroupTasksImpl(int num_groups, TaskFn fn, void* arg);
  /// Posts tasks to group leaders and joins; requires run_mutex held and
  /// the partition already set to `num_groups`.
  void RunGroupTasksLocked(int num_groups, TaskFn fn, void* arg);
  /// Root-level ParallelFor on a partitioned pool: per-group contiguous
  /// spans, run as concurrent group tasks; requires run_mutex held.
  void RunRootSpansLocked(int num_groups, std::int64_t n, std::int64_t grain,
                          RangeFn fn, void* arg);
  /// Repartition; requires run_mutex held (no jobs or tasks in flight).
  void PartitionLocked(int num_groups);
  /// Dispatches chunks [0, num_chunks) of width `chunk` over [0, n) to one
  /// group's threads; the calling thread participates.
  void RunOnGroup(Group& grp, std::int64_t num_chunks, std::int64_t chunk,
                  std::int64_t n, RangeFn fn, void* arg);
  static void RunChunks(RangeFn fn, void* arg, std::int64_t num_chunks,
                        std::int64_t chunk, std::int64_t n,
                        std::atomic<std::int64_t>& next,
                        std::atomic<std::int64_t>& done);

  std::atomic<int> num_groups_{1};
  std::unique_ptr<State> state_;
  std::vector<std::thread> workers_;
};

}  // namespace punica
