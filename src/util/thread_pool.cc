#include "util/thread_pool.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/check.h"

namespace punica {
namespace {

// True while this thread is executing chunks of a parallel region; nested
// ParallelFor calls then run inline instead of deadlocking on the pool.
thread_local bool t_in_parallel_region = false;

// Set while this thread is executing a group task: ParallelFor calls route
// to ParallelForGroup(t_task_group) on t_task_pool, so a rank's regions fan
// out over its own group's threads only — never a sibling group's.
thread_local ThreadPool* t_task_pool = nullptr;
thread_local int t_task_group = -1;

// Partition arity ceiling; matches ComputeContext::kMaxThreads.
constexpr int kMaxPartition = 256;

// How long a thread about to wait — a worker for its next job or task, a
// poster for its join — polls the state it waits on before parking on the
// condvar. A layer forward is a chain of fork/joins a few µs to a few ms
// apart; a futex sleep and wake-up costs tens of µs (far more on a loaded
// VM), so polling across the short gaps keeps every hand-off off the
// scheduler while an idle pool still parks within this budget. Polling
// only decides when to take the lock: each wait still checks its predicate
// under the mutex and parks on the condvar, the one correctness path.
constexpr auto kSpinBudget = std::chrono::microseconds(50);

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Polls ready() with pause hints until it holds or kSpinBudget elapses.
template <typename Ready>
void SpinUntil(Ready ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
  for (unsigned i = 1; !ready(); ++i) {
    CpuRelax();
    if (i % 16 == 0 && std::chrono::steady_clock::now() >= deadline) return;
  }
}

// Runs fn(group) on the current thread with the task thread-locals pinned,
// so nested ParallelFors stay inside `group`. Used for the caller-run group
// 0 task and for width-0 virtual groups.
void RunTaskPinned(ThreadPool* pool, int group, void (*fn)(void*, int),
                   void* arg) {
  ThreadPool* prev_pool = t_task_pool;
  int prev_group = t_task_group;
  t_task_pool = pool;
  t_task_group = group;
  fn(arg, group);
  t_task_pool = prev_pool;
  t_task_group = prev_group;
}

}  // namespace

// One worker group: its own region state (the PR 2 epoch/cv protocol,
// verbatim, per group) plus a task slot its leader worker serves.
struct ThreadPool::Group {
  std::mutex mutex;
  std::condition_variable cv_work;  ///< members wait for a new epoch/task
  std::condition_variable cv_done;  ///< poster waits for done/active
  std::uint64_t epoch = 0;
  // The current region job: fn(arg, lo, hi) over chunk c covers
  // [c·chunk, min(n, (c+1)·chunk)).
  ThreadPool::RangeFn fn = nullptr;
  void* fn_arg = nullptr;
  std::int64_t num_chunks = 0;
  std::int64_t chunk = 0;
  std::int64_t n = 0;
  std::atomic<std::int64_t> next{0};  ///< next chunk to claim
  std::atomic<std::int64_t> done{0};  ///< chunks completed
  /// Members inside the current job; written under `mutex`, atomic so a
  /// poster can poll it before locking.
  std::atomic<int> active{0};
  // The pending group task (leader-only; groups 1..k-1).
  std::uint64_t task_epoch = 0;
  ThreadPool::TaskFn task_fn = nullptr;
  void* task_arg = nullptr;
  /// Bumped under `mutex` with every change a member waits for (a job, a
  /// task, a repartition, stop): what a member polls before parking.
  std::atomic<std::uint64_t> posts{0};
};

struct ThreadPool::State {
  std::mutex run_mutex;  ///< serializes root jobs/tasks across callers
  // --- partition (guards assignment; version bump re-points workers) ---
  std::mutex part_mutex;
  std::condition_variable cv_part;  ///< Partition waits for worker acks
  std::atomic<std::uint64_t> version{0};
  std::atomic<bool> stop{false};
  int acked = 0;                 ///< workers that adopted current version
  std::vector<int> assign;       ///< worker index → group
  std::vector<char> is_leader;   ///< worker index → serves the task slot
  std::array<std::atomic<int>, kMaxPartition> width{};  ///< group → threads
  std::vector<std::unique_ptr<Group>> groups;  ///< arena, one per thread
  // --- group-task join ---
  std::mutex task_mutex;
  std::condition_variable cv_tasks_done;
  std::atomic<int> tasks_done{0};
};

// Claims chunks of the current job until none remain; shared by workers
// and the participating poster.
void ThreadPool::RunChunks(RangeFn fn, void* arg, std::int64_t num_chunks,
                           std::int64_t chunk, std::int64_t n,
                           std::atomic<std::int64_t>& next,
                           std::atomic<std::int64_t>& done) {
  t_in_parallel_region = true;
  for (;;) {
    std::int64_t c = next.fetch_add(1);
    if (c >= num_chunks) break;
    std::int64_t lo = c * chunk;
    std::int64_t hi = lo + chunk < n ? lo + chunk : n;
    fn(arg, lo, hi);
    done.fetch_add(1);
  }
  t_in_parallel_region = false;
}

ThreadPool::ThreadPool(int num_threads) : state_(std::make_unique<State>()) {
  PUNICA_CHECK(num_threads >= 1);
  State& s = *state_;
  s.assign.assign(static_cast<std::size_t>(num_threads - 1), 0);
  s.is_leader.assign(static_cast<std::size_t>(num_threads - 1), 0);
  s.groups.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    s.groups.push_back(std::make_unique<Group>());
  }
  s.width[0].store(num_threads);
  workers_.reserve(static_cast<std::size_t>(num_threads - 1));
  for (int i = 0; i < num_threads - 1; ++i) {
    workers_.emplace_back([this, i] { WorkerMain(i); });
  }
}

ThreadPool::~ThreadPool() {
  State& s = *state_;
  s.stop.store(true);
  for (auto& g : s.groups) {
    {
      std::lock_guard<std::mutex> lock(g->mutex);
      g->posts.fetch_add(1, std::memory_order_release);
    }
    g->cv_work.notify_all();
  }
  for (auto& w : workers_) w.join();
}

int ThreadPool::group_width(int group) const {
  if (group < 0 || group >= num_groups_.load(std::memory_order_acquire)) {
    return 0;
  }
  return state_->width[static_cast<std::size_t>(group)].load();
}

void ThreadPool::WorkerMain(int worker_index) {
  State& s = *state_;
  for (;;) {
    // Adopt the current partition: group membership, role, and a fresh
    // epoch baseline (PartitionLocked resets group epochs to 0 in the same
    // critical section that bumps the version, and nothing can post a job
    // until every worker has acked, so 0 is always the right baseline).
    Group* grp = nullptr;
    std::uint64_t ver = 0;
    bool is_leader = false;
    int my_group = 0;
    {
      std::lock_guard<std::mutex> lock(s.part_mutex);
      if (s.stop.load()) return;
      ver = s.version.load();
      my_group = s.assign[static_cast<std::size_t>(worker_index)];
      is_leader = s.is_leader[static_cast<std::size_t>(worker_index)] != 0;
      grp = s.groups[static_cast<std::size_t>(my_group)].get();
      ++s.acked;
    }
    s.cv_part.notify_all();
    std::uint64_t seen = 0;
    std::uint64_t task_seen = 0;
    std::uint64_t posts_seen = grp->posts.load(std::memory_order_acquire);
    for (;;) {
      RangeFn fn = nullptr;
      void* arg = nullptr;
      std::int64_t num_chunks = 0, chunk = 0, n = 0;
      TaskFn task_fn = nullptr;
      void* task_arg = nullptr;
      SpinUntil([&] {
        return grp->posts.load(std::memory_order_acquire) != posts_seen;
      });
      {
        std::unique_lock<std::mutex> lock(grp->mutex);
        grp->cv_work.wait(lock, [&] {
          return s.stop.load() || s.version.load() != ver ||
                 grp->epoch != seen ||
                 (is_leader && grp->task_epoch != task_seen);
        });
        posts_seen = grp->posts.load(std::memory_order_relaxed);
        if (s.stop.load()) return;
        if (s.version.load() != ver) break;  // repartitioned: re-adopt
        if (is_leader && grp->task_epoch != task_seen) {
          task_seen = grp->task_epoch;
          task_fn = grp->task_fn;
          task_arg = grp->task_arg;
        } else {
          seen = grp->epoch;
          fn = grp->fn;
          arg = grp->fn_arg;
          num_chunks = grp->num_chunks;
          chunk = grp->chunk;
          n = grp->n;
          ++grp->active;
        }
      }
      if (task_fn != nullptr) {
        RunTaskPinned(this, my_group, task_fn, task_arg);
        {
          // Regions the task posted advanced this group's epoch with no
          // job for us (we were busy running the task); re-baseline before
          // signalling completion so a later stale epoch is not mistaken
          // for a new job. The next task post happens-after the signal.
          std::lock_guard<std::mutex> lock(grp->mutex);
          seen = grp->epoch;
          posts_seen = grp->posts.load(std::memory_order_relaxed);
        }
        s.tasks_done.fetch_add(1);
        { std::lock_guard<std::mutex> lock(s.task_mutex); }
        s.cv_tasks_done.notify_all();
      } else {
        RunChunks(fn, arg, num_chunks, chunk, n, grp->next, grp->done);
        {
          std::lock_guard<std::mutex> lock(grp->mutex);
          --grp->active;
        }
        grp->cv_done.notify_all();
      }
    }
  }
}

void ThreadPool::RunOnGroup(Group& grp, std::int64_t num_chunks,
                            std::int64_t chunk, std::int64_t n, RangeFn fn,
                            void* arg) {
  // Drain stragglers of the previous job on this group before reusing
  // the shared counters (a member may still be between its last claim and
  // --active).
  SpinUntil([&] { return grp.active.load(std::memory_order_acquire) == 0; });
  {
    std::unique_lock<std::mutex> lock(grp.mutex);
    grp.cv_done.wait(lock, [&] { return grp.active.load() == 0; });
    grp.fn = fn;
    grp.fn_arg = arg;
    grp.num_chunks = num_chunks;
    grp.chunk = chunk;
    grp.n = n;
    grp.next.store(0);
    grp.done.store(0);
    ++grp.epoch;
    grp.posts.fetch_add(1, std::memory_order_release);
  }
  grp.cv_work.notify_all();
  // The poster participates, so all chunks complete even if no member ever
  // wakes (width-1 groups, forked children).
  RunChunks(fn, arg, num_chunks, chunk, n, grp.next, grp.done);
  SpinUntil([&] {
    return grp.done.load(std::memory_order_acquire) == num_chunks;
  });
  std::unique_lock<std::mutex> lock(grp.mutex);
  grp.cv_done.wait(lock, [&] { return grp.done.load() == num_chunks; });
}

void ThreadPool::PartitionLocked(int num_groups) {
  State& s = *state_;
  const int total = num_threads();
  const int num_workers = total - 1;
  std::unique_lock<std::mutex> lock(s.part_mutex);
  s.version.fetch_add(1);
  // Balanced widths: |w_g − w_h| ≤ 1, group 0 first (it contains the
  // external caller). k > T leaves trailing groups width 0 (virtual —
  // their tasks run serially on the caller).
  for (int g = 0; g < kMaxPartition; ++g) {
    int w = g < num_groups
                ? total / num_groups + (g < total % num_groups ? 1 : 0)
                : 0;
    s.width[static_cast<std::size_t>(g)].store(w);
  }
  int w = 0;
  for (int g = 0; g < num_groups && g < total; ++g) {
    int members = s.width[static_cast<std::size_t>(g)].load() -
                  (g == 0 ? 1 : 0);  // group 0 includes the caller
    for (int i = 0; i < members; ++i, ++w) {
      s.assign[static_cast<std::size_t>(w)] = g;
      s.is_leader[static_cast<std::size_t>(w)] = (g > 0 && i == 0) ? 1 : 0;
    }
  }
  PUNICA_CHECK(w == num_workers);
  s.acked = 0;
  // Reset all group epochs under the same critical section: adopting
  // workers baseline at 0, and no job can post until every worker acked.
  for (auto& g : s.groups) {
    std::lock_guard<std::mutex> glock(g->mutex);
    g->epoch = 0;
    g->task_epoch = 0;
    g->posts.fetch_add(1, std::memory_order_release);
  }
  num_groups_.store(num_groups, std::memory_order_release);
  for (auto& g : s.groups) g->cv_work.notify_all();
  s.cv_part.wait(lock, [&] { return s.acked == num_workers; });
}

void ThreadPool::Partition(int num_groups) {
  PUNICA_CHECK(num_groups >= 1 && num_groups <= kMaxPartition);
  PUNICA_CHECK_MSG(!t_in_parallel_region &&
                       !(t_task_pool == this && t_task_group >= 0),
                   "Partition from inside a region/task would deadlock");
  State& s = *state_;
  std::lock_guard<std::mutex> run_lock(s.run_mutex);
  if (num_groups_.load() != num_groups) PartitionLocked(num_groups);
}

void ThreadPool::RunGroupTasksLocked(int num_groups, TaskFn fn, void* arg) {
  State& s = *state_;
  s.tasks_done.store(0);
  const int real = std::min(num_groups, num_threads());
  int posted = 0;
  for (int g = 1; g < real; ++g) {
    Group& grp = *s.groups[static_cast<std::size_t>(g)];
    {
      std::lock_guard<std::mutex> lock(grp.mutex);
      grp.task_fn = fn;
      grp.task_arg = arg;
      ++grp.task_epoch;
      grp.posts.fetch_add(1, std::memory_order_release);
    }
    grp.cv_work.notify_all();
    ++posted;
  }
  // The caller runs group 0's task, then any virtual groups', pinned so
  // nested ParallelFors route to the right (or no) group.
  RunTaskPinned(this, 0, fn, arg);
  for (int g = real; g < num_groups; ++g) RunTaskPinned(this, g, fn, arg);
  if (posted > 0) {
    SpinUntil([&] {
      return s.tasks_done.load(std::memory_order_acquire) == posted;
    });
    std::unique_lock<std::mutex> lock(s.task_mutex);
    s.cv_tasks_done.wait(lock,
                         [&] { return s.tasks_done.load() == posted; });
  }
}

void ThreadPool::RunGroupTasksImpl(int num_groups, TaskFn fn, void* arg) {
  PUNICA_CHECK(num_groups >= 1 && num_groups <= kMaxPartition);
  if (t_in_parallel_region || (t_task_pool == this && t_task_group >= 0)) {
    // Nested task launch from inside a region or another task: run the
    // tasks serially in-place, keeping the current group pinning so the
    // caller's isolation is preserved.
    for (int g = 0; g < num_groups; ++g) fn(arg, g);
    return;
  }
  State& s = *state_;
  std::lock_guard<std::mutex> run_lock(s.run_mutex);
  if (num_groups_.load() != num_groups) PartitionLocked(num_groups);
  RunGroupTasksLocked(num_groups, fn, arg);
}

void ThreadPool::RunRootSpansLocked(int num_groups, std::int64_t n,
                                    std::int64_t grain, RangeFn fn,
                                    void* arg) {
  State& s = *state_;
  // Contiguous per-group spans proportional to group widths: group g gets
  // [n·cum_g/T, n·cum_{g+1}/T). Every index lands in exactly one span, so
  // the determinism contract is independent of the partition.
  struct SpanCtx {
    ThreadPool* pool;
    RangeFn fn;
    void* arg;
    std::int64_t grain;
    std::int64_t starts[kMaxPartition + 1];
  };
  SpanCtx ctx{this, fn, arg, grain, {}};
  std::int64_t total = num_threads();
  std::int64_t cum = 0;
  for (int g = 0; g < num_groups; ++g) {
    ctx.starts[g] = n * cum / total;
    cum += s.width[static_cast<std::size_t>(g)].load();
  }
  ctx.starts[num_groups] = n;
  RunGroupTasksLocked(
      num_groups,
      [](void* p, int g) {
        auto* c = static_cast<SpanCtx*>(p);
        std::int64_t lo = c->starts[g];
        std::int64_t hi = c->starts[g + 1];
        if (lo >= hi) return;
        struct Shift {
          RangeFn fn;
          void* arg;
          std::int64_t off;
        } shift{c->fn, c->arg, lo};
        c->pool->ParallelForGroupImpl(
            g, hi - lo, c->grain,
            [](void* sp, std::int64_t slo, std::int64_t shi) {
              auto* sh = static_cast<Shift*>(sp);
              sh->fn(sh->arg, slo + sh->off, shi + sh->off);
            },
            &shift);
      },
      &ctx);
}

void ThreadPool::ParallelForGroupImpl(int group, std::int64_t n,
                                      std::int64_t grain, RangeFn fn,
                                      void* arg) {
  if (n <= 0) return;
  if (grain < 1) grain = 1;
  State& s = *state_;
  std::int64_t width = 0;
  if (group >= 0 && group < num_groups_.load(std::memory_order_acquire)) {
    width = s.width[static_cast<std::size_t>(group)].load();
  }
  if (width <= 1 || n <= grain || t_in_parallel_region) {
    fn(arg, 0, n);
    return;
  }
  // Chunk size adapts to the group width for load balance; the result does
  // not depend on it (see the determinism contract in the header).
  std::int64_t chunk = (n + width * 4 - 1) / (width * 4);
  if (chunk < grain) chunk = grain;
  std::int64_t num_chunks = (n + chunk - 1) / chunk;
  if (num_chunks <= 1) {
    fn(arg, 0, n);
    return;
  }
  RunOnGroup(*s.groups[static_cast<std::size_t>(group)], num_chunks, chunk,
             n, fn, arg);
}

void ThreadPool::ParallelForImpl(std::int64_t n, std::int64_t grain,
                                 RangeFn fn, void* arg) {
  if (n <= 0) return;
  if (grain < 1) grain = 1;
  if (num_threads() == 1 || n <= grain || t_in_parallel_region) {
    fn(arg, 0, n);
    return;
  }
  if (t_task_pool == this && t_task_group >= 0) {
    // Inside a group task: fan out over this task's group only — sibling
    // groups' threads are running other ranks' work.
    ParallelForGroupImpl(t_task_group, n, grain, fn, arg);
    return;
  }
  State& s = *state_;
  // One root job at a time: a second caller thread (engines sharing a pool
  // may be stepped from anywhere) must not reset the shared counters while
  // a job is in flight — its region simply serializes after the current
  // one.
  std::lock_guard<std::mutex> run_lock(s.run_mutex);
  int num_groups = num_groups_.load(std::memory_order_acquire);
  if (num_groups > 1) {
    RunRootSpansLocked(num_groups, n, grain, fn, arg);
    return;
  }
  // Chunk size adapts to the pool width for load balance; the result does
  // not depend on it (see the determinism contract in the header).
  std::int64_t threads = num_threads();
  std::int64_t chunk = (n + threads * 4 - 1) / (threads * 4);
  if (chunk < grain) chunk = grain;
  std::int64_t num_chunks = (n + chunk - 1) / chunk;
  if (num_chunks <= 1) {
    fn(arg, 0, n);
    return;
  }
  RunOnGroup(*s.groups[0], num_chunks, chunk, n, fn, arg);
}

}  // namespace punica
