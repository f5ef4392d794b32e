#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/compute_context.h"

namespace punica {
namespace {

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, EmptyAndTinyRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);

  std::vector<int> hits(1, 0);
  pool.ParallelFor(1, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  EXPECT_EQ(hits[0], 1);
}

TEST(ThreadPoolTest, GrainKeepsSmallRangesInline) {
  // n <= grain must run as a single fn(0, n) call on the calling thread.
  ThreadPool pool(4);
  int calls = 0;
  std::int64_t seen_lo = -1, seen_hi = -1;
  pool.ParallelFor(100, 128, [&](std::int64_t lo, std::int64_t hi) {
    ++calls;
    seen_lo = lo;
    seen_hi = hi;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen_lo, 0);
  EXPECT_EQ(seen_hi, 100);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::atomic<std::int64_t> total{0};
  pool.ParallelFor(8, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      // A nested region must not deadlock waiting for the same workers.
      pool.ParallelFor(10, 1, [&](std::int64_t nlo, std::int64_t nhi) {
        total.fetch_add(nhi - nlo);
      });
    }
  });
  EXPECT_EQ(total.load(), 80);
}

TEST(ThreadPoolTest, ReusableAcrossManyJobs) {
  ThreadPool pool(3);
  for (int job = 0; job < 200; ++job) {
    std::vector<int> out(64, 0);
    pool.ParallelFor(64, 1, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        out[static_cast<std::size_t>(i)] = job;
      }
    });
    EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 64 * job);
  }
}

TEST(ThreadPoolTest, ConcurrentCallersSerializeWholeRegions) {
  // Two engines over one model may step from different threads; regions on
  // the shared pool must never interleave chunks (which would skip or
  // double-run work).
  ThreadPool pool(3);
  constexpr int kCallers = 4;
  constexpr int kPerCaller = 500;
  std::vector<std::atomic<int>> hits(kCallers * kPerCaller);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int repeat = 0; repeat < 20; ++repeat) {
        pool.ParallelFor(kPerCaller, 1, [&](std::int64_t lo,
                                            std::int64_t hi) {
          for (std::int64_t i = lo; i < hi; ++i) {
            hits[static_cast<std::size_t>(c * kPerCaller + i)].fetch_add(1);
          }
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 20);
}

TEST(ThreadPoolTest, MoreThreadsThanWork) {
  ThreadPool pool(16);
  std::vector<std::atomic<int>> hits(3);
  pool.ParallelFor(3, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// --- Worker groups (tensor parallelism substrate) ---

TEST(ThreadPoolGroupTest, PartitionWidthsCoverThePool) {
  ThreadPool pool(5);
  pool.Partition(2);
  EXPECT_EQ(pool.num_groups(), 2);
  EXPECT_EQ(pool.group_width(0) + pool.group_width(1), 5);
  // Balanced: widths differ by at most one, group 0 gets the remainder.
  EXPECT_EQ(pool.group_width(0), 3);
  EXPECT_EQ(pool.group_width(1), 2);
  pool.Partition(8);  // k > T: trailing groups are virtual (width 0)
  EXPECT_EQ(pool.num_groups(), 8);
  int total = 0;
  for (int g = 0; g < 8; ++g) total += pool.group_width(g);
  EXPECT_EQ(total, 5);
  EXPECT_EQ(pool.group_width(7), 0);
  pool.Partition(1);
  EXPECT_EQ(pool.group_width(0), 5);
}

TEST(ThreadPoolGroupTest, RunGroupTasksRunsEveryGroupExactlyOnce) {
  ThreadPool pool(4);
  for (int k : {1, 2, 3, 4, 7}) {
    std::vector<std::atomic<int>> ran(static_cast<std::size_t>(k));
    pool.RunGroupTasks(k, [&](int g) {
      ran[static_cast<std::size_t>(g)].fetch_add(1);
    });
    for (int g = 0; g < k; ++g) EXPECT_EQ(ran[g].load(), 1) << "k=" << k;
  }
}

TEST(ThreadPoolGroupTest, GroupRegionsCoverEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  pool.Partition(2);
  constexpr int kN = 1000;
  std::vector<std::atomic<int>> hits(2 * kN);
  pool.RunGroupTasks(2, [&](int g) {
    pool.ParallelFor(kN, 1, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        hits[static_cast<std::size_t>(g * kN + i)].fetch_add(1);
      }
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolGroupTest, GroupIsolationUnderNestedParallelFor) {
  // The satellite-f contract: a ParallelFor issued from inside group g's
  // task must execute only on group g's threads — never steal a sibling
  // group's workers. Record every executing thread per group across many
  // rounds of oversized regions and assert the sets are disjoint.
  ThreadPool pool(4);
  pool.Partition(2);
  std::mutex mu;
  std::array<std::set<std::thread::id>, 2> thread_sets;
  for (int round = 0; round < 50; ++round) {
    pool.RunGroupTasks(2, [&](int g) {
      pool.ParallelFor(256, 1, [&](std::int64_t, std::int64_t) {
        std::lock_guard<std::mutex> lock(mu);
        thread_sets[static_cast<std::size_t>(g)].insert(
            std::this_thread::get_id());
      });
    });
  }
  for (std::thread::id id : thread_sets[0]) {
    EXPECT_EQ(thread_sets[1].count(id), 0u)
        << "a thread executed regions for both groups";
  }
  // Sanity: each group used no more threads than its width.
  EXPECT_LE(thread_sets[0].size(), static_cast<std::size_t>(2));
  EXPECT_LE(thread_sets[1].size(), static_cast<std::size_t>(2));
}

TEST(ThreadPoolGroupTest, DoublyNestedRegionsInsideTasksRunInline) {
  // Region inside a region inside a task: innermost must inline, nothing
  // deadlocks, every index is still covered exactly once.
  ThreadPool pool(4);
  std::atomic<std::int64_t> total{0};
  pool.RunGroupTasks(2, [&](int) {
    pool.ParallelFor(8, 1, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        pool.ParallelFor(10, 1, [&](std::int64_t nlo, std::int64_t nhi) {
          total.fetch_add(nhi - nlo);
        });
      }
    });
  });
  EXPECT_EQ(total.load(), 2 * 80);
}

TEST(ThreadPoolGroupTest, RootParallelForOnPartitionedPoolCoversRange) {
  // A root-level region on a partitioned pool decomposes into per-group
  // spans; every index must still be visited exactly once.
  ThreadPool pool(4);
  pool.Partition(3);
  std::vector<std::atomic<int>> hits(997);  // prime: uneven spans
  pool.ParallelFor(997, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolGroupTest, RepartitionBetweenJobsIsSafe) {
  ThreadPool pool(4);
  for (int k : {1, 2, 4, 2, 3, 1}) {
    pool.Partition(k);
    std::vector<std::atomic<int>> hits(500);
    pool.RunGroupTasks(k, [&](int g) {
      if (g != 0) return;  // one writer group, others idle
      pool.ParallelFor(500, 1, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          hits[static_cast<std::size_t>(i)].fetch_add(1);
        }
      });
    });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1) << "k=" << k;
  }
}

TEST(ThreadPoolGroupTest, Width1PoolRunsEverythingSerially) {
  ThreadPool pool(1);
  std::vector<int> ran(4, 0);
  pool.RunGroupTasks(4, [&](int g) {
    pool.ParallelFor(10, 1, [&](std::int64_t lo, std::int64_t hi) {
      ran[static_cast<std::size_t>(g)] += static_cast<int>(hi - lo);
    });
  });
  for (int g = 0; g < 4; ++g) EXPECT_EQ(ran[g], 10);
}

// Spin-then-park hand-offs: a waiting worker or poster polls for a short
// budget before parking on its condvar. Back-to-back regions hand off while
// the other side is still polling; regions with a sleep between them (far
// past the budget) hand off to parked threads. Both must cover every index
// exactly once.
void ExpectRegionCovers(ThreadPool& pool, std::int64_t n) {
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  pool.ParallelFor(n, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    }
  });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPoolSpinTest, BackToBackAndSleepSeparatedRegions) {
  ThreadPool pool(3);
  for (int round = 0; round < 300; ++round) ExpectRegionCovers(pool, 97);
  for (int round = 0; round < 20; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ExpectRegionCovers(pool, 97);
  }
}

TEST(ThreadPoolSpinTest, GroupTasksBackToBackAndAfterSleeps) {
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    if (round % 20 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::array<std::atomic<int>, 2> ran{};
    std::vector<std::atomic<int>> hits(64);
    pool.RunGroupTasks(2, [&](int g) {
      ran[static_cast<std::size_t>(g)].fetch_add(1);
      pool.ParallelFor(32, 1, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          hits[static_cast<std::size_t>(32 * g + i)].fetch_add(1);
        }
      });
    });
    ASSERT_EQ(ran[0].load(), 1);
    ASSERT_EQ(ran[1].load(), 1);
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
    // A root region on the partitioned pool between group task rounds.
    ExpectRegionCovers(pool, 50);
  }
}

TEST(ThreadPoolSpinTest, PartitionWhileWorkersSpin) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    // The region's members are still polling for the next post when the
    // repartition lands.
    ExpectRegionCovers(pool, 40);
    const int k = 1 + round % 3;
    pool.Partition(k);
    EXPECT_EQ(pool.num_groups(), k);
    std::vector<std::atomic<int>> ran(static_cast<std::size_t>(k));
    pool.RunGroupTasks(k, [&](int g) {
      ran[static_cast<std::size_t>(g)].fetch_add(1);
    });
    for (const auto& r : ran) ASSERT_EQ(r.load(), 1);
  }
}

TEST(ThreadPoolSpinTest, DestructionWhileWorkersSpin) {
  for (int round = 0; round < 50; ++round) {
    ThreadPool pool(1 + round % 4);
    if (round % 2 == 1) pool.Partition(2);
    // Destroyed right after the join, while the workers poll: it must
    // neither hang nor leave a worker running.
    ExpectRegionCovers(pool, 33);
  }
}

TEST(ComputeContextTest, SplitViewsPinGroupsAndReportWidths) {
  ComputeContext ctx({.num_threads = 4});
  auto views = ctx.Split(2);
  ASSERT_EQ(views.size(), 2u);
  EXPECT_FALSE(ctx.is_group_view());
  int total = 0;
  for (int r = 0; r < 2; ++r) {
    EXPECT_TRUE(views[r]->is_group_view());
    EXPECT_EQ(views[r]->group_index(), r);
    total += views[r]->num_threads();
  }
  EXPECT_EQ(total, 4);
  // A view's ParallelFor covers its range exactly once.
  std::vector<std::atomic<int>> hits(300);
  views[1]->ParallelFor(300, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ComputeContextTest, RunGroupTasksWithViewsKeepsRanksConcurrent) {
  // The TP execution shape: RunGroupTasks(k) with rank r's kernels on view
  // r. All ranks' writes land, each exactly once.
  ComputeContext ctx({.num_threads = 4});
  auto views = ctx.Split(2);
  constexpr int kN = 400;
  std::vector<std::atomic<int>> hits(2 * kN);
  ctx.RunGroupTasks(2, [&](int r) {
    views[static_cast<std::size_t>(r)]->ParallelFor(
        kN, 1, [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t i = lo; i < hi; ++i) {
            hits[static_cast<std::size_t>(r * kN + i)].fetch_add(1);
          }
        });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ComputeContextTest, ExplicitThreadCountWins) {
  EXPECT_EQ(ComputeContext::ResolveThreadCount(3), 3);
  ComputeContext ctx({.num_threads = 2});
  EXPECT_EQ(ctx.num_threads(), 2);
}

TEST(ComputeContextTest, EnvFallbackAndClamping) {
  // Restore the ambient values afterwards — CI pins PUNICA_THREADS for the
  // whole test process and later tests must still see it.
  const char* prior = std::getenv("PUNICA_THREADS");
  std::string saved = prior != nullptr ? prior : "";
  const char* prior_split = std::getenv("PUNICA_ATTN_SPLIT");
  std::string saved_split = prior_split != nullptr ? prior_split : "";

  // A value that is not an integer resolves like an unset variable, after
  // exactly one stderr line naming the value and the fallback.
  const auto expect_rejected = [](const char* name, const char* bad,
                                  const char* fallback, auto resolve,
                                  int want) {
    setenv(name, bad, 1);
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(resolve(), want) << name << "=" << bad;
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find(std::string(name) + "=\"" + bad + "\""),
              std::string::npos)
        << err;
    EXPECT_NE(err.find(fallback), std::string::npos) << err;
    EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
  };
  const auto threads = [] { return ComputeContext::ResolveThreadCount(0); };
  const auto split = [] { return ComputeContext::ResolveAttnSplit(0); };

  unsetenv("PUNICA_THREADS");
  const int hardware = threads();
  EXPECT_GE(hardware, 1);
  setenv("PUNICA_THREADS", "5", 1);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(threads(), 5);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  // Explicit request still beats the env.
  EXPECT_EQ(ComputeContext::ResolveThreadCount(2), 2);
  setenv("PUNICA_THREADS", "0", 1);  // invalid → hardware fallback
  EXPECT_EQ(threads(), hardware);
  setenv("PUNICA_THREADS", "999999", 1);
  EXPECT_EQ(threads(), ComputeContext::kMaxThreads);
  setenv("PUNICA_THREADS", "99999999999999999999", 1);  // past long
  EXPECT_EQ(threads(), ComputeContext::kMaxThreads);
  for (const char* bad : {"4x", "four", "3.5", " 2 "}) {
    expect_rejected("PUNICA_THREADS", bad, "hardware thread count", threads,
                    hardware);
  }
  unsetenv("PUNICA_THREADS");
  EXPECT_EQ(threads(), hardware);

  unsetenv("PUNICA_ATTN_SPLIT");
  EXPECT_EQ(split(), 0);  // the heuristic
  EXPECT_EQ(ComputeContext::ResolveAttnSplit(6), 6);
  setenv("PUNICA_ATTN_SPLIT", "4", 1);
  EXPECT_EQ(split(), 4);
  EXPECT_EQ(ComputeContext::ResolveAttnSplit(2), 2);
  setenv("PUNICA_ATTN_SPLIT", "-3", 1);
  EXPECT_EQ(split(), 0);
  setenv("PUNICA_ATTN_SPLIT", "1000", 1);
  EXPECT_EQ(split(), ComputeContext::kMaxAttnSplit);
  for (const char* bad : {"8x", "eight"}) {
    expect_rejected("PUNICA_ATTN_SPLIT", bad, "split heuristic", split, 0);
  }

  if (prior != nullptr) {
    setenv("PUNICA_THREADS", saved.c_str(), 1);
  } else {
    unsetenv("PUNICA_THREADS");
  }
  if (prior_split != nullptr) {
    setenv("PUNICA_ATTN_SPLIT", saved_split.c_str(), 1);
  } else {
    unsetenv("PUNICA_ATTN_SPLIT");
  }
}

TEST(ComputeContextTest, DefaultIsSharedAndUsable) {
  const ComputeContext& a = ComputeContext::Default();
  const ComputeContext& b = ComputeContext::Default();
  EXPECT_EQ(&a, &b);
  std::atomic<std::int64_t> sum{0};
  a.ParallelFor(100, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 4950);
}

}  // namespace
}  // namespace punica
