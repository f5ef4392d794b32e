#include "kvcache/page_allocator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "util/rng.h"

namespace punica {
namespace {

TEST(PageAllocatorTest, AllocatesAllPagesExactlyOnce) {
  PageAllocator alloc(16);
  std::set<PageId> seen;
  for (int i = 0; i < 16; ++i) {
    auto p = alloc.Alloc();
    ASSERT_TRUE(p.has_value());
    EXPECT_TRUE(seen.insert(*p).second) << "duplicate page " << *p;
    EXPECT_GE(*p, 0);
    EXPECT_LT(*p, 16);
    EXPECT_EQ(alloc.RefCount(*p), 1);
  }
  EXPECT_FALSE(alloc.Alloc().has_value());
  EXPECT_EQ(alloc.free_pages(), 0);
  EXPECT_EQ(alloc.used_pages(), 16);
}

TEST(PageAllocatorTest, ReleaseMakesPageReusable) {
  PageAllocator alloc(1);
  auto p = alloc.Alloc();
  ASSERT_TRUE(p.has_value());
  EXPECT_FALSE(alloc.Alloc().has_value());
  alloc.Release(*p);
  EXPECT_EQ(alloc.free_pages(), 1);
  auto q = alloc.Alloc();
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(*q, *p);
}

TEST(PageAllocatorTest, ZeroCapacity) {
  PageAllocator alloc(0);
  EXPECT_FALSE(alloc.Alloc().has_value());
  EXPECT_EQ(alloc.capacity(), 0);
}

TEST(PageAllocatorTest, IsAllocatedTracksState) {
  PageAllocator alloc(4);
  auto p = alloc.Alloc();
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(alloc.IsAllocated(*p));
  alloc.Release(*p);
  EXPECT_FALSE(alloc.IsAllocated(*p));
}

TEST(PageAllocatorTest, RetainReleaseCountsAndSharedGauge) {
  PageAllocator alloc(4);
  auto p = alloc.Alloc();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(alloc.shared_pages(), 0);
  alloc.Retain(*p);
  EXPECT_EQ(alloc.RefCount(*p), 2);
  EXPECT_EQ(alloc.shared_pages(), 1);
  alloc.Retain(*p);
  EXPECT_EQ(alloc.RefCount(*p), 3);
  EXPECT_EQ(alloc.shared_pages(), 1);  // shared is a >1 gauge, not a sum
  alloc.Release(*p);
  EXPECT_EQ(alloc.shared_pages(), 1);
  alloc.Release(*p);
  EXPECT_EQ(alloc.shared_pages(), 0);
  EXPECT_TRUE(alloc.IsAllocated(*p));  // one reference left
  EXPECT_EQ(alloc.free_pages(), 3);
  alloc.Release(*p);
  EXPECT_EQ(alloc.free_pages(), 4);
}

// A retained page must survive releases by other holders: exhaustion then
// release returns exactly the zero-refcount pages to the pool, in a reusable
// state.
TEST(PageAllocatorTest, ExhaustionThenReleaseReuse) {
  PageAllocator alloc(4);
  std::vector<PageId> pages;
  for (int i = 0; i < 4; ++i) {
    auto p = alloc.Alloc();
    ASSERT_TRUE(p.has_value());
    pages.push_back(*p);
  }
  ASSERT_FALSE(alloc.Alloc().has_value());

  // Share page 0 (refcount 2); then drop one reference on every page.
  alloc.Retain(pages[0]);
  for (PageId p : pages) alloc.Release(p);
  // Pages 1..3 are free again; page 0 is still held by the second reference.
  EXPECT_EQ(alloc.free_pages(), 3);
  EXPECT_TRUE(alloc.IsAllocated(pages[0]));

  std::set<PageId> reused;
  for (int i = 0; i < 3; ++i) {
    auto p = alloc.Alloc();
    ASSERT_TRUE(p.has_value());
    EXPECT_NE(*p, pages[0]) << "allocator handed out a still-referenced page";
    EXPECT_TRUE(reused.insert(*p).second);
  }
  EXPECT_FALSE(alloc.Alloc().has_value());
  alloc.Release(pages[0]);
  auto p = alloc.Alloc();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, pages[0]);
}

TEST(PageAllocatorTest, CachedPageIsReclaimableAndRevivable) {
  PageAllocator alloc(2);
  auto p = alloc.Alloc();
  ASSERT_TRUE(p.has_value());
  alloc.MarkCached(*p, /*group=*/0);
  alloc.Release(*p);
  EXPECT_EQ(alloc.RefCount(*p), 0);
  EXPECT_EQ(alloc.free_pages(), 1);
  EXPECT_EQ(alloc.reclaimable_pages(), 1);
  EXPECT_EQ(alloc.available_pages(), 2);
  alloc.Retain(*p);  // revived: off the reclaim list
  EXPECT_EQ(alloc.RefCount(*p), 1);
  EXPECT_EQ(alloc.reclaimable_pages(), 0);
  EXPECT_EQ(alloc.AllocationOrder(), (std::vector<PageId>{1}));
}

TEST(PageAllocatorTest, HandsOutTouchedThenStaleThenUntouchedThenWaiting) {
  PageAllocator alloc(9);
  for (PageId want = 0; want < 7; ++want) {
    ASSERT_EQ(alloc.Alloc(), want);
  }
  // Pages 1, 2 and 6 are cached in group 0, pages 3 and 5 in group 1.
  for (PageId p : {1, 2, 6}) alloc.MarkCached(p, 0);
  for (PageId p : {3, 5}) alloc.MarkCached(p, 1);
  // Release order is the reclaim order within a list.
  for (PageId p : {5, 2, 0, 3, 1, 4}) alloc.Release(p);
  // Group 0 starts a request: its reclaimable pages go stale. Page 6 is
  // still held, so it waits again once released; so does page 3 after a
  // revive, though its group expires while it is held.
  alloc.ExpireGroup(0);
  alloc.Retain(3);
  alloc.ExpireGroup(1);
  alloc.Release(6);
  alloc.Release(3);
  // Touched free pages (last freed first), stale cached pages (least
  // recently released first), untouched pages, waiting cached pages.
  const std::vector<PageId> order = {4, 0, 5, 2, 1, 7, 8, 6, 3};
  EXPECT_EQ(alloc.AllocationOrder(), order);
  for (PageId want : order) {
    EXPECT_EQ(alloc.Alloc(), want);
    EXPECT_FALSE(alloc.IsCached(want));  // a reclaimed page comes back bare
  }
  EXPECT_FALSE(alloc.Alloc().has_value());
}

TEST(PageAllocatorTest, NoUntouchedPageWhileAStalePageIsReclaimable) {
  PageAllocator alloc(4);
  ASSERT_EQ(alloc.Alloc(), 0);
  alloc.MarkCached(0, 7);
  alloc.Release(0);
  // Waiting: a new page is touched rather than reclaim it.
  EXPECT_EQ(alloc.Alloc(), 1);
  alloc.ExpireGroup(7);
  // Stale: reclaimed before the two untouched pages.
  EXPECT_EQ(alloc.Alloc(), 0);
  EXPECT_EQ(alloc.reclaimable_pages(), 0);
  EXPECT_EQ(alloc.free_pages(), 2);
}

TEST(PageAllocatorDeathTest, DoubleFreeAborts) {
  PageAllocator alloc(4);
  auto p = alloc.Alloc();
  ASSERT_TRUE(p.has_value());
  alloc.Release(*p);
  EXPECT_DEATH(alloc.Release(*p), "double free");
}

TEST(PageAllocatorDeathTest, OverRetainAborts) {
  PageAllocator alloc(4);
  auto p = alloc.Alloc();
  ASSERT_TRUE(p.has_value());
  alloc.Release(*p);
  // Retaining a page that holds no references resurrects freed memory — the
  // over-retain programming error.
  EXPECT_DEATH(alloc.Retain(*p), "over-retain");
}

TEST(PageAllocatorDeathTest, ForeignPageAborts) {
  PageAllocator alloc(4);
  EXPECT_DEATH(alloc.Release(99), "foreign page");
  EXPECT_DEATH(alloc.Release(-1), "foreign page");
  EXPECT_DEATH(alloc.Retain(99), "foreign page");
}

// Property test: random alloc/retain/release churn over plain and cached
// pages never double-allocates, never leaks, hands pages out in
// AllocationOrder, and a page becomes free or reclaimable exactly when its
// last reference drops.
TEST(PageAllocatorPropertyTest, RandomChurnInvariants) {
  Pcg32 rng(123);
  PageAllocator alloc(64);
  std::vector<PageId> live;  // one element per outstanding reference
  for (int step = 0; step < 20000; ++step) {
    double roll = rng.NextDouble();
    if (live.empty() || (roll < 0.40 && alloc.available_pages() > 0)) {
      std::vector<PageId> order = alloc.AllocationOrder();
      auto p = alloc.Alloc();
      if (p.has_value()) {
        ASSERT_EQ(*p, order.front());
        // A fresh page must not have an outstanding reference.
        EXPECT_EQ(std::count(live.begin(), live.end(), *p), 0);
        live.push_back(*p);
        // Some pages hold cached contents: reclaimable at refcount 0.
        if (rng.NextDouble() < 0.3) {
          alloc.MarkCached(*p, static_cast<std::int32_t>(rng.NextBounded(3)));
        }
      } else {
        EXPECT_EQ(alloc.used_pages(), 64);
      }
    } else if (roll < 0.55 && !live.empty()) {
      std::size_t idx = rng.NextBounded(
          static_cast<std::uint32_t>(live.size()));
      alloc.Retain(live[idx]);
      live.push_back(live[idx]);
      if (rng.NextDouble() < 0.2) {
        alloc.ExpireGroup(static_cast<std::int32_t>(rng.NextBounded(3)));
      }
    } else if (!live.empty()) {
      std::size_t idx = rng.NextBounded(
          static_cast<std::uint32_t>(live.size()));
      alloc.Release(live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    ASSERT_EQ(alloc.free_pages() + alloc.used_pages(), 64);
    if (step % 250 != 0) continue;
    // Full sweep (periodically — it is quadratic in outstanding refs):
    // used − reclaimable == distinct live pages, refcounts match reference
    // multiplicity, shared gauge == pages with multiplicity > 1.
    std::set<PageId> distinct(live.begin(), live.end());
    ASSERT_EQ(alloc.used_pages() - alloc.reclaimable_pages(),
              static_cast<std::int32_t>(distinct.size()));
    std::int32_t shared = 0;
    for (PageId p : distinct) {
      auto refs = static_cast<std::int32_t>(
          std::count(live.begin(), live.end(), p));
      ASSERT_EQ(alloc.RefCount(p), refs);
      if (refs > 1) ++shared;
    }
    ASSERT_EQ(alloc.shared_pages(), shared);
  }
  for (PageId p : live) alloc.Release(p);
  EXPECT_EQ(alloc.available_pages(), 64);
}

}  // namespace
}  // namespace punica
