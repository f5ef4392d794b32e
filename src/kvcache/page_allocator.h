// Fixed-pool, reference-counted page allocator for the paged KvCache
// (paper §5.4, extended with vLLM-style page sharing and automatic prefix
// caching).
//
// Alloc hands out a page with refcount 1; Retain/Release adjust the count.
// Sharing a prompt prefix across sequences is a Retain per aliased page —
// redundant prefill compute becomes page-table pointer copies. A page the
// KvCache has marked cached (it holds keyed, reusable K/V) does not return
// to the free list when its count reaches zero: it becomes reclaimable,
// and a Retain revives it until Alloc reclaims it for new contents.
//
// The pool is committed on first write (PagedKvCache's PoolStorage), so
// the order Alloc hands pages out in is also the resident-memory policy.
// A cached page belongs to a group (the KvCache passes the page's LoRA
// tag), and its chance to be reused is that group's next request: until
// ExpireGroup says one has started, the page is waiting; after it, the
// page is stale — the request forked what it could, and this page was not
// part of it. Alloc hands out:
//   1. a free page that has been touched before (most recently freed first);
//   2. the least recently released stale cached page;
//   3. a never-touched page (ascending ids);
//   4. the least recently released waiting cached page.
// A workload whose cached pages are never reused (every prompt unique)
// then touches only its live pages plus each adapter's pages since that
// adapter's last request, while a page nobody has had the chance to reuse
// yet — a tenant's system prompt cached before its first request — is
// reclaimed only once every other page is in use.
//
// Releasing a page with no references ("double free"), retaining a free
// page ("over-retain") and touching foreign pages are programming errors
// and abort. The pool size is fixed at construction — KvCache memory is a
// reserved slice of GPU memory, never grown.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

namespace punica {

using PageId = std::int32_t;

class PageAllocator {
 public:
  explicit PageAllocator(std::int32_t num_pages);

  /// A page with refcount 1 in the order above, or nullopt when no page is
  /// free or reclaimable (KvCache pressure — the caller triggers request
  /// migration, §5.3). A reclaimed page comes back uncached.
  std::optional<PageId> Alloc();

  /// Adds one reference (prefix sharing). A reclaimable cached page is
  /// revived: it leaves its reclaim list.
  void Retain(PageId page);

  /// Drops one reference. At zero a cached page becomes reclaimable; any
  /// other page returns to the free list.
  void Release(PageId page);

  /// Marks an allocated page as cached, in `group`, so its last Release
  /// keeps it reclaimable (waiting) instead of freeing it. Alloc clears
  /// the mark.
  void MarkCached(PageId page, std::int32_t group);
  /// A request of `group` has started and forked the cached pages it
  /// matched: the group's waiting pages become stale.
  void ExpireGroup(std::int32_t group);

  std::int32_t capacity() const { return capacity_; }
  /// Pages holding no references and no cached contents.
  std::int32_t free_pages() const {
    return static_cast<std::int32_t>(free_list_.size()) + capacity_ -
           next_untouched_;
  }
  /// Cached pages holding no references.
  std::int32_t reclaimable_pages() const {
    return static_cast<std::int32_t>(stale_.size() + waiting_.size());
  }
  /// Pages Alloc can hand out: free + reclaimable.
  std::int32_t available_pages() const {
    return free_pages() + reclaimable_pages();
  }
  /// Pages referenced or cached: capacity − free.
  std::int32_t used_pages() const { return capacity_ - free_pages(); }
  /// Pages with more than one reference (the sharing gauge).
  std::int32_t shared_pages() const { return shared_pages_; }
  bool IsAllocated(PageId page) const { return RefCount(page) > 0; }
  bool IsCached(PageId page) const { return State(page).cached; }
  std::int32_t RefCount(PageId page) const { return State(page).refs; }

  /// Every page Alloc could hand out, in the order it would (invariant
  /// audits and tests). O(pages).
  std::vector<PageId> AllocationOrder() const;

 private:
  struct PageState {
    std::int32_t refs = 0;
    bool cached = false;
    bool stale = false;
    std::int32_t group = 0;
    std::uint64_t released = 0;  ///< reclaim-list key while reclaimable
  };
  const PageState& State(PageId page) const;
  PageState& State(PageId page);
  /// The reclaim list a cached page sits on at refcount 0.
  std::map<std::uint64_t, PageId>& ReclaimList(const PageState& s) {
    return s.stale ? stale_ : waiting_;
  }

  std::int32_t capacity_;
  std::vector<PageState> pages_;
  std::vector<PageId> free_list_;  ///< touched free pages, next out last
  PageId next_untouched_ = 0;      ///< [next_untouched_, capacity_) untouched
  /// Reclaimable cached pages by release order (a logical clock, so runs
  /// replay bit-identically), least recent first.
  std::map<std::uint64_t, PageId> stale_;
  std::map<std::uint64_t, PageId> waiting_;
  /// Release stamps of each group's pages put on waiting_ since the
  /// group's last ExpireGroup; a stamp no longer on waiting_ (the page was
  /// revived or reclaimed since) is skipped.
  std::unordered_map<std::int32_t, std::vector<std::uint64_t>> waiting_of_;
  std::uint64_t clock_ = 0;
  std::int32_t shared_pages_ = 0;
};

}  // namespace punica
