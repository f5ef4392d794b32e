// Fixed-pool, reference-counted page allocator for the paged KvCache
// (paper §5.4, extended with vLLM-style page sharing).
//
// Alloc hands out a page with refcount 1; Retain/Release adjust the count
// and a page returns to the free list when its count reaches zero. Sharing
// a prompt prefix across sequences is then a Retain per aliased page —
// redundant prefill compute becomes page-table pointer copies. Releasing a
// free page ("double free"), retaining a free page ("over-retain") and
// touching foreign pages are programming errors and abort. The pool size is
// fixed at construction — KvCache memory is a reserved slice of GPU memory,
// never grown.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace punica {

using PageId = std::int32_t;

class PageAllocator {
 public:
  explicit PageAllocator(std::int32_t num_pages);

  /// Returns nullopt when the pool is exhausted (KvCache pressure — the
  /// caller evicts cached prefixes and/or triggers request migration, §5.3).
  /// A fresh page starts with refcount 1.
  std::optional<PageId> Alloc();

  /// Adds one reference to an allocated page (prefix sharing).
  void Retain(PageId page);

  /// Drops one reference; the page returns to the free list at zero.
  void Release(PageId page);

  std::int32_t capacity() const { return capacity_; }
  std::int32_t free_pages() const {
    return static_cast<std::int32_t>(free_list_.size());
  }
  std::int32_t used_pages() const { return capacity_ - free_pages(); }
  /// Pages with more than one reference (the sharing gauge).
  std::int32_t shared_pages() const { return shared_pages_; }
  bool IsAllocated(PageId page) const { return RefCount(page) > 0; }
  std::int32_t RefCount(PageId page) const;
  /// The free pages, next-to-hand-out last (invariant audits).
  std::span<const PageId> free_list() const { return free_list_; }

 private:
  std::int32_t capacity_;
  std::vector<PageId> free_list_;
  std::vector<std::int32_t> ref_counts_;
  std::int32_t shared_pages_ = 0;
};

}  // namespace punica
