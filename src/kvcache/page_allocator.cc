#include "kvcache/page_allocator.h"

#include "util/check.h"

namespace punica {

PageAllocator::PageAllocator(std::int32_t num_pages)
    : capacity_(num_pages), pages_(static_cast<std::size_t>(num_pages)) {
  PUNICA_CHECK(num_pages >= 0);
}

std::optional<PageId> PageAllocator::Alloc() {
  PageId p = -1;
  if (!free_list_.empty()) {
    p = free_list_.back();
    free_list_.pop_back();
  } else if (!stale_.empty()) {
    p = stale_.begin()->second;
    stale_.erase(stale_.begin());
  } else if (next_untouched_ < capacity_) {
    p = next_untouched_++;
  } else if (!waiting_.empty()) {
    p = waiting_.begin()->second;
    waiting_.erase(waiting_.begin());
  } else {
    return std::nullopt;
  }
  State(p) = PageState{.refs = 1};
  return p;
}

void PageAllocator::Retain(PageId page) {
  PageState& s = State(page);
  if (s.refs == 0) {
    PUNICA_CHECK_MSG(s.cached, "over-retain: page is free");
    ReclaimList(s).erase(s.released);
  }
  if (++s.refs == 2) ++shared_pages_;
}

void PageAllocator::Release(PageId page) {
  PageState& s = State(page);
  PUNICA_CHECK_MSG(s.refs > 0, "double free");
  if (s.refs-- == 2) --shared_pages_;
  if (s.refs > 0) return;
  if (s.cached) {
    s.released = clock_++;
    s.stale = false;
    waiting_.emplace(s.released, page);
    waiting_of_[s.group].push_back(s.released);
  } else {
    free_list_.push_back(page);
  }
}

void PageAllocator::MarkCached(PageId page, std::int32_t group) {
  PageState& s = State(page);
  PUNICA_CHECK_MSG(s.refs > 0, "caching a free page");
  s.cached = true;
  s.group = group;
}

void PageAllocator::ExpireGroup(std::int32_t group) {
  auto stamps = waiting_of_.find(group);
  if (stamps == waiting_of_.end()) return;
  for (std::uint64_t stamp : stamps->second) {
    auto it = waiting_.find(stamp);
    if (it == waiting_.end()) continue;  // revived or reclaimed since
    State(it->second).stale = true;
    stale_.insert(waiting_.extract(it));
  }
  waiting_of_.erase(stamps);
}

std::vector<PageId> PageAllocator::AllocationOrder() const {
  std::vector<PageId> order(free_list_.rbegin(), free_list_.rend());
  for (const auto& [stamp, p] : stale_) order.push_back(p);
  for (PageId p = next_untouched_; p < capacity_; ++p) order.push_back(p);
  for (const auto& [stamp, p] : waiting_) order.push_back(p);
  return order;
}

const PageAllocator::PageState& PageAllocator::State(PageId page) const {
  PUNICA_CHECK_MSG(page >= 0 && page < capacity_, "foreign page");
  return pages_[static_cast<std::size_t>(page)];
}

PageAllocator::PageState& PageAllocator::State(PageId page) {
  PUNICA_CHECK_MSG(page >= 0 && page < capacity_, "foreign page");
  return pages_[static_cast<std::size_t>(page)];
}

}  // namespace punica
