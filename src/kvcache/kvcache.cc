#include "kvcache/kvcache.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "util/check.h"

// ASan builds keep the KV pool on the heap (see PoolStorage).
#if defined(__SANITIZE_ADDRESS__)
#define PUNICA_KV_HEAP_POOL 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PUNICA_KV_HEAP_POOL 1
#endif
#endif
#ifndef PUNICA_KV_HEAP_POOL
#include <sys/mman.h>
#endif

namespace punica {

PagedKvCache::PoolStorage::PoolStorage(std::size_t elems) : elems_(elems) {
  if (elems == 0) return;
#ifdef PUNICA_KV_HEAP_POOL
  data_ = static_cast<f16*>(std::calloc(elems, sizeof(f16)));
  PUNICA_CHECK_MSG(data_ != nullptr, "KV page pool allocation failed");
#else
  void* p = mmap(nullptr, elems * sizeof(f16), PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  PUNICA_CHECK_MSG(p != MAP_FAILED, "KV page pool mapping failed");
  data_ = static_cast<f16*>(p);
#endif
}

PagedKvCache::PoolStorage::~PoolStorage() { Release(); }

PagedKvCache::PoolStorage::PoolStorage(PoolStorage&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      elems_(std::exchange(other.elems_, 0)) {}

PagedKvCache::PoolStorage& PagedKvCache::PoolStorage::operator=(
    PoolStorage&& other) noexcept {
  if (this != &other) {
    Release();
    data_ = std::exchange(other.data_, nullptr);
    elems_ = std::exchange(other.elems_, 0);
  }
  return *this;
}

void PagedKvCache::PoolStorage::Release() {
  if (data_ == nullptr) return;
#ifdef PUNICA_KV_HEAP_POOL
  std::free(data_);
#else
  munmap(data_, elems_ * sizeof(f16));
#endif
  data_ = nullptr;
}

PagedKvCache::PagedKvCache(const KvCacheConfig& config)
    : config_(config),
      allocator_(config.num_pages),
      storage_(static_cast<std::size_t>(config.num_pages) *
               config.page_elems()) {
  PUNICA_CHECK(config.num_layers > 0);
  PUNICA_CHECK(config.num_kv_heads > 0);
  PUNICA_CHECK(config.head_dim > 0);
  PUNICA_CHECK(config.page_size > 0);
}

SeqId PagedKvCache::CreateSequence() {
  SeqId id = next_seq_++;
  seqs_.emplace(id, SeqState{});
  return id;
}

SeqId PagedKvCache::ForkFrom(SeqId src, std::int64_t n_tokens) {
  const SeqState& src_st = GetSeq(src);
  PUNICA_CHECK(n_tokens >= 0);
  PUNICA_CHECK_MSG(n_tokens <= src_st.len, "fork beyond source length");
  SeqState st;
  st.len = n_tokens;
  std::int32_t pages = config_.PagesNeeded(n_tokens);
  st.pages.reserve(static_cast<std::size_t>(pages));
  for (std::int32_t i = 0; i < pages; ++i) {
    PageId p = src_st.pages[static_cast<std::size_t>(i)];
    allocator_.Retain(p);
    st.pages.push_back(p);
  }
  SeqId id = next_seq_++;
  seqs_.emplace(id, std::move(st));
  return id;
}

bool PagedKvCache::Extend(SeqId seq, std::int64_t tokens) {
  PUNICA_CHECK(tokens >= 0);
  SeqState& st = GetSeq(seq);
  if (tokens == 0) return true;
  std::int64_t new_len = st.len + tokens;
  std::int32_t need = config_.PagesNeeded(new_len);

  // CoW: growth writes into the current tail page when it is partially
  // filled; if that page is shared (only after a mid-page ForkFrom),
  // deep-copy it first so shared pages are never written. The copy is
  // page-granular (all layers, K and V).
  bool cow = st.len % config_.page_size != 0 &&
             allocator_.RefCount(st.pages.back()) > 1;

  // Reserve every page this growth needs up front so failure rolls back
  // cleanly with no partial state.
  std::vector<PageId> newly;
  std::int32_t grow = need - static_cast<std::int32_t>(st.pages.size());
  while (static_cast<std::int32_t>(newly.size()) < grow + (cow ? 1 : 0)) {
    auto page = allocator_.Alloc();
    if (!page.has_value()) {
      for (PageId p : newly) allocator_.Release(p);
      return false;
    }
    newly.push_back(*page);
  }

  std::size_t next = 0;
  if (cow) {
    PageId fresh = newly[next++];
    PageId old = st.pages.back();
    std::copy_n(storage_.data() +
                    static_cast<std::size_t>(old) * config_.page_elems(),
                config_.page_elems(),
                storage_.data() +
                    static_cast<std::size_t>(fresh) * config_.page_elems());
    st.pages.back() = fresh;
    allocator_.Release(old);
  }
  st.pages.insert(st.pages.end(), newly.begin() + static_cast<std::ptrdiff_t>(
                                                      next),
                  newly.end());
  st.len = new_len;
  return true;
}

void PagedKvCache::FreeSequence(SeqId seq) {
  SeqState& st = GetSeq(seq);
  for (PageId p : st.pages) allocator_.Release(p);
  seqs_.erase(seq);
}

bool PagedKvCache::Contains(SeqId seq) const {
  return seqs_.contains(seq);
}

std::int64_t PagedKvCache::SeqLen(SeqId seq) const { return GetSeq(seq).len; }

std::int32_t PagedKvCache::SeqPages(SeqId seq) const {
  return static_cast<std::int32_t>(GetSeq(seq).pages.size());
}

std::int32_t PagedKvCache::PageRefCount(SeqId seq,
                                        std::int32_t page_idx) const {
  const SeqState& st = GetSeq(seq);
  PUNICA_CHECK(page_idx >= 0 &&
               page_idx < static_cast<std::int32_t>(st.pages.size()));
  return allocator_.RefCount(st.pages[static_cast<std::size_t>(page_idx)]);
}

std::size_t PagedKvCache::EntryOffset(const SeqState& st, int layer,
                                      std::int64_t pos, KvSlot slot) const {
  PUNICA_CHECK(layer >= 0 && layer < config_.num_layers);
  PUNICA_CHECK_MSG(pos >= 0 && pos < st.len, "position beyond sequence");
  auto page_idx = static_cast<std::size_t>(pos / config_.page_size);
  auto slot_idx = static_cast<std::size_t>(pos % config_.page_size);
  PageId page = st.pages[page_idx];
  // Layout within a page: [L, 2, N, P, D] — slot-in-page is the P axis.
  std::size_t entry = config_.token_entry_elems();
  std::size_t off =
      static_cast<std::size_t>(page) * config_.page_elems() +
      static_cast<std::size_t>(layer) * 2 * entry *
          static_cast<std::size_t>(config_.page_size) +
      static_cast<std::size_t>(slot) * entry *
          static_cast<std::size_t>(config_.page_size) +
      slot_idx * entry;
  return off;
}

std::span<f16> PagedKvCache::Entry(SeqId seq, int layer, std::int64_t pos,
                                   KvSlot slot) {
  const SeqState& st = GetSeq(seq);
  std::size_t off = EntryOffset(st, layer, pos, slot);
  PUNICA_CHECK_MSG(
      allocator_.RefCount(
          st.pages[static_cast<std::size_t>(pos / config_.page_size)]) == 1,
      "write to shared page");
  return {storage_.data() + off, config_.token_entry_elems()};
}

std::span<const f16> PagedKvCache::Entry(SeqId seq, int layer,
                                         std::int64_t pos,
                                         KvSlot slot) const {
  const SeqState& st = GetSeq(seq);
  std::size_t off = EntryOffset(st, layer, pos, slot);
  return {storage_.data() + off, config_.token_entry_elems()};
}

std::span<const PageId> PagedKvCache::PageTable(SeqId seq) const {
  return GetSeq(seq).pages;
}

std::string PagedKvCache::AuditInvariants() const {
  std::ostringstream err;
  std::vector<std::int32_t> refs(static_cast<std::size_t>(config_.num_pages));
  for (const auto& [id, st] : seqs_) {
    if (static_cast<std::int32_t>(st.pages.size()) !=
        config_.PagesNeeded(st.len)) {
      err << "sequence " << id << " holds " << st.pages.size()
          << " pages for " << st.len << " tokens";
      return err.str();
    }
    for (PageId p : st.pages) ++refs[static_cast<std::size_t>(p)];
  }
  std::int32_t unreferenced = 0;
  for (PageId p = 0; p < config_.num_pages; ++p) {
    std::int32_t rc = allocator_.RefCount(p);
    if (rc != refs[static_cast<std::size_t>(p)]) {
      err << "page " << p << " has refcount " << rc << " but "
          << refs[static_cast<std::size_t>(p)] << " page-table references";
      return err.str();
    }
    if (rc == 0) ++unreferenced;
  }
  std::vector<bool> listed(static_cast<std::size_t>(config_.num_pages));
  for (PageId p : allocator_.free_list()) {
    if (allocator_.RefCount(p) != 0 || listed[static_cast<std::size_t>(p)]) {
      err << "free list holds page " << p << " with refcount "
          << allocator_.RefCount(p) << (listed[static_cast<std::size_t>(p)]
                                            ? " twice"
                                            : "");
      return err.str();
    }
    listed[static_cast<std::size_t>(p)] = true;
  }
  if (allocator_.free_pages() != unreferenced) {
    err << "free list holds " << allocator_.free_pages() << " pages but "
        << unreferenced << " have refcount 0";
    return err.str();
  }
  for (const auto& [id, st] : seqs_) {
    for (std::size_t i = 0; i < st.pages.size(); ++i) {
      auto end = static_cast<std::int64_t>(i + 1) * config_.page_size;
      if (allocator_.RefCount(st.pages[i]) > 1 && end > st.len) {
        err << "shared page " << st.pages[i] << " is partial in sequence "
            << id << " (" << st.len << " tokens)";
        return err.str();
      }
    }
  }
  return "";
}

KvRunCursor::KvRunCursor(const PagedKvCache& kv, SeqId seq, int layer,
                         KvSlot slot, std::size_t prefetch_elem_off) {
  const KvCacheConfig& config = kv.config_;
  PUNICA_CHECK(layer >= 0 && layer < config.num_layers);
  const PagedKvCache::SeqState& st = kv.GetSeq(seq);
  storage_ = kv.storage_.data();
  pages_ = st.pages.data();
  page_elems_ = config.page_elems();
  entry_ = config.token_entry_elems();
  ls_off_ = static_cast<std::size_t>(layer) * 2 * entry_ *
                static_cast<std::size_t>(config.page_size) +
            static_cast<std::size_t>(slot) * entry_ *
                static_cast<std::size_t>(config.page_size);
  prefetch_off_ = prefetch_elem_off;
  page_size_ = config.page_size;
  seq_len_ = st.len;
}

bool KvRunCursor::Next(std::int64_t limit, KvRun* run) {
  if (limit > seq_len_) limit = seq_len_;
  if (pos_ >= limit) return false;
  const std::int64_t page_idx = pos_ / page_size_;
  const std::int64_t slot_idx = pos_ % page_size_;
  const std::int64_t run_end =
      std::min(limit, (page_idx + 1) * page_size_);
  run->data = storage_ +
              static_cast<std::size_t>(pages_[page_idx]) * page_elems_ +
              ls_off_ + static_cast<std::size_t>(slot_idx) * entry_;
  run->first_pos = pos_;
  run->len = static_cast<std::int32_t>(run_end - pos_);
  if (run_end < limit) {
#if defined(__GNUC__) || defined(__clang__)
    // The next page will be consumed by a following Next(): start its head
    // slice towards the caller now (4 lines ≈ one f16 head_dim=128 slice).
    const char* next = reinterpret_cast<const char*>(
        storage_ +
        static_cast<std::size_t>(pages_[page_idx + 1]) * page_elems_ +
        ls_off_ + prefetch_off_);
    for (int line = 0; line < 4; ++line) {
      __builtin_prefetch(next + 64 * line, 0, 3);
    }
#endif
  }
  pos_ = run_end;
  return true;
}

const PagedKvCache::SeqState& PagedKvCache::GetSeq(SeqId seq) const {
  auto it = seqs_.find(seq);
  PUNICA_CHECK_MSG(it != seqs_.end(), "unknown sequence");
  return it->second;
}

PagedKvCache::SeqState& PagedKvCache::GetSeq(SeqId seq) {
  auto it = seqs_.find(seq);
  PUNICA_CHECK_MSG(it != seqs_.end(), "unknown sequence");
  return it->second;
}

}  // namespace punica
