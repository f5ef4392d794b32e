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
               config.page_elems()),
      keys_(static_cast<std::size_t>(config.num_pages)),
      key_tokens_(static_cast<std::size_t>(config.num_pages) *
                  static_cast<std::size_t>(config.page_size)),
      generation_(static_cast<std::size_t>(config.num_pages)) {
  PUNICA_CHECK(config.num_layers > 0);
  PUNICA_CHECK(config.num_kv_heads > 0);
  PUNICA_CHECK(config.head_dim > 0);
  PUNICA_CHECK(config.page_size > 0);
}

PageId PagedKvCache::AllocPage() {
  std::optional<PageId> page = allocator_.Alloc();
  PUNICA_CHECK(page.has_value());
  PageKey& key = keys_[static_cast<std::size_t>(*page)];
  if (key.keyed) {
    // Reclaimed: forget the key, and move the generation on so the keys of
    // this page's cached descendants no longer match.
    index_.erase(RecordedKeyHash(*page));
    key = PageKey{};
    ++generation_[static_cast<std::size_t>(*page)];
    ++pages_reclaimed_;
  }
  return *page;
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

  // Check the whole growth up front so failure leaves no partial state
  // (and reclaims no cached page).
  std::int32_t grow = need - static_cast<std::int32_t>(st.pages.size());
  if (grow + (cow ? 1 : 0) > allocator_.available_pages()) return false;
  if (cow) {
    PageId fresh = AllocPage();
    PageId old = st.pages.back();
    std::copy_n(storage_.data() +
                    static_cast<std::size_t>(old) * config_.page_elems(),
                config_.page_elems(),
                storage_.data() +
                    static_cast<std::size_t>(fresh) * config_.page_elems());
    st.pages.back() = fresh;
    allocator_.Release(old);
  }
  for (std::int32_t i = 0; i < grow; ++i) st.pages.push_back(AllocPage());
  st.len = new_len;
  return true;
}

void PagedKvCache::FreeSequence(SeqId seq) {
  SeqState& st = GetSeq(seq);
  for (auto p = st.pages.rbegin(); p != st.pages.rend(); ++p) {
    allocator_.Release(*p);
  }
  seqs_.erase(seq);
}

std::uint64_t PagedKvCache::KeyHash(PageId parent, std::uint64_t parent_gen,
                                    std::int32_t tag, TokenChain chain,
                                    std::int64_t i) const {
  // splitmix64 over (parent, parent generation, tag, tokens).
  std::uint64_t h = 0;
  auto mix = [&h](std::uint64_t v) {
    h += v + 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = h;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    h = z ^ (z >> 31);
  };
  mix(static_cast<std::uint32_t>(parent));
  mix(parent_gen);
  mix(static_cast<std::uint32_t>(tag));
  const std::int64_t p = config_.page_size;
  for (std::int64_t t = i * p; t < (i + 1) * p; ++t) {
    mix(static_cast<std::uint32_t>(chain[t]));
  }
  return h;
}

std::uint64_t PagedKvCache::ParentGen(PageId parent) const {
  return parent < 0 ? 0 : generation_[static_cast<std::size_t>(parent)];
}

std::span<const std::int32_t> PagedKvCache::KeyTokens(PageId page) const {
  return std::span(key_tokens_)
      .subspan(static_cast<std::size_t>(page) *
                   static_cast<std::size_t>(config_.page_size),
               static_cast<std::size_t>(config_.page_size));
}

std::uint64_t PagedKvCache::RecordedKeyHash(PageId page) const {
  const PageKey& key = keys_[static_cast<std::size_t>(page)];
  return KeyHash(key.parent, key.parent_gen, key.tag, {KeyTokens(page), {}},
                 0);
}

bool PagedKvCache::KeyMatches(PageId page, PageId parent, std::int32_t tag,
                              TokenChain chain, std::int64_t i) const {
  const PageKey& key = keys_[static_cast<std::size_t>(page)];
  if (!key.keyed || key.parent != parent ||
      key.parent_gen != ParentGen(parent) || key.tag != tag) {
    return false;
  }
  std::span<const std::int32_t> tokens = KeyTokens(page);
  for (std::size_t t = 0; t < tokens.size(); ++t) {
    if (tokens[t] != chain[i * config_.page_size +
                           static_cast<std::int64_t>(t)]) {
      return false;
    }
  }
  return true;
}

void PagedKvCache::KeyFullPages(SeqId seq, std::int32_t tag,
                                TokenChain chain) {
  SeqState& st = GetSeq(seq);
  PUNICA_CHECK_MSG(chain.size() >= st.len, "chain shorter than sequence");
  const auto full = static_cast<std::int32_t>(st.len / config_.page_size);
  for (; !st.unkeyable && st.keyed < full; ++st.keyed) {
    const PageId page = st.pages[static_cast<std::size_t>(st.keyed)];
    PageKey& key = keys_[static_cast<std::size_t>(page)];
    if (key.keyed) continue;  // a cached page this sequence forked
    const PageId parent =
        st.keyed == 0 ? -1 : st.pages[static_cast<std::size_t>(st.keyed - 1)];
    const std::uint64_t hash =
        KeyHash(parent, ParentGen(parent), tag, chain, st.keyed);
    auto [it, inserted] = index_.try_emplace(hash, page);
    if (!inserted) {
      if (!KeyMatches(it->second, parent, tag, chain, st.keyed)) {
        st.unkeyable = true;  // another key with the same hash
        break;
      }
      // The same page computed twice (concurrent misses, or the last page
      // of a repeated page-aligned prompt): its K/V are bit-identical, so
      // the sequence swaps its fresh copy for the cached one and keying
      // goes on from there.
      allocator_.Retain(it->second);
      allocator_.Release(page);
      st.pages[static_cast<std::size_t>(st.keyed)] = it->second;
      continue;
    }
    key = {.keyed = true,
           .parent = parent,
           .parent_gen = ParentGen(parent),
           .tag = tag};
    for (std::int64_t t = 0; t < config_.page_size; ++t) {
      key_tokens_[static_cast<std::size_t>(page) *
                      static_cast<std::size_t>(config_.page_size) +
                  static_cast<std::size_t>(t)] =
          chain[st.keyed * config_.page_size + t];
    }
    allocator_.MarkCached(page, tag);
    ++pages_keyed_;
  }
}

std::vector<PageId> PagedKvCache::MatchCachedPages(
    std::int32_t tag, TokenChain chain, std::int32_t max_pages) const {
  std::vector<PageId> pages;
  const std::int64_t limit =
      std::min<std::int64_t>(max_pages, chain.size() / config_.page_size);
  PageId parent = -1;
  for (std::int64_t i = 0; i < limit; ++i) {
    auto it = index_.find(KeyHash(parent, ParentGen(parent), tag, chain, i));
    if (it == index_.end() || !KeyMatches(it->second, parent, tag, chain, i)) {
      break;
    }
    parent = it->second;
    pages.push_back(parent);
  }
  return pages;
}

SeqId PagedKvCache::ForkCached(std::span<const PageId> pages) {
  SeqState st;
  st.pages.assign(pages.begin(), pages.end());
  st.len = static_cast<std::int64_t>(pages.size()) * config_.page_size;
  st.keyed = static_cast<std::int32_t>(pages.size());
  for (PageId p : pages) {
    PUNICA_CHECK_MSG(keys_[static_cast<std::size_t>(p)].keyed,
                     "fork of an uncached page");
    allocator_.Retain(p);
  }
  SeqId id = next_seq_++;
  seqs_.emplace(id, std::move(st));
  return id;
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
  std::vector<PageId> order = allocator_.AllocationOrder();
  for (PageId p : order) {
    if (allocator_.RefCount(p) != 0 || listed[static_cast<std::size_t>(p)]) {
      err << "free or reclaim list holds page " << p << " with refcount "
          << allocator_.RefCount(p)
          << (listed[static_cast<std::size_t>(p)] ? " twice" : "");
      return err.str();
    }
    listed[static_cast<std::size_t>(p)] = true;
  }
  if (static_cast<std::int32_t>(order.size()) != unreferenced) {
    err << "free and reclaim lists hold " << order.size() << " pages but "
        << unreferenced << " have refcount 0";
    return err.str();
  }
  std::int32_t keyed = 0;
  std::int32_t reclaimable = 0;
  for (PageId p = 0; p < config_.num_pages; ++p) {
    const PageKey& key = keys_[static_cast<std::size_t>(p)];
    if (key.keyed != allocator_.IsCached(p)) {
      err << "page " << p << (key.keyed ? " is keyed but not cached"
                                        : " is cached but not keyed");
      return err.str();
    }
    if (!key.keyed) continue;
    ++keyed;
    if (allocator_.RefCount(p) == 0) ++reclaimable;
    auto it = index_.find(RecordedKeyHash(p));
    if (it == index_.end() || it->second != p) {
      err << "keyed page " << p << " is not found by its own key";
      return err.str();
    }
    if (key.parent >= 0 && key.parent_gen == ParentGen(key.parent) &&
        !keys_[static_cast<std::size_t>(key.parent)].keyed) {
      err << "keyed page " << p << " names unkeyed page " << key.parent
          << " as its parent";
      return err.str();
    }
  }
  if (static_cast<std::size_t>(keyed) != index_.size() ||
      reclaimable != allocator_.reclaimable_pages()) {
    err << index_.size() << " keys and " << allocator_.reclaimable_pages()
        << " reclaimable pages for " << keyed << " keyed pages, "
        << reclaimable << " of them unreferenced";
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
      if (keys_[static_cast<std::size_t>(st.pages[i])].keyed &&
          end > st.len) {
        err << "keyed page " << st.pages[i] << " is partial in sequence "
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
