// Paged KvCache with the paper's separable layout (§5.4):
//
//     [ Σ_i ⌈S_i/P⌉ , L, 2, N, P, D ]
//
// i.e. storage is a pool of pages; one page holds P token slots of K and V
// for *all* L layers of one sequence. The batch dimension is outermost
// (page-granular, per-sequence page tables), so sequences join and leave a
// batch independently — this is what enables continuous batching, unlike the
// HuggingFace [L, 2, B, N, S, D] layout where requests that enter a batch
// together must finish together (Fig. 6).
//
// Sharing (vLLM-style prefix reuse): ForkFrom creates a sequence whose first
// n tokens alias another sequence's pages via reference counts — whole
// shared pages are never copied. A shared page is never written; the
// mutable Entry accessor asserts it. A direct caller that forks mid-page (n
// not a multiple of P) gets copy-on-write: the first Extend deep-copies the
// shared partial boundary page before writing into it.
//
// Prefix cache (vLLM's automatic prefix caching, Kwon et al., SOSP '23):
// the serving engine keys every full page of its sequences, on the step
// the page becomes full (KeyFullPages). A page's key is (parent page and
// that page's generation, LoRA tag, the page's P token ids): a page's K/V
// depend on every token before it and on the adapter, and the parent
// stands for all earlier tokens. Keys are compared in full, never trusted
// by hash, so a hit is bit-exact. MatchCachedPages walks a chain's keys
// page by page; ForkCached retains the matched pages. A keyed page whose
// last reference drops stays cached as a reclaimable page (PageAllocator
// holds the reclaim order), and Alloc reclaims it only when it hands the
// page out again: the key is dropped then and the page's generation moves
// on, so keys recorded under the old generation — its cached descendants —
// no longer match. Only full pages are ever keyed or matched, so every page
// the engine shares is full and its growth never copies. A reclaimable
// page waits for its LoRA tag's next request; once that request has forked
// its hit (ExpireUnforked), the tag's pages it did not fork are stale and
// go before never-touched pages — see PageAllocator for the order.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "kvcache/page_allocator.h"
#include "tensor/half.h"

namespace punica {

using SeqId = std::int64_t;

struct KvCacheConfig {
  int num_layers = 0;
  int num_kv_heads = 0;
  int head_dim = 0;
  int page_size = 16;   ///< P: token slots per page
  std::int32_t num_pages = 0;

  /// Elements per (layer, K-or-V, token) entry.
  std::size_t token_entry_elems() const {
    return static_cast<std::size_t>(num_kv_heads) *
           static_cast<std::size_t>(head_dim);
  }
  /// fp16 elements in one page across all layers, K and V, P slots.
  std::size_t page_elems() const {
    return static_cast<std::size_t>(num_layers) * 2 *
           token_entry_elems() * static_cast<std::size_t>(page_size);
  }
  std::size_t page_bytes() const { return page_elems() * sizeof(f16); }
  std::int32_t PagesNeeded(std::int64_t seq_len) const {
    return static_cast<std::int32_t>(
        (seq_len + page_size - 1) / page_size);
  }
};

enum class KvSlot : int { kKey = 0, kValue = 1 };

/// A token chain given as two consecutive spans — e.g. a prompt and the
/// tokens generated after it — so callers need not concatenate them.
struct TokenChain {
  std::span<const std::int32_t> head;
  std::span<const std::int32_t> tail;

  std::int64_t size() const {
    return static_cast<std::int64_t>(head.size() + tail.size());
  }
  std::int32_t operator[](std::int64_t i) const {
    auto n = static_cast<std::int64_t>(head.size());
    return i < n ? head[static_cast<std::size_t>(i)]
                 : tail[static_cast<std::size_t>(i - n)];
  }
};

/// One contiguous strip of K or V entries: `len` consecutive token
/// positions starting at `first_pos`, whose entries sit token_entry_elems()
/// apart in page storage (the P axis of the [L, 2, N, P, D] page layout).
struct KvRun {
  const f16* data = nullptr;  ///< entry of first_pos (num_kv_heads·head_dim)
  std::int64_t first_pos = 0;
  std::int32_t len = 0;
};

class PagedKvCache;

/// Forward iterator over the contiguous page runs of one (sequence, layer,
/// K|V) column. Construction resolves the sequence (one hash lookup) and
/// the layer/slot offset once; each Next() then costs one page-table index
/// and yields up to page_size positions — amortizing the per-position
/// lookup + bounds checks the Entry accessor pays, which is where the
/// serial decode-attention kernel spent its time. When a run ends at a page
/// boundary with more positions ahead, Next() software-prefetches the next
/// page's slice at `prefetch_elem_off` (callers pass their head offset) so
/// DRAM-resident pages are in flight before the SIMD strip reaches them.
///
/// Snapshot semantics: the cursor caches raw storage pointers; Extend /
/// FreeSequence / CoW on the cache invalidate it. Read-only and safe to use
/// from many threads over one cache concurrently.
class KvRunCursor {
 public:
  KvRunCursor(const PagedKvCache& kv, SeqId seq, int layer, KvSlot slot,
              std::size_t prefetch_elem_off = 0);

  /// Jumps to an absolute position in [0, SeqLen].
  void Seek(std::int64_t pos) { pos_ = pos; }
  std::int64_t pos() const { return pos_; }

  /// Yields the next run, clipped at min(limit, SeqLen); false once the
  /// cursor has reached it. Advances past the returned run.
  bool Next(std::int64_t limit, KvRun* run);

 private:
  const f16* storage_ = nullptr;
  const PageId* pages_ = nullptr;
  std::size_t page_elems_ = 0;
  std::size_t entry_ = 0;    ///< token entry stride (elements)
  std::size_t ls_off_ = 0;   ///< (layer, slot) offset within a page
  std::size_t prefetch_off_ = 0;
  std::int64_t page_size_ = 0;
  std::int64_t seq_len_ = 0;
  std::int64_t pos_ = 0;
};

class PagedKvCache {
 public:
  explicit PagedKvCache(const KvCacheConfig& config);

  const KvCacheConfig& config() const { return config_; }

  /// Creates a sequence with zero tokens. Caller extends it before writing.
  SeqId CreateSequence();

  /// Creates a sequence whose first `n_tokens` alias `src`'s cached K/V:
  /// every covering page is shared by refcount (no data moves). Requires
  /// n_tokens ≤ SeqLen(src). The fork itself never allocates. A page-aligned
  /// fork (the engine's only kind) shares full pages only; a mid-page fork
  /// shares a partial boundary page, which the first Extend that would
  /// write into it deep-copies (copy-on-write).
  SeqId ForkFrom(SeqId src, std::int64_t n_tokens);

  /// Grows the sequence by `tokens` slots, allocating pages on demand and
  /// reclaiming cached pages in PageAllocator's order. Only after a
  /// mid-page ForkFrom is the partial tail page shared; then it is
  /// deep-copied first (CoW) so the growth can be written. Returns false
  /// (and changes nothing) when free plus reclaimable pages cannot cover
  /// the growth — the KvCache-pressure signal that triggers migration.
  bool Extend(SeqId seq, std::int64_t tokens);

  /// Releases all page references of a sequence and forgets it. Pages still
  /// aliased by other sequences stay allocated; keyed pages stay cached.
  /// The tail is released first, so it is reclaimed before the pages its
  /// key depends on.
  void FreeSequence(SeqId seq);

  // --- Prefix cache ---

  /// Keys each full page of `seq` not keyed yet: `chain` holds the
  /// sequence's tokens (at least SeqLen of them) and `tag` its LoRA id. A
  /// page whose key another page already holds — the same chain computed
  /// twice by concurrent misses — is swapped for that cached page (the
  /// fresh copy is released), and keying goes on. Only a different key
  /// with the same hash leaves the page, and every later page of `seq`,
  /// unkeyed.
  void KeyFullPages(SeqId seq, std::int32_t tag, TokenChain chain);
  /// The cached pages spelling `chain`'s first tokens under `tag`, in
  /// chain order, at most `max_pages` of them: page i holds tokens
  /// [i·P, (i+1)·P). Pure query.
  std::vector<PageId> MatchCachedPages(std::int32_t tag, TokenChain chain,
                                       std::int32_t max_pages) const;
  /// Creates a sequence over `pages` (a MatchCachedPages result, with no
  /// keys changed since): each page is retained — a reclaimable one is
  /// revived. The sequence holds pages.size()·P tokens.
  SeqId ForkCached(std::span<const PageId> pages);
  /// A request under `tag` has taken its hit (forked or not): `tag`'s
  /// reclaimable pages had their chance and become stale, so allocation
  /// reclaims them before it touches a new page.
  void ExpireUnforked(std::int32_t tag) { allocator_.ExpireGroup(tag); }

  bool Contains(SeqId seq) const;
  std::int64_t SeqLen(SeqId seq) const;
  std::int32_t SeqPages(SeqId seq) const;
  /// Pages holding neither references nor cached contents.
  std::int32_t free_pages() const { return allocator_.free_pages(); }
  /// Cached pages nothing references: reusable by a hit, or reclaimed by
  /// the next allocation that needs them.
  std::int32_t reclaimable_pages() const {
    return allocator_.reclaimable_pages();
  }
  /// Pages referenced or cached (capacity − free).
  std::int32_t used_pages() const { return allocator_.used_pages(); }
  /// Keyed pages, referenced or reclaimable.
  std::int32_t cached_pages() const {
    return static_cast<std::int32_t>(index_.size());
  }
  /// Pages keyed, and keyed pages reclaimed, since construction.
  std::int64_t pages_keyed() const { return pages_keyed_; }
  std::int64_t pages_reclaimed() const { return pages_reclaimed_; }
  std::int32_t shared_pages() const { return allocator_.shared_pages(); }
  std::size_t num_sequences() const { return seqs_.size(); }
  /// Reference count of one of `seq`'s pages (sharing introspection).
  std::int32_t PageRefCount(SeqId seq, std::int32_t page_idx) const;
  /// Reference count by physical page id.
  std::int32_t PageRefCount(PageId page) const {
    return allocator_.RefCount(page);
  }

  /// Mutable K or V entry for (sequence, layer, token position):
  /// num_kv_heads·head_dim fp16 values. Position must be < SeqLen, and the
  /// covering page must be exclusively owned (the CoW invariant: a shared
  /// page is never written).
  std::span<f16> Entry(SeqId seq, int layer, std::int64_t pos, KvSlot slot);
  std::span<const f16> Entry(SeqId seq, int layer, std::int64_t pos,
                             KvSlot slot) const;

  /// The page table (for tests / introspection).
  std::span<const PageId> PageTable(SeqId seq) const;

  /// Checks the page-sharing and key invariants and returns the first
  /// violation ("" when all hold): each sequence holds exactly
  /// PagesNeeded(len) pages; each page's refcount equals its references
  /// from live page tables; every refcount-0 page is on exactly one of the
  /// free list or a reclaim list, and only free-list pages lack a key; a
  /// page held by two or more sequences is full in each of them (whole-page
  /// sharing — a mid-page ForkFrom breaks it until its CoW copy); each
  /// keyed page is found by its own key and is full wherever it is held;
  /// and the parent of a reachable keyed page (one whose key names its
  /// parent's current generation) is keyed. O(pages).
  std::string AuditInvariants() const;

 private:
  struct SeqState {
    std::vector<PageId> pages;
    std::int64_t len = 0;
    std::int32_t keyed = 0;   ///< leading pages KeyFullPages has handled
    bool unkeyable = false;   ///< a page's key hash is another key's
  };

  /// A keyed page's identity; the P token ids sit in key_tokens_.
  struct PageKey {
    bool keyed = false;
    PageId parent = -1;  ///< -1: the first page of a chain
    std::uint64_t parent_gen = 0;
    std::int32_t tag = 0;
  };

  /// The page pool's backing store: `elems` zeroed f16 values. Linux and
  /// other POSIX builds map it anonymously, so the kernel supplies zero
  /// pages and commits each one on first write — resident memory follows
  /// the pages in use, not the pool size. Under AddressSanitizer it comes
  /// from the heap (calloc) instead, so the sanitizer keeps its redzones
  /// around the pool. Move-only; the destructor releases it.
  class PoolStorage {
   public:
    explicit PoolStorage(std::size_t elems);
    ~PoolStorage();
    PoolStorage(PoolStorage&& other) noexcept;
    PoolStorage& operator=(PoolStorage&& other) noexcept;
    PoolStorage(const PoolStorage&) = delete;
    PoolStorage& operator=(const PoolStorage&) = delete;

    f16* data() { return data_; }
    const f16* data() const { return data_; }

   private:
    void Release();

    f16* data_ = nullptr;
    std::size_t elems_ = 0;
  };

  std::size_t EntryOffset(const SeqState& st, int layer, std::int64_t pos,
                          KvSlot slot) const;
  const SeqState& GetSeq(SeqId seq) const;
  SeqState& GetSeq(SeqId seq);
  /// The index_ hash of the key (parent, parent_gen, tag, `chain`'s page
  /// i), and of the key `page` recorded.
  std::uint64_t KeyHash(PageId parent, std::uint64_t parent_gen,
                        std::int32_t tag, TokenChain chain,
                        std::int64_t i) const;
  std::uint64_t RecordedKeyHash(PageId page) const;
  /// `parent`'s current generation (0 for a chain's first page).
  std::uint64_t ParentGen(PageId parent) const;
  std::span<const std::int32_t> KeyTokens(PageId page) const;
  /// Whether `page`'s key is (parent at its current generation, tag,
  /// chain's page i).
  bool KeyMatches(PageId page, PageId parent, std::int32_t tag,
                  TokenChain chain, std::int64_t i) const;
  /// Allocates one page; a reclaimed page loses its key.
  PageId AllocPage();

  friend class KvRunCursor;  ///< reads SeqState + storage once at setup

  KvCacheConfig config_;
  PageAllocator allocator_;
  PoolStorage storage_;  ///< num_pages · page_elems, committed lazily
  std::unordered_map<SeqId, SeqState> seqs_;
  SeqId next_seq_ = 0;
  std::vector<PageKey> keys_;                ///< per page
  std::vector<std::int32_t> key_tokens_;     ///< per page, P token ids
  std::vector<std::uint64_t> generation_;    ///< per page, bumped on reclaim
  /// Key hash → keyed page. Two keys with one hash never coexist: the
  /// second page stays unkeyed, which costs a cache entry, never a wrong
  /// hit, because every match compares the full key.
  std::unordered_map<std::uint64_t, PageId> index_;
  std::int64_t pages_keyed_ = 0;
  std::int64_t pages_reclaimed_ = 0;
};

}  // namespace punica
