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
// mutable Entry accessor asserts it. The serving engine forks only at page
// boundaries, so every page it shares is full and its growth never copies.
// A direct caller that forks mid-page (n not a multiple of P) gets
// copy-on-write instead: the first Extend deep-copies the shared partial
// boundary page before writing into it.
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

  /// Grows the sequence by `tokens` slots, allocating pages on demand.
  /// Only after a mid-page ForkFrom is the partial tail page shared; then
  /// it is deep-copied first (CoW) so the growth can be written. Returns
  /// false (and rolls back) when the pool cannot cover the growth — the
  /// KvCache-pressure signal that triggers prefix-cache eviction and then
  /// migration.
  bool Extend(SeqId seq, std::int64_t tokens);

  /// Releases all page references of a sequence and forgets it. Pages still
  /// aliased by other sequences stay allocated.
  void FreeSequence(SeqId seq);

  bool Contains(SeqId seq) const;
  std::int64_t SeqLen(SeqId seq) const;
  std::int32_t SeqPages(SeqId seq) const;
  std::int32_t free_pages() const { return allocator_.free_pages(); }
  std::int32_t used_pages() const { return allocator_.used_pages(); }
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

  /// Checks the page-sharing invariants and returns the first violation
  /// ("" when all hold): each sequence holds exactly PagesNeeded(len)
  /// pages; each page's refcount equals its references from live page
  /// tables; the free list holds exactly the pages with refcount 0; and a
  /// page held by two or more sequences is full in each of them (whole-page
  /// sharing — a mid-page ForkFrom breaks it until its CoW copy). O(pages).
  std::string AuditInvariants() const;

 private:
  struct SeqState {
    std::vector<PageId> pages;
    std::int64_t len = 0;
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

  friend class KvRunCursor;  ///< reads SeqState + storage once at setup

  KvCacheConfig config_;
  PageAllocator allocator_;
  PoolStorage storage_;  ///< num_pages · page_elems, committed lazily
  std::unordered_map<SeqId, SeqState> seqs_;
  SeqId next_seq_ = 0;
};

}  // namespace punica
