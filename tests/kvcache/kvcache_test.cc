#include "kvcache/kvcache.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "util/rng.h"

namespace punica {
namespace {

KvCacheConfig SmallConfig(std::int32_t pages = 8, int page_size = 4) {
  return {.num_layers = 2,
          .num_kv_heads = 2,
          .head_dim = 4,
          .page_size = page_size,
          .num_pages = pages};
}

TEST(KvCacheConfigTest, SizeArithmetic) {
  KvCacheConfig c = SmallConfig();
  EXPECT_EQ(c.token_entry_elems(), 8u);          // 2 heads × 4 dim
  EXPECT_EQ(c.page_elems(), 2u * 2 * 8 * 4);     // L·2·entry·P
  EXPECT_EQ(c.page_bytes(), c.page_elems() * 2);
  EXPECT_EQ(c.PagesNeeded(0), 0);
  EXPECT_EQ(c.PagesNeeded(1), 1);
  EXPECT_EQ(c.PagesNeeded(4), 1);
  EXPECT_EQ(c.PagesNeeded(5), 2);
}

TEST(KvCacheTest, CreateExtendFree) {
  PagedKvCache kv(SmallConfig());
  SeqId s = kv.CreateSequence();
  EXPECT_TRUE(kv.Contains(s));
  EXPECT_EQ(kv.SeqLen(s), 0);
  EXPECT_TRUE(kv.Extend(s, 5));
  EXPECT_EQ(kv.SeqLen(s), 5);
  EXPECT_EQ(kv.SeqPages(s), 2);
  EXPECT_EQ(kv.used_pages(), 2);
  kv.FreeSequence(s);
  EXPECT_FALSE(kv.Contains(s));
  EXPECT_EQ(kv.used_pages(), 0);
}

TEST(KvCacheTest, ExtendByOneAllocatesLazily) {
  PagedKvCache kv(SmallConfig());
  SeqId s = kv.CreateSequence();
  for (int i = 1; i <= 8; ++i) {
    ASSERT_TRUE(kv.Extend(s, 1));
    EXPECT_EQ(kv.SeqLen(s), i);
    EXPECT_EQ(kv.SeqPages(s), (i + 3) / 4);
  }
}

TEST(KvCacheTest, ExhaustionRollsBack) {
  PagedKvCache kv(SmallConfig(/*pages=*/2));
  SeqId a = kv.CreateSequence();
  ASSERT_TRUE(kv.Extend(a, 8));  // consumes both pages
  SeqId b = kv.CreateSequence();
  EXPECT_FALSE(kv.Extend(b, 1));
  EXPECT_EQ(kv.SeqLen(b), 0);
  EXPECT_EQ(kv.SeqPages(b), 0);
  // Rollback must not leak partial allocations on multi-page failures.
  kv.FreeSequence(a);
  SeqId c = kv.CreateSequence();
  EXPECT_FALSE(kv.Extend(c, 100));     // needs 25 pages > 2
  EXPECT_EQ(kv.free_pages(), 2);       // nothing leaked
  EXPECT_TRUE(kv.Extend(c, 8));
}

TEST(KvCacheTest, EntriesAreSeparatePerSlotAndSurviveOtherSequences) {
  PagedKvCache kv(SmallConfig());
  SeqId a = kv.CreateSequence();
  SeqId b = kv.CreateSequence();
  ASSERT_TRUE(kv.Extend(a, 3));
  ASSERT_TRUE(kv.Extend(b, 2));

  // Write distinct patterns into every (seq, layer, pos, slot).
  auto write = [&](SeqId s, int layer, std::int64_t pos, KvSlot slot,
                   float base) {
    auto e = kv.Entry(s, layer, pos, slot);
    for (std::size_t i = 0; i < e.size(); ++i) {
      e[i] = f16(base + static_cast<float>(i));
    }
  };
  write(a, 0, 0, KvSlot::kKey, 10);
  write(a, 0, 0, KvSlot::kValue, 20);
  write(a, 1, 2, KvSlot::kKey, 30);
  write(b, 0, 1, KvSlot::kKey, 40);

  auto expect = [&](SeqId s, int layer, std::int64_t pos, KvSlot slot,
                    float base) {
    auto e = kv.Entry(s, layer, pos, slot);
    for (std::size_t i = 0; i < e.size(); ++i) {
      EXPECT_EQ(e[i].ToFloat(), base + static_cast<float>(i));
    }
  };
  expect(a, 0, 0, KvSlot::kKey, 10);
  expect(a, 0, 0, KvSlot::kValue, 20);
  expect(a, 1, 2, KvSlot::kKey, 30);
  expect(b, 0, 1, KvSlot::kKey, 40);

  // Freeing b must not disturb a (separable layout).
  kv.FreeSequence(b);
  expect(a, 0, 0, KvSlot::kKey, 10);
  expect(a, 1, 2, KvSlot::kKey, 30);
}

TEST(KvCacheTest, PagesReusedAfterFreeWithoutCrosstalk) {
  PagedKvCache kv(SmallConfig(/*pages=*/2));
  SeqId a = kv.CreateSequence();
  ASSERT_TRUE(kv.Extend(a, 4));
  auto e = kv.Entry(a, 0, 0, KvSlot::kKey);
  e[0] = f16(7.0f);
  kv.FreeSequence(a);

  SeqId b = kv.CreateSequence();
  ASSERT_TRUE(kv.Extend(b, 4));
  // Page contents are stale (no zeroing on alloc — matches GPU behaviour);
  // what matters is that writes land in b's entries and reads are framed
  // correctly.
  auto eb = kv.Entry(b, 0, 0, KvSlot::kKey);
  eb[0] = f16(9.0f);
  EXPECT_EQ(kv.Entry(b, 0, 0, KvSlot::kKey)[0].ToFloat(), 9.0f);
}

TEST(KvCacheTest, PageTableGrowth) {
  PagedKvCache kv(SmallConfig());
  SeqId s = kv.CreateSequence();
  ASSERT_TRUE(kv.Extend(s, 9));  // 3 pages of size 4
  auto table = kv.PageTable(s);
  EXPECT_EQ(table.size(), 3u);
}

TEST(KvCacheTest, ManySequencesInterleaved) {
  KvCacheConfig cfg = SmallConfig(/*pages=*/32);
  PagedKvCache kv(cfg);
  Pcg32 rng(55);
  std::vector<SeqId> seqs;
  std::vector<std::int64_t> lens;
  for (int i = 0; i < 8; ++i) {
    seqs.push_back(kv.CreateSequence());
    lens.push_back(0);
  }
  for (int step = 0; step < 200; ++step) {
    std::size_t i = rng.NextBounded(8);
    if (kv.Extend(seqs[i], 1)) {
      ++lens[i];
      // Tag the newest slot.
      auto e = kv.Entry(seqs[i], 0, lens[i] - 1, KvSlot::kKey);
      e[0] = f16(static_cast<float>(i * 100 + lens[i]));
    }
  }
  // Every sequence's every position still holds its tag.
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(kv.SeqLen(seqs[i]), lens[i]);
    for (std::int64_t pos = 0; pos < lens[i]; ++pos) {
      auto e = kv.Entry(seqs[i], 0, pos, KvSlot::kKey);
      EXPECT_EQ(e[0].ToFloat(), static_cast<float>(i * 100 + pos + 1));
    }
  }
}

// --- Sharing: ForkFrom + copy-on-write ---

TEST(KvCacheForkTest, ForkAliasesWholePagesByReference) {
  PagedKvCache kv(SmallConfig());  // page size 4
  SeqId src = kv.CreateSequence();
  ASSERT_TRUE(kv.Extend(src, 10));  // 3 pages (2 full + 1 partial)
  ASSERT_EQ(kv.used_pages(), 3);

  SeqId fork = kv.ForkFrom(src, 10);
  EXPECT_EQ(kv.SeqLen(fork), 10);
  EXPECT_EQ(kv.SeqPages(fork), 3);
  // No data moved: the fork holds the same physical pages.
  auto src_table = kv.PageTable(src);
  auto fork_table = kv.PageTable(fork);
  ASSERT_EQ(src_table.size(), fork_table.size());
  for (std::size_t i = 0; i < src_table.size(); ++i) {
    EXPECT_EQ(src_table[i], fork_table[i]);
  }
  EXPECT_EQ(kv.used_pages(), 3);
  EXPECT_EQ(kv.shared_pages(), 3);
  EXPECT_EQ(kv.PageRefCount(fork, 0), 2);

  // Reads through the fork see the source's K/V bits (same storage).
  const PagedKvCache& ckv = kv;
  EXPECT_EQ(ckv.Entry(fork, 0, 9, KvSlot::kKey).data(),
            ckv.Entry(src, 0, 9, KvSlot::kKey).data());
}

TEST(KvCacheForkTest, PartialPrefixForkSharesOnlyCoveringPages) {
  PagedKvCache kv(SmallConfig());
  SeqId src = kv.CreateSequence();
  ASSERT_TRUE(kv.Extend(src, 10));
  SeqId fork = kv.ForkFrom(src, 5);  // 2 pages: 1 full + 1 partial boundary
  EXPECT_EQ(kv.SeqLen(fork), 5);
  EXPECT_EQ(kv.SeqPages(fork), 2);
  EXPECT_EQ(kv.shared_pages(), 2);
  EXPECT_EQ(kv.PageRefCount(src, 2), 1);  // src's tail stays exclusive
}

TEST(KvCacheForkTest, ExtendCopiesSharedBoundaryPageBeforeWriting) {
  PagedKvCache kv(SmallConfig(/*pages=*/8));
  SeqId src = kv.CreateSequence();
  ASSERT_TRUE(kv.Extend(src, 6));  // page 0 full, page 1 half
  // Tag the boundary slot the fork will inherit.
  kv.Entry(src, 0, 5, KvSlot::kKey)[0] = f16(55.0f);
  kv.Entry(src, 1, 4, KvSlot::kValue)[0] = f16(44.0f);

  SeqId fork = kv.ForkFrom(src, 6);
  ASSERT_EQ(kv.used_pages(), 2);
  // A mid-page fork shares a partial page: the whole-page audit flags it
  // until the copy below.
  EXPECT_NE(kv.AuditInvariants().find("partial"), std::string::npos);
  // Growing the fork writes into the shared partial tail page → the fork
  // must deep-copy that one page (CoW) and leave the source untouched.
  ASSERT_TRUE(kv.Extend(fork, 3));  // len 9: CoW page 1 + one fresh page
  EXPECT_EQ(kv.AuditInvariants(), "");
  EXPECT_EQ(kv.used_pages(), 4);
  EXPECT_EQ(kv.shared_pages(), 1);  // only the full page 0 is still shared
  EXPECT_NE(kv.PageTable(fork)[1], kv.PageTable(src)[1]);
  EXPECT_EQ(kv.PageTable(fork)[0], kv.PageTable(src)[0]);

  // The copy carried the inherited bits...
  const PagedKvCache& ckv = kv;
  EXPECT_EQ(ckv.Entry(fork, 0, 5, KvSlot::kKey)[0].ToFloat(), 55.0f);
  EXPECT_EQ(ckv.Entry(fork, 1, 4, KvSlot::kValue)[0].ToFloat(), 44.0f);
  // ...and diverging writes stay private to the fork.
  kv.Entry(fork, 0, 7, KvSlot::kKey)[0] = f16(77.0f);
  ASSERT_TRUE(kv.Extend(src, 2));  // src grows into its own page 1 (no CoW
                                   // needed: src's tail is exclusive again)
  EXPECT_EQ(kv.used_pages(), 4);
  kv.Entry(src, 0, 7, KvSlot::kKey)[0] = f16(11.0f);
  EXPECT_EQ(ckv.Entry(fork, 0, 7, KvSlot::kKey)[0].ToFloat(), 77.0f);
  EXPECT_EQ(ckv.Entry(src, 0, 7, KvSlot::kKey)[0].ToFloat(), 11.0f);
}

TEST(KvCacheForkTest, PageAlignedForkExtendsWithoutCopy) {
  PagedKvCache kv(SmallConfig());
  SeqId src = kv.CreateSequence();
  ASSERT_TRUE(kv.Extend(src, 8));  // 2 full pages
  SeqId fork = kv.ForkFrom(src, 8);
  EXPECT_EQ(kv.used_pages(), 2);
  EXPECT_EQ(kv.AuditInvariants(), "");
  ASSERT_TRUE(kv.Extend(fork, 1));  // growth starts a fresh page — no CoW
  EXPECT_EQ(kv.used_pages(), 3);
  EXPECT_EQ(kv.shared_pages(), 2);
  EXPECT_EQ(kv.AuditInvariants(), "");
  kv.FreeSequence(src);
  EXPECT_EQ(kv.AuditInvariants(), "");
  kv.FreeSequence(fork);
  EXPECT_EQ(kv.AuditInvariants(), "");
  EXPECT_EQ(kv.free_pages(), 8);
}

TEST(KvCacheForkTest, CowExhaustionRollsBackCleanly) {
  PagedKvCache kv(SmallConfig(/*pages=*/2));
  SeqId src = kv.CreateSequence();
  ASSERT_TRUE(kv.Extend(src, 6));  // both pages in use, page 1 partial
  SeqId fork = kv.ForkFrom(src, 6);
  // Extending the fork needs the CoW copy of page 1, but the pool is empty.
  EXPECT_FALSE(kv.Extend(fork, 1));
  EXPECT_EQ(kv.SeqLen(fork), 6);
  EXPECT_EQ(kv.SeqPages(fork), 2);
  EXPECT_EQ(kv.PageTable(fork)[1], kv.PageTable(src)[1]);  // still aliased
  EXPECT_EQ(kv.free_pages(), 0);
  // Freeing the source's references doesn't free shared pages...
  kv.FreeSequence(src);
  EXPECT_EQ(kv.free_pages(), 0);
  EXPECT_EQ(kv.shared_pages(), 0);
  // ...but now the fork owns its tail exclusively: no copy needed. The
  // fork still cannot grow (no free page for slot 6? it CAN: len 6 % 4 != 0
  // and page is exclusive → writes land in page 1 directly).
  EXPECT_TRUE(kv.Extend(fork, 2));
  EXPECT_EQ(kv.SeqLen(fork), 8);
  kv.FreeSequence(fork);
  EXPECT_EQ(kv.free_pages(), 2);
}

TEST(KvCacheForkTest, FreeOrderIndependence) {
  PagedKvCache kv(SmallConfig());
  SeqId src = kv.CreateSequence();
  ASSERT_TRUE(kv.Extend(src, 7));
  SeqId f1 = kv.ForkFrom(src, 7);
  SeqId f2 = kv.ForkFrom(src, 4);
  EXPECT_EQ(kv.used_pages(), 2);
  kv.FreeSequence(src);  // forks keep the pages alive
  EXPECT_EQ(kv.used_pages(), 2);
  const PagedKvCache& ckv = kv;
  (void)ckv.Entry(f1, 1, 6, KvSlot::kValue);  // still addressable
  kv.FreeSequence(f1);
  EXPECT_EQ(kv.used_pages(), 1);  // page 0 held by f2
  kv.FreeSequence(f2);
  EXPECT_EQ(kv.used_pages(), 0);
  EXPECT_EQ(kv.free_pages(), 8);
}

// --- Prefix cache: page keys ---

/// A sequence of `tokens.size()` tokens (whole pages) keyed under `tag`.
SeqId KeyedSequence(PagedKvCache& kv, std::int32_t tag,
                    const std::vector<std::int32_t>& tokens) {
  SeqId s = kv.CreateSequence();
  EXPECT_TRUE(kv.Extend(s, static_cast<std::int64_t>(tokens.size())));
  kv.KeyFullPages(s, tag, {tokens, {}});
  return s;
}

std::vector<std::int32_t> Concat(std::vector<std::int32_t> a,
                                 const std::vector<std::int32_t>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

const std::vector<std::int32_t> kPageX = {1, 2, 3, 4};
const std::vector<std::int32_t> kPageY = {5, 6, 7, 8};
const std::vector<std::int32_t> kPageZ = {9, 9, 9, 9};

TEST(KvCacheKeyTest, LookupWalksKeyedPagesAndForksByRetaining) {
  PagedKvCache kv(SmallConfig());
  SeqId s = KeyedSequence(kv, 0, Concat(kPageX, kPageY));
  EXPECT_EQ(kv.cached_pages(), 2);
  EXPECT_EQ(kv.MatchCachedPages(0, {Concat(kPageX, kPageY), {}}, 8),
            (std::vector<PageId>{0, 1}));
  // The chain may be split anywhere; max_pages caps the match.
  const std::vector<std::int32_t> head = {1, 2, 3};
  const std::vector<std::int32_t> tail = {4, 5, 6, 7, 8, 0};
  EXPECT_EQ(kv.MatchCachedPages(0, {head, tail}, 8),
            (std::vector<PageId>{0, 1}));
  EXPECT_EQ(kv.MatchCachedPages(0, {Concat(kPageX, kPageY), {}}, 1),
            (std::vector<PageId>{0}));
  // A mismatch in the second page stops the walk after the first.
  EXPECT_EQ(kv.MatchCachedPages(0, {Concat(kPageX, kPageZ), {}}, 8),
            (std::vector<PageId>{0}));
  // The same tokens under another LoRA tag match nothing.
  EXPECT_TRUE(
      kv.MatchCachedPages(1, {Concat(kPageX, kPageY), {}}, 8).empty());
  SeqId fork = kv.ForkCached(std::vector<PageId>{0, 1});
  EXPECT_EQ(kv.SeqLen(fork), 8);
  EXPECT_EQ(kv.PageRefCount(0), 2);
  EXPECT_EQ(kv.AuditInvariants(), "");
  kv.FreeSequence(s);
  kv.FreeSequence(fork);
  EXPECT_EQ(kv.AuditInvariants(), "");
}

TEST(KvCacheKeyTest, LookupRevivesReclaimablePages) {
  PagedKvCache kv(SmallConfig());
  kv.FreeSequence(KeyedSequence(kv, 0, Concat(kPageX, kPageY)));
  // Both keyed pages stay cached with no references.
  EXPECT_EQ(kv.PageRefCount(0), 0);
  EXPECT_EQ(kv.reclaimable_pages(), 2);
  EXPECT_EQ(kv.free_pages(), 6);
  std::vector<PageId> hit =
      kv.MatchCachedPages(0, {Concat(kPageX, kPageY), {}}, 8);
  ASSERT_EQ(hit, (std::vector<PageId>{0, 1}));
  SeqId fork = kv.ForkCached(hit);
  EXPECT_EQ(kv.PageRefCount(0), 1);
  EXPECT_EQ(kv.PageRefCount(1), 1);
  EXPECT_EQ(kv.reclaimable_pages(), 0);  // off the reclaim list
  EXPECT_EQ(kv.AuditInvariants(), "");
  // Filling the pool hands out the 6 free pages, never the forked ones.
  SeqId rest = kv.CreateSequence();
  EXPECT_TRUE(kv.Extend(rest, 6 * 4));
  EXPECT_FALSE(kv.Extend(rest, 1));
  EXPECT_EQ(kv.pages_reclaimed(), 0);
  EXPECT_EQ(kv.AuditInvariants(), "");
  kv.FreeSequence(fork);
  kv.FreeSequence(rest);
  EXPECT_EQ(kv.AuditInvariants(), "");
}

TEST(KvCacheKeyTest, FreedChainIsReclaimedTailFirst) {
  // A page's key depends on the pages before it, so reclaiming the tail
  // first keeps the longest still-matchable prefix cached.
  PagedKvCache kv(SmallConfig(/*pages=*/2));
  kv.FreeSequence(KeyedSequence(kv, 0, Concat(kPageX, kPageY)));
  SeqId other = KeyedSequence(kv, 0, kPageZ);
  EXPECT_EQ(kv.PageTable(other)[0], 1);  // Y's page
  EXPECT_EQ(kv.MatchCachedPages(0, {Concat(kPageX, kPageY), {}}, 2),
            (std::vector<PageId>{0}));
  EXPECT_EQ(kv.AuditInvariants(), "");
  kv.FreeSequence(other);
}

TEST(KvCacheKeyTest, ConcurrentMissSwapsSecondCopyForTheCachedPages) {
  PagedKvCache kv(SmallConfig());
  const std::vector<std::int32_t> chain =
      Concat(Concat(kPageX, kPageY), kPageZ);
  SeqId first = kv.CreateSequence();
  SeqId second = kv.CreateSequence();
  ASSERT_TRUE(kv.Extend(first, 8));   // pages 0, 1
  ASSERT_TRUE(kv.Extend(second, 8));  // pages 2, 3
  kv.KeyFullPages(first, 0, {chain, {}});
  kv.KeyFullPages(second, 0, {chain, {}});
  // The second copy's pages are duplicates: the sequence now holds the
  // cached pages and its own copies are free again.
  std::span<const PageId> table = kv.PageTable(second);
  EXPECT_EQ(std::vector<PageId>(table.begin(), table.end()),
            (std::vector<PageId>{0, 1}));
  EXPECT_EQ(kv.PageRefCount(0), 2);
  EXPECT_EQ(kv.PageRefCount(1), 2);
  EXPECT_EQ(kv.cached_pages(), 2);
  EXPECT_EQ(kv.pages_keyed(), 2);
  EXPECT_EQ(kv.free_pages(), 6);
  EXPECT_EQ(kv.AuditInvariants(), "");
  // Keying goes on after the swap: the second sequence's next page is
  // keyed under the cached parent.
  ASSERT_TRUE(kv.Extend(second, 4));
  kv.KeyFullPages(second, 0, {chain, {}});
  const PageId z = kv.PageTable(second)[2];
  EXPECT_EQ(kv.cached_pages(), 3);
  EXPECT_EQ(kv.MatchCachedPages(0, {chain, {}}, 8),
            (std::vector<PageId>{0, 1, z}));
  EXPECT_EQ(kv.AuditInvariants(), "");
  kv.FreeSequence(second);
  EXPECT_EQ(kv.reclaimable_pages(), 1);  // Z; X and Y are still held
  kv.FreeSequence(first);
  EXPECT_EQ(kv.reclaimable_pages(), 3);
  EXPECT_EQ(kv.free_pages(), 5);
  EXPECT_EQ(kv.AuditInvariants(), "");
}

TEST(KvCacheKeyTest, ReclaimingAPageInvalidatesItsKeyedDescendants) {
  PagedKvCache kv(SmallConfig(/*pages=*/2));
  SeqId xy = KeyedSequence(kv, 0, Concat(kPageX, kPageY));  // X 0, Y 1
  // Hold Y alone through a one-page fork, so it is released, and
  // reclaimed, after X.
  SeqId y = kv.ForkCached(std::vector<PageId>{1});
  kv.FreeSequence(xy);
  kv.FreeSequence(y);
  ASSERT_EQ(kv.reclaimable_pages(), 2);
  // Reclaim X's page and key it as Z.
  SeqId z = KeyedSequence(kv, 0, kPageZ);
  ASSERT_EQ(kv.PageTable(z)[0], 0);
  EXPECT_EQ(kv.pages_reclaimed(), 1);
  // Y's key names page 0 as its parent, but under X's generation: Z ⧺ Y
  // must match Z's page only.
  EXPECT_EQ(kv.MatchCachedPages(0, {Concat(kPageZ, kPageY), {}}, 2),
            (std::vector<PageId>{0}));
  EXPECT_TRUE(
      kv.MatchCachedPages(0, {Concat(kPageX, kPageY), {}}, 2).empty());
  EXPECT_EQ(kv.AuditInvariants(), "");
  kv.FreeSequence(z);
  EXPECT_EQ(kv.AuditInvariants(), "");
}

#if defined(__linux__)
/// Resident set size from /proc/self/statm, in bytes.
std::size_t ResidentBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0;
  unsigned long resident = 0;
  const int n = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  return n == 2 ? resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE))
                : 0;
}

bool AddressSanitized() {
#if defined(__SANITIZE_ADDRESS__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return true;
#endif
#endif
  return false;
}

TEST(KvCachePoolTest, PagesCommitOnFirstWrite) {
  // 4096 pages × 64 KiB = 256 MiB of pool. Mapped lazily, constructing it
  // must not make it resident; under ASan the pool is a heap block and the
  // sanitizer's shadow bookkeeping may touch memory, so only the data
  // checks run there.
  const KvCacheConfig config{.num_layers = 4,
                             .num_kv_heads = 4,
                             .head_dim = 64,
                             .page_size = 16,
                             .num_pages = 4096};
  ASSERT_GE(static_cast<std::size_t>(config.num_pages) * config.page_bytes(),
            std::size_t{256} << 20);
  const std::size_t before = ResidentBytes();
  PagedKvCache kv(config);
  const std::size_t after = ResidentBytes();
  if (!AddressSanitized()) {
    EXPECT_LT(after, before + (std::size_t{16} << 20));
  }

  // Written pages (first and last of the pool included) and a CoW-copied
  // boundary page read back intact.
  const auto value = [](SeqId s, int layer, std::int64_t pos, KvSlot slot,
                        std::size_t i) {
    return f16(static_cast<float>((s * 7 + layer * 5 + pos * 3 + i +
                                   static_cast<int>(slot)) %
                                  1024));
  };
  const auto write = [&](SeqId s, std::int64_t lo, std::int64_t hi) {
    for (int layer = 0; layer < config.num_layers; ++layer) {
      for (std::int64_t pos = lo; pos < hi; ++pos) {
        for (KvSlot slot : {KvSlot::kKey, KvSlot::kValue}) {
          auto e = kv.Entry(s, layer, pos, slot);
          for (std::size_t i = 0; i < e.size(); ++i) {
            e[i] = value(s, layer, pos, slot, i);
          }
        }
      }
    }
  };
  const auto check = [&](SeqId s, SeqId written_by, std::int64_t lo,
                         std::int64_t hi) {
    for (int layer = 0; layer < config.num_layers; ++layer) {
      for (std::int64_t pos = lo; pos < hi; ++pos) {
        for (KvSlot slot : {KvSlot::kKey, KvSlot::kValue}) {
          std::span<const f16> e =
              std::as_const(kv).Entry(s, layer, pos, slot);
          for (std::size_t i = 0; i < e.size(); ++i) {
            ASSERT_EQ(e[i], value(written_by, layer, pos, slot, i))
                << "seq " << s << " layer " << layer << " pos " << pos;
          }
        }
      }
    }
  };
  const std::int64_t pool_tokens =
      static_cast<std::int64_t>(config.num_pages) * config.page_size;
  SeqId a = kv.CreateSequence();
  ASSERT_TRUE(kv.Extend(a, 40));  // 2.5 pages
  write(a, 0, 40);
  SeqId fork = kv.ForkFrom(a, 40);
  ASSERT_TRUE(kv.Extend(fork, 8));  // copies the shared boundary page
  write(fork, 40, 48);
  SeqId big = kv.CreateSequence();
  ASSERT_TRUE(kv.Extend(big, pool_tokens - 4 * config.page_size));
  write(big, pool_tokens - 5 * config.page_size,
        pool_tokens - 4 * config.page_size);
  check(a, a, 0, 40);
  check(fork, a, 0, 40);
  check(fork, fork, 40, 48);
  check(big, big, pool_tokens - 5 * config.page_size,
        pool_tokens - 4 * config.page_size);
  // Never-written pages read as zeros.
  EXPECT_EQ(std::as_const(kv).Entry(big, 0, 0, KvSlot::kKey)[0], f16(0.0f));
}
#endif  // __linux__

TEST(KvCacheForkDeathTest, WritingSharedPageAborts) {
  PagedKvCache kv(SmallConfig());
  SeqId src = kv.CreateSequence();
  ASSERT_TRUE(kv.Extend(src, 4));
  SeqId fork = kv.ForkFrom(src, 4);
  (void)fork;
  // The CoW invariant is enforced, not advisory: mutable access to a shared
  // page is a programming error on either sequence.
  EXPECT_DEATH(kv.Entry(src, 0, 0, KvSlot::kKey), "shared page");
  EXPECT_DEATH(kv.Entry(fork, 0, 3, KvSlot::kKey), "shared page");
}

TEST(KvCacheForkDeathTest, ForkBeyondSourceLengthAborts) {
  PagedKvCache kv(SmallConfig());
  SeqId src = kv.CreateSequence();
  ASSERT_TRUE(kv.Extend(src, 4));
  EXPECT_DEATH(kv.ForkFrom(src, 5), "fork beyond source length");
}

TEST(KvCacheDeathTest, OutOfRangeAccessAborts) {
  PagedKvCache kv(SmallConfig());
  SeqId s = kv.CreateSequence();
  ASSERT_TRUE(kv.Extend(s, 2));
  EXPECT_DEATH(kv.Entry(s, 0, 2, KvSlot::kKey), "position");
  EXPECT_DEATH(kv.Entry(s, 5, 0, KvSlot::kKey), "PUNICA_CHECK");
  EXPECT_DEATH(kv.Entry(999, 0, 0, KvSlot::kKey), "unknown sequence");
}

}  // namespace
}  // namespace punica
