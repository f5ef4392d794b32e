// PrefixIndex: a trie over token ids mapping an incoming prompt to its
// longest cached prefix.
//
// Each entry is a cached prefix — a token string plus the KvCache sequence
// (a read-only "holder" fork) whose pages carry its K/V. Lookup walks the
// trie along the query and returns the deepest match together with an entry
// whose sequence covers it, so the caller can ForkFrom(entry.seq, matched)
// and prefill only the uncached suffix. Eviction is LRU over unpinned
// entries under page pressure; recency is a logical clock (deterministic —
// no wall time), so serving runs replay bit-identically.
//
// The index stores no pages itself: evicting an entry frees only the
// index's references; pages shared with live sequences stay allocated
// (refcounts in PageAllocator are the ground truth).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "kvcache/kvcache.h"

namespace punica {

class PrefixIndex {
 public:
  struct Match {
    std::int64_t entry = -1;  ///< -1 = no cached prefix
    SeqId seq = -1;           ///< holder sequence covering the match
    std::int64_t matched_tokens = 0;
  };

  struct InsertResult {
    std::int64_t entry = -1;
    bool inserted = false;  ///< false = exact duplicate; existing was touched
  };

  /// Longest cached prefix of `tokens` (does not update recency).
  Match Lookup(std::span<const std::int32_t> tokens) const;

  /// The entry whose tokens equal `tokens` exactly, or nullopt — the cheap
  /// already-registered probe (no fork, no insert) for hot re-registration
  /// paths.
  std::optional<std::int64_t> FindExact(
      std::span<const std::int32_t> tokens) const;

  /// Registers `tokens` as a cached prefix held by `seq`. An exact
  /// duplicate touches the existing entry instead and reports
  /// inserted=false — the caller then frees its redundant holder sequence.
  InsertResult Insert(std::span<const std::int32_t> tokens, SeqId seq);

  /// Marks the entry most-recently-used.
  void Touch(std::int64_t entry);

  /// Pinned entries are skipped by LruVictim (a request is mid-prefill from
  /// them). Pins nest.
  void Pin(std::int64_t entry);
  void Unpin(std::int64_t entry);

  /// Removes the entry and returns its holder sequence — the caller frees
  /// it. The entry must not be pinned.
  SeqId Erase(std::int64_t entry);

  /// Least-recently-used unpinned entry, or nullopt when all are pinned or
  /// the index is empty.
  std::optional<std::int64_t> LruVictim() const;

  /// All unpinned entries with their holder sequences, in id order — the
  /// reclaimable-page projection input.
  std::vector<std::pair<std::int64_t, SeqId>> EvictableEntries() const;

  /// Calls f(entry, holder seq, key length) for every entry in id order,
  /// pinned ones included (invariant audits).
  template <typename F>
  void ForEachEntry(F&& f) const {
    for (const auto& [id, e] : entries_) {
      f(id, e.seq, static_cast<std::int64_t>(e.tokens.size()));
    }
  }

  std::size_t size() const { return entries_.size(); }
  /// Total tokens across cached entries (observability).
  std::int64_t cached_tokens() const { return cached_tokens_; }
  SeqId entry_seq(std::int64_t entry) const;
  bool contains(std::int64_t entry) const { return entries_.contains(entry); }

 private:
  struct Node {
    std::map<std::int32_t, std::unique_ptr<Node>> children;
    std::int64_t entry = -1;  ///< entry ending exactly here (-1 = none)
    std::int64_t rep = -1;    ///< smallest entry id in this subtree
  };

  struct Entry {
    std::vector<std::int32_t> tokens;
    SeqId seq = -1;
    int pins = 0;
    std::uint64_t stamp = 0;  ///< logical recency
  };

  Entry& GetEntry(std::int64_t entry);
  const Entry& GetEntry(std::int64_t entry) const;

  Node root_;
  std::map<std::int64_t, Entry> entries_;
  std::int64_t next_entry_ = 0;
  std::uint64_t clock_ = 0;
  std::int64_t cached_tokens_ = 0;
};

}  // namespace punica
