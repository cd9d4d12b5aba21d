// The recycler cache: a finite in-memory result cache with benefit-based
// admission and replacement (§III-E).
//
// Cache management follows the paper's Danzig-style greedy knapsack:
// cached results are classified into groups by log2(size); the replacement
// policy scans the candidate's own size group in increasing-benefit order,
// accumulating victims until either the victims' average benefit exceeds
// the candidate's (reject) or enough space is freed (admit). A group's
// ranking is kept and reused until the group or the owner's benefit
// stamp changes, so the speculative checks of one statement share it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "recycler/graph.h"

namespace recycledb {

/// Replacement-policy flavors. kBenefit is the paper's policy; kLru
/// evicts globally in LRU order (see RecyclerConfig::cache_policy).
enum class CachePolicy : uint8_t { kBenefit, kLru };

/// The recycler cache. NOT thread-safe by itself: the owning Recycler
/// serializes access under its dedicated cache mutex (decoupled from the
/// graph lock; see DESIGN.md "Concurrency model" for the lock order).
class RecyclerCache {
 public:
  /// `capacity_bytes` < 0 means unlimited.
  /// `benefit_fn` recomputes the current benefit of a cached node (the
  /// paper recomputes benefits as results are added/evicted/reused).
  /// `benefit_stamp` changes whenever any benefit `benefit_fn` would
  /// return may have changed (Recycler: RecyclerGraph::benefit_stamp).
  RecyclerCache(int64_t capacity_bytes,
                std::function<double(const RGNode*)> benefit_fn,
                std::function<uint64_t()> benefit_stamp,
                CachePolicy policy = CachePolicy::kBenefit);

  /// Checks whether a result of `size_bytes` with benefit `benefit` would
  /// be admitted right now (used for store decisions before execution).
  /// Does not modify the cache.
  bool WouldAdmit(double benefit, int64_t size_bytes) const;

  /// Admits `node` (whose node->cached/cached_bytes the caller has set),
  /// evicting per the replacement policy. Returns false (and leaves the
  /// cache unchanged) when the result does not qualify. On success the
  /// evicted nodes are appended to `evicted` so the caller can run the
  /// h-update of Eq. 4 on them.
  bool Admit(RGNode* node, double benefit, std::vector<RGNode*>* evicted);

  /// Removes `node` from the cache if present (invalidation / flush).
  /// Does not touch node->mat_state; the caller owns state transitions.
  void Remove(RGNode* node);

  /// Removes every entry, appending them to `evicted`.
  void Flush(std::vector<RGNode*>* evicted);

  /// Marks `node` as referenced (LRU bookkeeping for kLru).
  void TouchForLru(RGNode* node);

  int64_t used_bytes() const { return used_bytes_; }
  int64_t capacity_bytes() const { return capacity_bytes_; }
  bool unlimited() const { return capacity_bytes_ < 0; }
  int64_t num_entries() const;

  /// All cached nodes (diagnostics).
  std::vector<RGNode*> Entries() const;

 private:
  friend struct RecyclerPeer;  // white-box access for tests

  struct Entry {
    RGNode* node;
    int64_t lru_stamp;
  };

  /// An entry with the benefit it had when its group was last ranked:
  /// at the start of this policy evaluation, or of an earlier one at the
  /// same benefit stamp with the same group, which ranked it the same.
  struct Ranked {
    double benefit;
    RGNode* node;
  };

  /// One log2-size group: its entries (unordered) and the last ranking
  /// of them.
  struct Group {
    std::vector<Entry> entries;
    /// RankByBenefit of `entries`, and the benefit stamp read before it
    /// was taken; nullopt once `entries` changed since. Reused while the
    /// stamp still reads the same, so it is the ranking a fresh
    /// evaluation would take.
    mutable std::vector<Ranked> ranked;
    mutable std::optional<uint64_t> ranked_at;
  };

  static int SizeGroup(int64_t size_bytes);
  /// Evaluates `benefit_fn_` once per entry and sorts ascending by that
  /// snapshot. Other streams bump h while a sort runs; a comparator that
  /// re-read live benefits could disagree with itself and send std::sort
  /// past the end of its range.
  std::vector<Ranked> RankByBenefit(const std::vector<Entry>& entries) const;
  /// `group`'s ranking: the kept one while neither the group nor the
  /// benefit stamp changed, else a fresh RankByBenefit, kept.
  const std::vector<Ranked>& GroupRanking(const Group& group) const;
  /// Selects victims for a candidate of (benefit, size); returns true if
  /// admission is possible. Victims are appended to `victims`.
  bool PlanEviction(double benefit, int64_t size_bytes,
                    std::vector<RGNode*>* victims) const;
  /// Drops `node` from its size group (clearing the group's ranking);
  /// false when it is not there.
  bool Erase(RGNode* node);

  int64_t capacity_bytes_;
  std::function<double(const RGNode*)> benefit_fn_;
  std::function<uint64_t()> benefit_stamp_;
  CachePolicy policy_;
  /// log2-size group -> its entries and their last ranking (every entry
  /// change in a group clears it).
  std::map<int, Group> groups_;
  int64_t used_bytes_ = 0;
  int64_t lru_counter_ = 0;
};

}  // namespace recycledb
