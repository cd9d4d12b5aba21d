// The recycler cache: a finite in-memory result cache with benefit-based
// admission and replacement (§III-E).
//
// Cache management follows the paper's Danzig-style greedy knapsack:
// cached results are classified into groups by log2(size); the replacement
// policy scans the candidate's own size group in increasing-benefit order,
// accumulating victims until either the victims' average benefit exceeds
// the candidate's (reject) or enough space is freed (admit).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "recycler/graph.h"

namespace recycledb {

/// Replacement-policy flavors. kBenefit is the paper's policy; kLru and
/// kAdmitAll exist for the ablation benchmarks.
enum class CachePolicy : uint8_t { kBenefit, kLru, kAdmitAll };

/// The recycler cache. NOT thread-safe by itself: the owning Recycler
/// serializes access under its dedicated cache mutex (decoupled from the
/// graph lock; see DESIGN.md "Concurrency model" for the lock order).
class RecyclerCache {
 public:
  /// `capacity_bytes` < 0 means unlimited.
  /// `benefit_fn` recomputes the current benefit of a cached node (the
  /// paper recomputes benefits as results are added/evicted/reused).
  RecyclerCache(int64_t capacity_bytes,
                std::function<double(const RGNode*)> benefit_fn,
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

  /// Marks `node` as referenced (LRU bookkeeping for the ablation policy).
  void TouchForLru(RGNode* node);

  int64_t used_bytes() const { return used_bytes_; }
  int64_t capacity_bytes() const { return capacity_bytes_; }
  bool unlimited() const { return capacity_bytes_ < 0; }
  int64_t num_entries() const;

  /// All cached nodes (diagnostics).
  std::vector<RGNode*> Entries() const;

 private:
  struct Entry {
    RGNode* node;
    int64_t lru_stamp;
  };

  /// An entry with the benefit it had when a policy evaluation began.
  struct Ranked {
    double benefit;
    RGNode* node;
  };

  static int SizeGroup(int64_t size_bytes);
  /// Evaluates `benefit_fn_` once per entry and sorts ascending by that
  /// snapshot. Other streams bump h while a sort runs; a comparator that
  /// re-read live benefits could disagree with itself and send std::sort
  /// past the end of its range.
  std::vector<Ranked> RankByBenefit(const std::vector<Entry>& entries) const;
  /// Selects victims for a candidate of (benefit, size); returns true if
  /// admission is possible. Victims are appended to `victims`.
  bool PlanEviction(double benefit, int64_t size_bytes,
                    std::vector<RGNode*>* victims) const;
  void EvictOne(RGNode* node);

  int64_t capacity_bytes_;
  std::function<double(const RGNode*)> benefit_fn_;
  CachePolicy policy_;
  /// log2-size group -> entries (unordered within; each policy evaluation
  /// takes one benefit per entry and ranks on that snapshot, so no stored
  /// order can go stale).
  std::map<int, std::vector<Entry>> groups_;
  int64_t used_bytes_ = 0;
  int64_t lru_counter_ = 0;
};

}  // namespace recycledb
