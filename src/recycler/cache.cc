#include "recycler/cache.h"

#include <algorithm>

#include "common/macros.h"

namespace recycledb {

RecyclerCache::RecyclerCache(int64_t capacity_bytes,
                             std::function<double(const RGNode*)> benefit_fn,
                             std::function<uint64_t()> benefit_stamp,
                             CachePolicy policy)
    : capacity_bytes_(capacity_bytes),
      benefit_fn_(std::move(benefit_fn)),
      benefit_stamp_(std::move(benefit_stamp)),
      policy_(policy) {
  RDB_CHECK(benefit_fn_ != nullptr);
  RDB_CHECK(benefit_stamp_ != nullptr);
}

int RecyclerCache::SizeGroup(int64_t size_bytes) {
  int g = 0;
  int64_t s = std::max<int64_t>(size_bytes, 1);
  while (s > 1) {
    s >>= 1;
    ++g;
  }
  return g;
}

int64_t RecyclerCache::num_entries() const {
  int64_t n = 0;
  for (const auto& [g, group] : groups_) {
    n += static_cast<int64_t>(group.entries.size());
  }
  return n;
}

std::vector<RGNode*> RecyclerCache::Entries() const {
  std::vector<RGNode*> out;
  for (const auto& [g, group] : groups_) {
    for (const auto& e : group.entries) out.push_back(e.node);
  }
  return out;
}

std::vector<RecyclerCache::Ranked> RecyclerCache::RankByBenefit(
    const std::vector<Entry>& entries) const {
  std::vector<Ranked> ranked;
  ranked.reserve(entries.size());
  for (const Entry& e : entries) ranked.push_back({benefit_fn_(e.node), e.node});
  // Benefit alone decides the order (no tie-break), so equal benefits land
  // where a sort over the live values would have put them.
  std::sort(ranked.begin(), ranked.end(),
            [](const Ranked& a, const Ranked& b) {
              return a.benefit < b.benefit;
            });
  return ranked;
}

const std::vector<RecyclerCache::Ranked>& RecyclerCache::GroupRanking(
    const Group& group) const {
  // The stamp is read before the benefits: a write landing while they
  // are taken bumps it past the value kept, so the next call re-ranks.
  const uint64_t stamp = benefit_stamp_();
  if (group.ranked_at != stamp) {
    group.ranked = RankByBenefit(group.entries);
    group.ranked_at = stamp;
  }
  return group.ranked;
}

bool RecyclerCache::PlanEviction(double benefit, int64_t size_bytes,
                                 std::vector<RGNode*>* victims) const {
  int64_t free_bytes = unlimited()
                           ? size_bytes  // always enough
                           : capacity_bytes_ - used_bytes_;
  if (free_bytes >= size_bytes) return true;  // fits without eviction
  if (!unlimited() && size_bytes > capacity_bytes_) return false;

  if (policy_ == CachePolicy::kLru) {
    // Evict globally, unconditionally, least recently used first, until
    // the result fits.
    std::vector<Entry> all;
    for (const auto& [g, group] : groups_) {
      all.insert(all.end(), group.entries.begin(), group.entries.end());
    }
    std::sort(all.begin(), all.end(), [](const Entry& a, const Entry& b) {
      return a.lru_stamp < b.lru_stamp;
    });
    int64_t freed = 0;
    for (const Entry& e : all) {
      if (free_bytes + freed >= size_bytes) break;
      victims->push_back(e.node);
      freed += e.node->cached_bytes.load();
    }
    return free_bytes + freed >= size_bytes;
  }

  // The paper's policy: only consider victims in the candidate's own
  // log2-size group, scanned in increasing benefit order, stopping when
  // the victims' average benefit exceeds the candidate's.
  auto git = groups_.find(SizeGroup(size_bytes));
  if (git == groups_.end()) return false;
  int64_t freed = 0;
  double benefit_sum = 0;
  int count = 0;
  for (const Ranked& r : GroupRanking(git->second)) {
    const double b = r.benefit;
    // (a) average benefit of the victim set must stay below the
    // candidate's benefit.
    if (count > 0 && (benefit_sum + b) / (count + 1) >= benefit) break;
    if (count == 0 && b >= benefit) break;
    victims->push_back(r.node);
    benefit_sum += b;
    ++count;
    freed += r.node->cached_bytes.load();
    // (b) victims together large enough.
    if (free_bytes + freed >= size_bytes) return true;
  }
  return false;
}

bool RecyclerCache::WouldAdmit(double benefit, int64_t size_bytes) const {
  std::vector<RGNode*> victims;
  return PlanEviction(benefit, size_bytes, &victims);
}

bool RecyclerCache::Admit(RGNode* node, double benefit,
                          std::vector<RGNode*>* evicted) {
  const int64_t size = node->cached_bytes.load();
  RDB_CHECK(size > 0);
  std::vector<RGNode*> victims;
  if (!PlanEviction(benefit, size, &victims)) return false;
  for (RGNode* v : victims) {
    RDB_CHECK_MSG(Erase(v), "evicting node not present in its size group");
    evicted->push_back(v);
  }
  Group& group = groups_[SizeGroup(size)];
  group.entries.push_back({node, ++lru_counter_});
  group.ranked_at.reset();
  used_bytes_ += size;
  return true;
}

bool RecyclerCache::Erase(RGNode* node) {
  const int64_t size = node->cached_bytes.load();
  auto git = groups_.find(SizeGroup(size));
  if (git == groups_.end()) return false;
  Group& group = git->second;
  for (auto it = group.entries.begin(); it != group.entries.end(); ++it) {
    if (it->node == node) {
      used_bytes_ -= size;
      group.entries.erase(it);
      group.ranked_at.reset();
      return true;
    }
  }
  return false;
}

void RecyclerCache::Remove(RGNode* node) { Erase(node); }

void RecyclerCache::Flush(std::vector<RGNode*>* evicted) {
  for (auto& [g, group] : groups_) {
    for (const auto& e : group.entries) evicted->push_back(e.node);
  }
  groups_.clear();
  used_bytes_ = 0;
}

void RecyclerCache::TouchForLru(RGNode* node) {
  for (auto& [g, group] : groups_) {
    for (auto& e : group.entries) {
      if (e.node == node) {
        e.lru_stamp = ++lru_counter_;
        return;
      }
    }
  }
}

}  // namespace recycledb
