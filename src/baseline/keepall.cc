#include "baseline/keepall.h"

#include <algorithm>
#include <vector>

#include "common/macros.h"
#include "common/stopwatch.h"

namespace recycledb {

KeepAllEngine::KeepAllEngine(const Catalog* catalog, Config config)
    : catalog_(catalog), config_(config), executor_(catalog) {
  RDB_CHECK(catalog != nullptr);
}

TablePtr KeepAllEngine::Execute(const PlanPtr& plan, double* elapsed_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  Stopwatch sw;
  plan->Bind(*catalog_);
  bool hit = false;
  TablePtr result = ExecNode(plan, &hit);
  if (elapsed_ms != nullptr) *elapsed_ms = sw.ElapsedMs();
  ++stats_.queries;
  return result;
}

TablePtr KeepAllEngine::ExecNode(const PlanPtr& plan, bool* hit) {
  // MonetDB's recycler matches on *argument identity*: an instruction is
  // answered from the cache only when its input BATs are the very cached
  // BATs of its children. So reuse cascades bottom-up — evicting any
  // intermediate in a result's subtree breaks reuse of everything above
  // it (§V: "it needs to keep all intermediates that lead to a result").
  bool children_hit = true;
  std::vector<PlanPtr> cached_children;
  std::vector<TablePtr> child_results;
  for (const auto& c : plan->children()) {
    bool child_hit = false;
    TablePtr child_result = ExecNode(c, &child_hit);
    children_hit = children_hit && child_hit;
    child_results.push_back(child_result);
    cached_children.push_back(PlanNode::CachedScan(
        child_result, c->output_schema().Names()));
  }

  const std::string key = plan->TreeKey();
  if (config_.recycling && children_hit) {
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++stats_.node_hits;
      ++it->second.refs;
      *hit = true;
      return it->second.table;
    }
  }
  *hit = false;
  ++stats_.node_misses;
  Stopwatch sw;
  PlanPtr single;
  if (cached_children.empty()) {
    single = plan->CloneShallow();
  } else {
    single = plan->WithChildren(std::move(cached_children));
  }
  single->Bind(*catalog_);
  ExecResult r = executor_.Run(single);
  double cost_ms = sw.ElapsedMs();

  if (config_.recycling) {
    Entry entry;
    entry.table = r.table;
    entry.cost_ms = cost_ms;
    entry.bytes = std::max<int64_t>(1, r.table->ByteSize());
    entry.stamp = ++stamp_;
    AdmitLocked(key, std::move(entry));
  }
  return r.table;
}

void KeepAllEngine::AdmitLocked(const std::string& key, Entry entry) {
  // MonetDB's recycler admits every intermediate (materialization is
  // free); when bounded, evict by benefit = cost * refs / size.
  if (config_.cache_bytes >= 0) {
    if (entry.bytes > config_.cache_bytes) return;  // cannot ever fit
    while (used_bytes_ + entry.bytes > config_.cache_bytes &&
           !cache_.empty()) {
      auto benefit = [](const Entry& e) {
        return e.cost_ms * static_cast<double>(e.refs) /
               static_cast<double>(e.bytes);
      };
      auto victim = cache_.begin();
      double victim_benefit = benefit(victim->second);
      for (auto it = std::next(cache_.begin()); it != cache_.end(); ++it) {
        double b = benefit(it->second);
        if (b < victim_benefit ||
            (b == victim_benefit && it->second.stamp < victim->second.stamp)) {
          victim = it;
          victim_benefit = b;
        }
      }
      used_bytes_ -= victim->second.bytes;
      cache_.erase(victim);
      ++stats_.evictions;
    }
  }
  used_bytes_ += entry.bytes;
  cache_[key] = std::move(entry);
  stats_.peak_cached_bytes = std::max(stats_.peak_cached_bytes, used_bytes_);
}

void KeepAllEngine::FlushCache() {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.clear();
  used_bytes_ = 0;
}

KeepAllStats KeepAllEngine::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  KeepAllStats s = stats_;
  s.cached_bytes = used_bytes_;
  s.cached_entries = static_cast<int64_t>(cache_.size());
  return s;
}

}  // namespace recycledb
