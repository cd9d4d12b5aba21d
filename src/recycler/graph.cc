#include "recycler/graph.h"

#include <cmath>

#include "common/hash.h"

namespace recycledb {

Schema PositionalInput(const RGNode& child) {
  std::vector<Field> fields;
  fields.reserve(child.output_types.size());
  for (size_t i = 0; i < child.output_types.size(); ++i) {
    fields.push_back({OrdinalName(static_cast<int>(i)), child.output_types[i]});
  }
  return Schema(std::move(fields));
}

uint64_t NodeKeyHash(OpType type, std::string_view param_key) {
  return HashString(param_key, HashMix(static_cast<uint64_t>(type) + 1));
}

double RecyclerGraph::AgedH(const RGNode* node) const {
  double h = node->h.load(std::memory_order_relaxed);
  if (aging_alpha_ >= 1.0) return h;
  int64_t delta =
      epoch_.load() - node->h_epoch.load(std::memory_order_relaxed);
  if (delta <= 0) return h;
  return h * std::pow(aging_alpha_, static_cast<double>(delta));
}

void RecyclerGraph::FoldAging(RGNode* node) {
  if (aging_alpha_ >= 1.0) return;
  int64_t now = epoch_.load();
  int64_t stamp = node->h_epoch.load(std::memory_order_relaxed);
  // Elect one folder per epoch advance via CAS on the stamp; losers see
  // the refreshed stamp and stop.
  while (stamp < now) {
    if (node->h_epoch.compare_exchange_weak(stamp, now,
                                            std::memory_order_relaxed)) {
      AtomicScale(node->h,
                  std::pow(aging_alpha_, static_cast<double>(now - stamp)));
      NoteBenefitWrite();
      return;
    }
  }
}

RGNode* RecyclerGraph::AddNode(std::unique_ptr<RGNode> node) {
  RGNode* raw = node.get();
  raw->last_access_epoch = epoch_.load();
  nodes_.push_back(std::move(node));
  num_nodes_.store(static_cast<int64_t>(nodes_.size()));
  const uint64_t h = NodeKeyHash(raw->type, raw->param_key);
  if (raw->children.empty()) {
    leaf_index_.emplace(h, raw);
  } else {
    for (RGNode* child : raw->children) child->parents.emplace(h, raw);
  }
  return raw;
}

int64_t RecyclerGraph::Truncate(int64_t idle_epochs) {
  const int64_t cutoff = epoch_.load() - idle_epochs;
  int64_t removed_total = 0;
  // Iterate to a fixpoint: removing a stale parent may expose a stale
  // child (subtrees disappear top-down; shared prefixes that still have
  // fresh parents survive).
  for (;;) {
    std::vector<RGNode*> victims;
    for (const auto& n : nodes_) {
      if (n->last_access_epoch.load() > cutoff) continue;
      if (n->mat_state.load() != MatState::kNone) continue;
      if (!n->parents.empty()) continue;
      victims.push_back(n.get());
    }
    if (victims.empty()) break;
    for (RGNode* v : victims) {
      const uint64_t h = NodeKeyHash(v->type, v->param_key);
      // Unlink from children's parent indexes.
      for (RGNode* child : v->children) {
        auto range = child->parents.equal_range(h);
        for (auto it = range.first; it != range.second;) {
          it = it->second == v ? child->parents.erase(it) : std::next(it);
        }
      }
      // Unregister from the leaf index.
      if (v->children.empty()) {
        auto range = leaf_index_.equal_range(h);
        for (auto it = range.first; it != range.second;) {
          it = it->second == v ? leaf_index_.erase(it) : std::next(it);
        }
      }
      // Free the node itself.
      for (auto it = nodes_.begin(); it != nodes_.end(); ++it) {
        if (it->get() == v) {
          nodes_.erase(it);
          break;
        }
      }
      ++removed_total;
    }
  }
  num_nodes_.store(static_cast<int64_t>(nodes_.size()));
  return removed_total;
}

GraphStats RecyclerGraph::Stats() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  GraphStats s;
  s.num_nodes = static_cast<int64_t>(nodes_.size());
  for (const auto& n : nodes_) {
    if (n->children.empty()) ++s.num_leaves;
    MatState ms = n->mat_state.load();
    if (ms == MatState::kCached) {
      ++s.num_cached;
      s.cached_bytes += n->cached_bytes.load();
    } else if (ms == MatState::kCold) {
      ++s.num_cold;
    }
  }
  return s;
}

}  // namespace recycledb
