#include "recycler/interval_index.h"

#include <algorithm>
#include <mutex>

#include "common/macros.h"
#include "recycler/graph.h"
#include "recycler/subsumption.h"

namespace recycledb {

namespace {

bool ById(const RGNode* a, const RGNode* b) { return a->id < b->id; }

}  // namespace

void IntervalIndex::Insert(RGNode* node) {
  auto [reg, fresh] = registered_.try_emplace(node);
  if (!fresh) return;  // already registered
  // param_node is positional, so its specs read the child's ordinals.
  std::call_once(node->range_specs_once, [node] {
    if (node->type == OpType::kSelect && node->children.size() == 1) {
      const Schema input = PositionalInput(*node->children[0]);
      node->range_specs =
          ExtractRangeSpecs(node->param_node->predicate(), &input);
    }
  });
  for (const RGNode* child : node->children) {
    std::vector<RGNode*>& parents = parents_[child->id];
    auto pos = std::lower_bound(parents.begin(), parents.end(), node, ById);
    if (pos == parents.end() || *pos != node) parents.insert(pos, node);
  }
  for (const RangeSpec& spec : node->range_specs) {
    Key key{node->children[0]->id, spec.ordinal};
    std::vector<Entry>& bucket = buckets_[key];
    auto pos = std::upper_bound(
        bucket.begin(), bucket.end(), spec.range.lo,
        [](const RangeBound& lo, const Entry& e) {
          return LoTighter(e.spec->range.lo, lo);  // ascending by lo
        });
    bucket.insert(pos, Entry{node, &spec});
    reg->second.push_back(std::move(key));
    ++num_entries_;
  }
}

void IntervalIndex::Remove(const RGNode* node) {
  auto it = registered_.find(node);
  if (it == registered_.end()) return;
  for (const RGNode* child : node->children) {
    auto pit = parents_.find(child->id);
    if (pit == parents_.end()) continue;  // a repeated child, already done
    std::vector<RGNode*>& parents = pit->second;
    auto pos = std::lower_bound(parents.begin(), parents.end(), node, ById);
    if (pos != parents.end() && *pos == node) parents.erase(pos);
    if (parents.empty()) parents_.erase(pit);
  }
  for (const Key& key : it->second) {
    auto bit = buckets_.find(key);
    if (bit == buckets_.end()) continue;
    std::vector<Entry>& bucket = bit->second;
    for (auto e = bucket.begin(); e != bucket.end(); ++e) {
      if (e->node == node) {
        bucket.erase(e);
        --num_entries_;
        break;
      }
    }
    if (bucket.empty()) buckets_.erase(bit);
  }
  registered_.erase(it);
}

const std::vector<RGNode*>& IntervalIndex::Parents(int64_t child_id) const {
  static const std::vector<RGNode*> kNone;
  auto it = parents_.find(child_id);
  return it == parents_.end() ? kNone : it->second;
}

void IntervalIndex::Overlapping(int64_t child_id, const RangeSpec& query,
                                std::vector<Entry>* out) const {
  auto it = buckets_.find(Key{child_id, query.ordinal});
  if (it == buckets_.end()) return;
  const ColumnInterval& q = query.range;
  for (const Entry& e : it->second) {
    // Bucket is sorted ascending by lo: once an entry starts past the
    // query's upper end, every later entry does too.
    if (!q.hi.unbounded && IntervalEmpty({e.spec->range.lo, q.hi})) break;
    if (!Overlaps(e.spec->range, q)) continue;
    if (!ConjunctsImplied(e.spec->other_keys, query.other_keys)) continue;
    out->push_back(e);
  }
}

}  // namespace recycledb
