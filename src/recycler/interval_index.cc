#include "recycler/interval_index.h"

#include <algorithm>
#include <mutex>

#include "common/macros.h"
#include "recycler/graph.h"
#include "recycler/subsumption.h"

namespace recycledb {

bool IntervalIndex::ParentBefore(const Parent& parent, const RGNode* node) {
  return parent.node->id < node->id;
}

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
    std::vector<Parent>& parents = parents_[child->id];
    auto pos = std::lower_bound(parents.begin(), parents.end(), node,
                                ParentBefore);
    if (pos == parents.end() || pos->node != node) {
      parents.insert(pos, Parent{node, node->type, node->conjunct_keys.sig()});
    }
  }
  for (const RangeSpec& spec : node->range_specs) {
    Key key{node->children[0]->id, spec.ordinal};
    Bucket& bucket = buckets_[key];
    auto pos = std::upper_bound(
        bucket.entries.begin(), bucket.entries.end(), spec.range.lo,
        [](const RangeBound& lo, const Entry& e) {
          return LoTighter(e.spec->range.lo, lo);  // ascending by lo
        });
    bucket.sigs.insert(bucket.sigs.begin() + (pos - bucket.entries.begin()),
                       spec.other_keys.sig());
    bucket.entries.insert(pos, Entry{node, &spec});
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
    std::vector<Parent>& parents = pit->second;
    auto pos = std::lower_bound(parents.begin(), parents.end(), node,
                                ParentBefore);
    if (pos != parents.end() && pos->node == node) parents.erase(pos);
    if (parents.empty()) parents_.erase(pit);
  }
  for (const Key& key : it->second) {
    auto bit = buckets_.find(key);
    if (bit == buckets_.end()) continue;
    Bucket& bucket = bit->second;
    for (size_t i = 0; i < bucket.entries.size(); ++i) {
      if (bucket.entries[i].node == node) {
        bucket.entries.erase(bucket.entries.begin() + i);
        bucket.sigs.erase(bucket.sigs.begin() + i);
        --num_entries_;
        break;
      }
    }
    if (bucket.entries.empty()) buckets_.erase(bit);
  }
  registered_.erase(it);
}

std::vector<RGNode*> IntervalIndex::Parents(int64_t child_id) const {
  std::vector<RGNode*> out;
  auto it = parents_.find(child_id);
  if (it == parents_.end()) return out;
  for (const Parent& p : it->second) out.push_back(p.node);
  return out;
}

void IntervalIndex::Subsumers(int64_t child_id, OpType type,
                              const ConjunctSet& query_keys,
                              std::vector<RGNode*>* out) const {
  auto it = parents_.find(child_id);
  if (it == parents_.end()) return;
  // MaySubsume's type and signature tests, on the copies kept here.
  const uint64_t lacking = type == OpType::kSelect ? ~query_keys.sig() : 0;
  for (const Parent& p : it->second) {
    if (p.type != type || (p.sig & lacking) != 0) continue;
    if (MaySubsume(*p.node, type, query_keys)) out->push_back(p.node);
  }
}

void IntervalIndex::Overlapping(int64_t child_id, const RangeSpec& query,
                                std::vector<Entry>* out) const {
  auto it = buckets_.find(Key{child_id, query.ordinal});
  if (it == buckets_.end()) return;
  const ColumnInterval& q = query.range;
  const Bucket& bucket = it->second;
  const uint64_t lacking = ~query.other_keys.sig();
  for (size_t i = 0; i < bucket.entries.size(); ++i) {
    // A slice with a signature bit the query lacks cannot stitch
    // (ConjunctsImplied): rejected on the bucket's copy of the signature.
    if ((bucket.sigs[i] & lacking) != 0) continue;
    const Entry& e = bucket.entries[i];
    // Bucket is sorted ascending by lo: once an entry starts past the
    // query's upper end, every later entry does too.
    if (BoundsEmpty(e.spec->range.lo, q.hi)) break;
    if (!ConjunctsImplied(e.spec->other_keys, query.other_keys)) continue;
    if (!Overlaps(e.spec->range, q)) continue;
    out->push_back(e);
  }
}

}  // namespace recycledb
