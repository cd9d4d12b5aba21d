// Derived-reuse index: what a miss can be derived from, without walking
// every node the recycler graph has ever seen.
//
// Two views over the materialized (hot or cold) nodes, both keyed by the
// child graph node a derived-reuse lookup starts from:
//  - per child: every materialized parent, the subsumption candidates
//    (§IV-A);
//  - per (child, column ordinal): the range slices of materialized
//    selections (e.g. `10 < x AND x < 50` plus arbitrary non-range
//    conjuncts), which an incoming range selection over the same child
//    finds by overlap.
//    The stitching rewriter (PlanPartialStitch, subsumption.h) answers the
//    query from the union of the overlapping slices plus compensated
//    delta scans over the uncovered remainder.
//
// The interval arithmetic lives in common/interval.h and the predicate
// decomposition in expr/range.h (both included here for their historical
// call sites); this header adds only the index itself.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/interval.h"
#include "expr/range.h"
#include "plan/plan.h"

namespace recycledb {

struct RGNode;

/// The derived-reuse index. A node is registered while it is materialized
/// (kCached or kCold) and unregistered when it drops back to kNone.
///
/// NOT thread-safe by itself: the owning Recycler guards it with its
/// cache mutex (the index tracks cache residency, so it changes exactly
/// when admission/eviction decisions do; lock order graph mutex ->
/// cache mutex -> mat shard mutex is unchanged).
class IntervalIndex {
 public:
  /// One indexed slice: the materialized node and the range spec of its
  /// own predicate (RGNode::range_specs) on the bucket's column.
  struct Entry {
    RGNode* node = nullptr;
    const RangeSpec* spec = nullptr;
  };

  /// Registers `node` as a materialized parent of each of its children
  /// and each of its range_specs under (children[0]->id, ordinal).
  /// A single-child Select's range_specs are computed on its first insert.
  /// Inserting a registered node again is a no-op.
  void Insert(RGNode* node);

  /// Unregisters `node` everywhere. No-op when absent.
  void Remove(const RGNode* node);

  /// Materialized parents of the child node `child_id`, ascending by id.
  std::vector<RGNode*> Parents(int64_t child_id) const;

  /// Appends to `out`, ascending by id, the materialized parents of
  /// `child_id` that pass MaySubsume for a `type` query whose conjunct
  /// keys are `query_keys`. Each parent's operator type and conjunct
  /// signature are kept beside it, so a parent they reject is not read.
  void Subsumers(int64_t child_id, OpType type, const ConjunctSet& query_keys,
                 std::vector<RGNode*>* out) const;

  /// Appends to `out`, in ascending lower-bound order, every entry under
  /// (child_id, query.ordinal) whose interval overlaps query.range
  /// and that can stitch for `query`: every one of the slice's other
  /// conjuncts is among the query's (ConjunctsImplied). That check runs
  /// before the interval test, so a slice whose conjunct signature is not
  /// within the query's costs one AND. Hot and cold slices pass the same
  /// filter; a cold one is read only if the stitch uses it.
  void Overlapping(int64_t child_id, const RangeSpec& query,
                   std::vector<Entry>* out) const;

  /// Total registered (slice, column) pairs.
  int64_t num_entries() const { return num_entries_; }

 private:
  using Key = std::pair<int64_t, int>;

  /// A materialized parent with the node fields Subsumers rejects on.
  struct Parent {
    RGNode* node = nullptr;
    OpType type = OpType::kScan;
    /// node->conjunct_keys.sig().
    uint64_t sig = 0;
  };

  /// Orders parents by node id (lower_bound finds `node`'s position).
  static bool ParentBefore(const Parent& parent, const RGNode* node);

  /// child id -> materialized parents, ascending by node id.
  std::unordered_map<int64_t, std::vector<Parent>> parents_;
  /// One (child, column) bucket: its entries ascending by lower bound,
  /// and in step with them each entry's spec->other_keys.sig(), so a
  /// lookup rejects on a dense array without reading a spec.
  struct Bucket {
    std::vector<Entry> entries;
    std::vector<uint64_t> sigs;
  };
  std::map<Key, Bucket> buckets_;
  /// node -> bucket keys it is registered under (for Remove); every
  /// registered node has an entry, possibly with no keys.
  std::unordered_map<const RGNode*, std::vector<Key>> registered_;
  int64_t num_entries_ = 0;
};

}  // namespace recycledb
