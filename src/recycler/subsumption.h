// Subsumption-based reuse (§IV-A): deriving a query node's result from a
// cached result that subsumes it.
//
// Supported derivations:
//   - column subsumption: the cached Project/Aggregate computes a superset
//     of the requested output columns -> project them out.
//   - tuple subsumption (Select): the cached selection's conjuncts are a
//     subset of the requested ones -> apply the residual conjuncts.
//   - tuple subsumption (Aggregate): the cached GROUP BY is finer (its
//     grouping columns are a superset) and every requested aggregate can
//     be re-aggregated from the cached aggregates -> re-aggregate by the
//     one rule delta merges and cube caching also use (Reaggregate,
//     expr/aggregate.h). With the same GROUP BY every requested
//     aggregate must be cached verbatim -> project it out.
//   - tuple subsumption (TopN): the cached top-M with the same sort keys
//     and M >= N answers top-N via a Limit (the proactive top-N strategy
//     relies on this).
//   - partial reuse (range stitching): overlapping cached range slices
//     over the same child are unioned (with compensation filters) and the
//     uncovered remainder is answered by compensated delta scans — see
//     PlanPartialStitch and interval_index.h.
#pragma once

#include "recycler/graph.h"
#include "recycler/interval_index.h"

namespace recycledb {

/// Keys (Expr::AppendKey) of `pred`'s conjuncts over `input`: a query's
/// over its child's output, a graph node's over PositionalInput of its
/// child; null keys names as written. A set, so neither the order nor
/// the repetition of conjuncts matters.
ConjunctSet ConjunctKeys(const ExprPtr& pred, const Schema* input);

/// The subset rule behind every derivation from a cached selection: the
/// cached rows include every row the query needs iff each conjunct the
/// cached result applied (`cached_keys`) is also one of the query's
/// (`query_keys`). A cached signature bit the query's signature lacks
/// rejects without reading a key; every accept compares the keys, so the
/// signature only ever saves work. TrySelect, PlanPartialStitch (on the
/// non-range conjuncts), IntervalIndex::Overlapping and MaySubsume all
/// decide with it.
bool ConjunctsImplied(const ConjunctSet& cached_keys,
                      const ConjunctSet& query_keys);

/// Prefilter for TrySubsumption, cheap enough to run on every candidate,
/// hot or cold, before its freshness check and its snapshot or disk
/// read: false when `cand` cannot derive a `query_type` node whatever its
/// cached table holds — no parameters, another operator type, or
/// (Select) a cached conjunct the query lacks, most often told by the
/// signatures alone. `query_keys` is ConjunctKeys of the query's
/// predicate over its child's output (read for Select only). For a
/// Select it accepts exactly the candidates TrySubsumption derives from;
/// other types pass on a type match.
bool MaySubsume(const RGNode& cand, OpType query_type,
                const ConjunctSet& query_keys);

/// Result of a successful subsumption derivation.
struct SubsumptionPlan {
  /// Derived plan (query name space) whose output schema equals the query
  /// node's output schema.
  PlanPtr plan;
  /// The CachedScan node inside `plan` (for cost annotation).
  PlanPtr cached_scan;
};

/// Attempts to derive `query_node`'s result from the cached result of
/// `cand`, a parent of the graph node the query's child matched. The
/// query's parameters, keyed over its child's output, are compared with
/// the candidate's param_node, keyed over PositionalInput of that child.
/// `cached` is the candidate's materialized result (caller snapshots it
/// under lock). Returns an empty plan when no supported derivation
/// applies. The derived plan's temporary column names (the synthetic
/// names of the cached columns, the re-aggregation's) are fresh against
/// the query's group and output names.
///
/// Thread-safety: reads only the immutable RGNode fields param_node and
/// children plus the passed-in `cached` snapshot.
SubsumptionPlan TrySubsumption(const PlanNode& query_node, const RGNode& cand,
                               TablePtr cached);

// ---------------------------------------------------------------------------
// Partial reuse (range stitching)
// ---------------------------------------------------------------------------

/// One cached slice the stitcher may draw from: the materialized node,
/// a pinned snapshot of its result when it is hot, and the node's range
/// spec on the stitch column (its interval and the positional keys of
/// its remaining conjuncts; RGNode::range_specs). A cold slice
/// has no snapshot: the stitch reads it only if its layout uses it. The
/// caller (Recycler) collects these from the interval index under lock.
struct IntervalCandidate {
  const RGNode* node = nullptr;
  TablePtr cached;
  const RangeSpec* spec = nullptr;
};

/// A stitch decided on intervals alone, before any cold slice is read.
struct StitchLayout {
  /// One slice's share of the query interval.
  struct Use {
    const IntervalCandidate* source = nullptr;
    ColumnInterval clip;
  };
  /// The hot slices in sweep order, then the fewest cold slices that
  /// fill the sweep's gaps, in gap order.
  std::vector<Use> uses;
  /// What no use covers, ascending: the delta scan's ranges.
  std::vector<ColumnInterval> gaps;
  /// Share of the query interval the uses cover (as
  /// PartialPlan::covered_fraction would be if every read succeeds).
  double covered_fraction = 0;
};

/// One branch of a stitched plan that reads a cached slice.
struct PartialPiece {
  /// The branch subtree (CachedScan, possibly under a compensation
  /// Select clamping the branch to its assigned sub-interval).
  PlanPtr piece;
  /// The CachedScan inside `piece` (for Eq. 2 cost bookkeeping).
  PlanPtr cached_scan;
  /// The contributing cached node.
  const RGNode* source = nullptr;
  /// Share of the query interval this branch covers (proportional
  /// benefit credit; equal split when the interval is unmeasurable).
  double fraction = 0;
};

/// Result of a successful partial-reuse stitching.
struct PartialPlan {
  /// Stitched plan: a single piece, or a UnionAll over cached-slice
  /// pieces and delta scans. Branches cover pairwise-disjoint
  /// sub-intervals of the query range, so the bag union is exact.
  PlanPtr plan;
  std::vector<PartialPiece> reuse_pieces;
  /// Number of delta branches: 0 when the cached slices fully cover the
  /// query range (the child never executes), else 1 — every uncovered
  /// gap merges into one compensated delta scan so the child subtree
  /// executes at most once per stitched plan.
  int num_delta_pieces = 0;
  /// Total share of the query interval served from the cache.
  double covered_fraction = 0;
};

/// Lays out a stitch of range selection `query_node` (whose predicate
/// decomposed into `spec`) from `candidates`. A candidate is usable when
/// its remaining conjuncts are a subset of the query's (the slice then
/// lacks only residual filters, applied as compensation) and its
/// interval overlaps the query's. The hot candidates are swept left to
/// right, each position going to the first slice (ascending lo) that
/// covers it. Then, per uncovered gap, a greedy cover picks the fewest
/// cold candidates that fill it: at each point the one reaching
/// furthest. Adjacent uses meet with complementary open/closed
/// boundaries, so a shared boundary value falls in exactly one. Returns
/// a layout with no uses when no candidate contributes.
///
/// Thread-safety: pure — reads only immutable RGNode identity fields.
StitchLayout PlanPartialStitch(
    const PlanNode& query_node, const RangeSpec& spec,
    const std::vector<IntervalCandidate>& candidates);

/// Builds the stitched plan for `layout`: one branch per use over
/// `tables[i]` (use i's slice: a hot snapshot or a cold read), under a
/// compensation Select for the residual conjuncts and the clip bounds
/// tighter than the slice's own, plus one compensated delta scan over
/// `child_plan` for every gap. A use whose table is null (its read
/// failed) leaves its clip to that delta scan. Returns an empty plan
/// when no use has a table.
///
/// The stitched union is a BAG equal to the selection's result as a
/// multiset, but branch order differs from cold execution (cached slices
/// stream before delta scans) — an order-sensitive parent without a sort
/// (Limit without OrderBy) may surface different, equally valid, rows.
PartialPlan BuildPartialStitch(const PlanNode& query_node,
                               const PlanPtr& child_plan,
                               const RangeSpec& spec,
                               const StitchLayout& layout,
                               const std::vector<TablePtr>& tables);

}  // namespace recycledb
