// Delta maintenance: incremental refresh of cached results under
// append-only base-table growth (DESIGN.md "Delta maintenance").
//
// Every admitted recycler entry is stamped with the as-of version of each
// base table it was computed from ({replace-epoch, row high-water mark},
// see TableStamp in graph.h). When a lookup finds an entry whose only
// staleness is appended rows, the plan is rewritten instead of discarded:
//
//   UnionAll(CachedScan(result as-of row N), <chain over rows [N, M)>)
//
// reusing the cached prefix and scanning only the delta window. For
// Aggregate roots with decomposable functions the delta rows are
// aggregated and merged with the cached aggregate state, so no base rows
// before N are ever rescanned. The stitched result is re-admitted at the
// new high-water mark by the regular store machinery.
#pragma once

#include <map>
#include <set>
#include <string>

#include "plan/plan.h"
#include "recycler/graph.h"
#include "storage/catalog.h"

namespace recycledb {

/// Relationship between a cached entry's stamps and the base-table
/// snapshots a query was prepared against.
enum class Freshness : uint8_t {
  kFresh,        // every stamped table matches the snapshot exactly
  kAppendStale,  // same epochs, but at least one table has grown
  kAhead,        // same epochs, entry stamped PAST this query's snapshot
  kIncompatible, // epoch changed or stamps unusable
};

/// The append window of a single-table kAppendStale entry: the cached
/// result covers base rows [0, from_rows); rows [from_rows, to_rows) of
/// `table` (at the pinned snapshot) are the delta.
struct StaleWindow {
  std::string table;
  int64_t from_rows = 0;
  int64_t to_rows = 0;
};

/// Classifies a cached entry (its `stamps`, read under the mat shard
/// mutex, and the `base_tables` it depends on) against the per-query
/// pinned snapshots. Every admitted entry is stamped for each of its base
/// tables (OfferResult; adoption re-anchors a spilled image's row marks),
/// so a dependency without a stamp or a snapshot is kIncompatible.
/// `window` (may be null) receives the delta window when the result is
/// kAppendStale with exactly one grown table; multi-table growth leaves
/// window->table empty (such entries never pass DeltaEligibleNode and get
/// evicted by the caller).
///
/// kAhead arises when a concurrent append + refresh re-admitted the
/// entry at a higher row mark than this query's older pinned snapshot:
/// the entry is perfectly good for *later* queries, so callers must
/// treat kAhead as miss-without-evict. kIncompatible beats kAhead beats
/// kAppendStale.
Freshness CheckFreshness(const std::map<std::string, TableStamp>& stamps,
                         const std::set<std::string>& base_tables,
                         const std::map<std::string, TableSnapshot>& snapshots,
                         StaleWindow* window);

/// True when the graph node `node` supports delta maintenance over
/// appends to `table`: an optional kAggregate root whose items all
/// re-aggregate from the list's own partials (Reaggregate: SUM, COUNT,
/// MIN, MAX, and AVG only when SUM and COUNT of the same argument are
/// also present; global MIN/MAX, with no group-by, is excluded because an
/// all-filtered-out delta would contribute a pad row), over a chain of
/// single-child kSelect/kProject nodes, over one full (unwindowed) kScan
/// of `table`, with no other base table in the subtree. OnTableAppended
/// asks it which stale entries to keep, and TryDeltaRewrite asks it of
/// the node a query's plan exactly matched. Reads only identity fields,
/// so the caller need only keep the node alive (the graph lock, or the
/// Prepare-to-OnComplete window of a query that matched it).
bool DeltaEligibleNode(const RGNode& node, const std::string& table);

/// Builds the delta-stitch rewrite for a non-aggregate chain:
/// UnionAll(CachedScan(cached as-of from_rows), chain over rows
/// [from_rows, to_rows)). `plan` must be bound, match a DeltaEligibleNode
/// node, and be structurally the query whose result `cached` holds. Row
/// order equals a cold re-execution's (cached prefix first, delta rows
/// after), so the result is bit-identical. `cached_scan_out` receives the
/// CachedScan node for cost crediting / as-of display.
PlanPtr BuildDeltaStitch(const PlanNode& plan, TablePtr cached,
                         const StaleWindow& window, PlanPtr* cached_scan_out);

/// Builds the aggregate-merge rewrite for a kAggregate root: the delta
/// window is aggregated with the original functions, unioned with the
/// cached aggregate state, and re-aggregated by the one rule
/// (Reaggregate, expr/aggregate.h) with the items themselves as the
/// partials; its final Project restores output names and recomputes AVG
/// as merged SUM / merged COUNT. The merge's temporaries never collide
/// with a group or output name. No base rows before the window are
/// rescanned. Group emission order matches a cold re-execution
/// (first-seen order is preserved through the union), so the result is
/// bit-identical.
PlanPtr BuildAggMerge(const PlanNode& plan, TablePtr cached,
                      const StaleWindow& window, PlanPtr* cached_scan_out);

}  // namespace recycledb
