// Plan-to-operator builder and the query executor.
#pragma once

#include <map>
#include <memory>

#include "exec/operator.h"
#include "exec/store.h"
#include "plan/plan.h"
#include "storage/catalog.h"

namespace recycledb {

/// Per-plan-node run-time measurements, keyed by plan node pointer.
/// The recycler uses these to annotate the recycler graph after the query.
struct NodeRuntime {
  OpStats stats;
  double inclusive_ms = 0;
  int64_t rows_out = 0;
};

/// Result of executing a plan.
struct ExecResult {
  TablePtr table;
  double total_ms = 0;
  /// Zone-map pruning totals over every scan of the plan (1024-row
  /// blocks read vs. skipped).
  int64_t blocks_scanned = 0;
  int64_t blocks_pruned = 0;
  /// One entry per plan node of the executed plan.
  std::map<const PlanNode*, NodeRuntime> node_runtime;
};

/// Builds physical operator trees from bound plans and runs them.
///
/// `store_requests` maps plan nodes to store configurations injected by
/// the recycler's rewrite rules; the builder wraps those nodes' operators
/// in StoreOps. Executor is stateless and thread-compatible: concurrent
/// Run() calls on the same Executor are safe (the catalog is read-only
/// during execution).
class Executor {
 public:
  explicit Executor(const Catalog* catalog) : catalog_(catalog) {}

  /// Enables/disables zone-map scan pruning (on by default). Set at
  /// engine construction, before any Run(): the flag is read during
  /// operator building, so flipping it concurrently with Run() is a race.
  void set_zone_map_pruning(bool enabled) { zone_map_pruning_ = enabled; }
  bool zone_map_pruning() const { return zone_map_pruning_; }

  /// Base tables pinned to specific as-of snapshots for one execution.
  /// Scans of a pinned name read the pinned TablePtr instead of the live
  /// catalog entry, so a delta-stitched plan's bounded windows stay
  /// consistent with the high-water marks the rewrite was computed
  /// against even while concurrent appends swap grown tables in.
  using TablePins = std::map<std::string, TablePtr>;

  /// Builds the operator tree for `plan` (bound) and drains it. A plan
  /// that is a bare CachedScan without a store request builds no tree:
  /// its result is the cached table itself under the plan's column names
  /// (zero copy; the columns are frozen), with the node runtime a scan of
  /// it would report. Likewise, when the root's store materializes, the
  /// result is the store's table (columns frozen), not a second copy.
  ExecResult Run(const PlanPtr& plan,
                 const std::map<const PlanNode*, StoreRequest>*
                     store_requests = nullptr,
                 const TablePins* pins = nullptr);

  /// Builds without running (exposed for tests).
  OperatorPtr BuildOperator(
      const PlanPtr& plan,
      const std::map<const PlanNode*, StoreRequest>* store_requests,
      std::map<const PlanNode*, Operator*>* node_ops,
      const TablePins* pins = nullptr);

 private:
  /// Run's zero-copy path for a bare CachedScan root.
  ExecResult RunCachedRoot(const PlanPtr& plan);

  const Catalog* catalog_;
  bool zone_map_pruning_ = true;
};

}  // namespace recycledb
