// Catalog: registry of base tables plus on-demand column statistics.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/table.h"

namespace recycledb {

/// Per-column statistics used by the proactive cube-caching heuristic
/// ("apply the rule only if the number of distinct values of the column is
/// smaller than a threshold") and by progress meters.
/// `distinct_count` counts distinct ColumnVector::HashRow values; min and
/// max are monostate for an empty column.
struct ColumnStats {
  int64_t distinct_count = 0;
  Datum min_value;
  Datum max_value;
};

/// A consistent view of one catalog entry at a point in time: the table
/// object, its replace-epoch, and its append high-water mark (row count).
/// Published tables are immutable, so holding the TablePtr pins the
/// snapshot's data even while concurrent appends swap in grown versions.
struct TableSnapshot {
  TablePtr table;
  /// Bumped by ReplaceTable; appends preserve it. Two snapshots of the
  /// same name are append-comparable iff their epochs match.
  uint64_t epoch = 0;
  /// table->num_rows() at snapshot time (the version under append-only
  /// mutation, see DESIGN.md "Delta maintenance").
  int64_t rows = 0;
};

/// Thread-safe registry of base tables.
///
/// The catalog is read-mostly: benchmarks register tables once and then
/// run concurrent query streams against them. Append-only growth goes
/// through AppendRows (copy-on-append + pointer swap), which keeps every
/// previously handed-out TablePtr valid as an immutable as-of snapshot.
class Catalog {
 public:
  Catalog() = default;

  /// Registers `table` under `name`. Computes no statistics: see
  /// GetColumnStats.
  Status RegisterTable(const std::string& name, TablePtr table);

  /// Replaces a registered table (used by update/invalidation tests).
  /// Bumps the entry's epoch: cached results stamped under the old epoch
  /// become incomparable and must be hard-invalidated.
  Status ReplaceTable(const std::string& name, TablePtr table);

  /// Appends `delta`'s rows to table `name` without invalidating readers:
  /// builds a grown copy off-lock (Table::WithAppended: one copy of the
  /// base, only the delta folded into the zone maps) and swaps it in (the
  /// epoch is kept, the high-water mark advances by delta.num_rows()).
  /// Concurrent appends to the same catalog serialize; a ReplaceTable
  /// racing the copy aborts the append. Schema of `delta` must match the
  /// registered table.
  Status AppendRows(const std::string& name, const Table& delta);

  /// Looks up a table; nullptr if absent.
  TablePtr GetTable(const std::string& name) const;

  /// Atomically captures {table, epoch, rows} for `name`; a default
  /// (null-table) snapshot if absent.
  TableSnapshot Snapshot(const std::string& name) const;

  bool HasTable(const std::string& name) const;

  /// Returns statistics for `table.column` of the entry's current table
  /// version; nullopt if either is unknown. Computed on first use, off
  /// the lock: min/max fold the column's zone-map blocks and
  /// distinct_count is one hash pass over the rows. The result is
  /// memoized against the table it was computed from; RegisterTable,
  /// ReplaceTable and AppendRows publish a new table and drop the memo.
  /// Returned by value, so it stays valid across concurrent appends.
  std::optional<ColumnStats> GetColumnStats(const std::string& table,
                                            const std::string& column) const;

  std::vector<std::string> TableNames() const;

  /// Counts the changes that can alter a plan's binding: ReplaceTable
  /// bumps it. RegisterTable does not (names are unique and never
  /// dropped, so a new table changes no existing binding), nor does
  /// AppendRows. A plan node bound under an older generation is stale
  /// (PlanNode::HasStaleBinding; ValidatePlan applies the schema rule to
  /// it again instead of trusting the binding).
  uint64_t schema_generation() const { return schema_generation_.load(); }

 private:
  struct Entry {
    TablePtr table;
    uint64_t epoch = 1;
    /// GetColumnStats memo; describes `table` only (cleared on a swap).
    mutable std::map<std::string, ColumnStats> column_stats;
  };

  mutable std::mutex mu_;
  /// Serializes AppendRows calls so two concurrent appends cannot both
  /// copy the same base and lose rows. Ordered before mu_ (an append
  /// takes append_mu_, then mu_ briefly at each end); no code path takes
  /// append_mu_ while holding mu_.
  std::mutex append_mu_;
  std::map<std::string, Entry> tables_;
  std::atomic<uint64_t> schema_generation_{0};
};

}  // namespace recycledb
