#include "storage/catalog.h"

#include <unordered_set>

namespace recycledb {

namespace {

/// Statistics of column `c` of `table`: min/max from its zone-map blocks,
/// distinct_count from one pass of row hashes (no boxing per row).
ColumnStats ComputeColumnStats(const Table& table, int c) {
  const ColumnVector& col = *table.column(c);
  const ZoneMap& zone = table.zone_map(c);
  RDB_CHECK(zone.rows_covered() == col.size());
  ColumnStats stats;
  for (int64_t b = 0; b < zone.num_blocks(); ++b) {
    const ZoneEntry& e = zone.block(b);
    if (b == 0 || DatumCompare(e.min, stats.min_value) < 0) {
      stats.min_value = e.min;
    }
    if (b == 0 || DatumCompare(e.max, stats.max_value) > 0) {
      stats.max_value = e.max;
    }
  }
  std::unordered_set<uint64_t> distinct;
  const int64_t n = col.size();
  for (int64_t r = 0; r < n; ++r) distinct.insert(col.HashRow(r, 0));
  stats.distinct_count = static_cast<int64_t>(distinct.size());
  return stats;
}

}  // namespace

Status Catalog::RegisterTable(const std::string& name, TablePtr table) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table already registered: " + name);
  }
  tables_[name].table = std::move(table);
  return Status::OK();
}

Status Catalog::ReplaceTable(const std::string& name, TablePtr table) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("table not registered: " + name);
  }
  it->second.table = std::move(table);
  ++it->second.epoch;
  it->second.column_stats.clear();
  schema_generation_.fetch_add(1);
  return Status::OK();
}

Status Catalog::AppendRows(const std::string& name, const Table& delta) {
  // Serialize appends; the O(n) copy runs outside mu_ so concurrent
  // readers never stall behind an append.
  std::lock_guard<std::mutex> append_lock(append_mu_);
  TablePtr base;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tables_.find(name);
    if (it == tables_.end()) {
      return Status::NotFound("table not registered: " + name);
    }
    base = it->second.table;
  }
  if (!(delta.schema() == base->schema())) {
    return Status::InvalidArgument("append schema mismatch for table " + name);
  }
  TablePtr grown = base->WithAppended(delta);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tables_.find(name);
    if (it == tables_.end() || it->second.table != base) {
      // The entry was dropped or ReplaceTable swapped the base out from
      // under the copy; resurrecting pre-replace rows would corrupt it.
      return Status::Internal("table replaced during append: " + name);
    }
    it->second.table = std::move(grown);
    it->second.column_stats.clear();
  }
  return Status::OK();
}

TablePtr Catalog::GetTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.table;
}

TableSnapshot Catalog::Snapshot(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) return TableSnapshot{};
  TableSnapshot snap;
  snap.table = it->second.table;
  snap.epoch = it->second.epoch;
  snap.rows = it->second.table->num_rows();
  return snap;
}

bool Catalog::HasTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return tables_.count(name) > 0;
}

std::optional<ColumnStats> Catalog::GetColumnStats(
    const std::string& table, const std::string& column) const {
  TablePtr snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tables_.find(table);
    if (it == tables_.end()) return std::nullopt;
    auto cit = it->second.column_stats.find(column);
    if (cit != it->second.column_stats.end()) return cit->second;
    snap = it->second.table;
  }
  const int c = snap->schema().IndexOf(column);
  if (c < 0) return std::nullopt;
  ColumnStats stats = ComputeColumnStats(*snap, c);
  {
    // Memoize only if no append or replace published a newer version
    // while the pass ran (holding `snap` keeps its address from reuse).
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tables_.find(table);
    if (it != tables_.end() && it->second.table == snap) {
      it->second.column_stats.emplace(column, stats);
    }
  }
  return stats;
}

std::vector<std::string> Catalog::TableNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, entry] : tables_) names.push_back(name);
  return names;
}

}  // namespace recycledb
