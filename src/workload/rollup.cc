#include "workload/rollup.h"

#include "api/database.h"
#include "common/rng.h"
#include "common/string_util.h"

namespace recycledb {
namespace rollup {

namespace {

Schema EventsSchema() {
  return Schema({{"ts", TypeId::kInt64},
                 {"sensor", TypeId::kInt32},
                 {"value", TypeId::kDouble}});
}

/// One deterministic event row per timestamp: the row at `ts` is the
/// same whether it was generated into the initial table or into a later
/// batch, so reruns of the scenario are reproducible.
void AppendEvent(Table* t, int64_t ts, const RollupOptions& options) {
  // Per-row hash-derived values (not a sequential Rng): batch generation
  // must not depend on how the preceding rows were split into batches.
  Rng rng(options.seed ^ static_cast<uint64_t>(ts) * 0x9e3779b97f4a7c15ull);
  t->AppendRow({ts,
                static_cast<int32_t>(rng.Uniform(0, options.num_sensors - 1)),
                static_cast<double>(rng.Uniform(0, options.value_range - 1))});
}

}  // namespace

Status Setup(Database* db, const RollupOptions& options) {
  TablePtr events = MakeTable(EventsSchema());
  for (int64_t ts = 0; ts < options.initial_rows; ++ts) {
    AppendEvent(events.get(), ts, options);
  }
  return db->CreateTable("events", std::move(events));
}

TablePtr MakeBatch(int64_t rows, int64_t start_ts,
                   const RollupOptions& options) {
  TablePtr batch = MakeTable(EventsSchema());
  for (int64_t i = 0; i < rows; ++i) {
    AppendEvent(batch.get(), start_ts + i, options);
  }
  return batch;
}

std::vector<std::string> RollupSql(const RollupOptions& options) {
  std::vector<std::string> sql;
  // Grouped rollups: aggregate-merge eligible (AVG rides on SUM+COUNT of
  // the same argument; MIN/MAX are grouped, so empty deltas emit no row).
  sql.push_back(
      "SELECT sensor, SUM(value) AS total, COUNT(value) AS n,"
      " AVG(value) AS mean FROM events GROUP BY sensor");
  sql.push_back(
      "SELECT sensor, MIN(value) AS lo, MAX(value) AS hi FROM events"
      " GROUP BY sensor");
  sql.push_back(
      "SELECT sensor, SUM(value) AS total, COUNT(value) AS n FROM events"
      " WHERE sensor < " +
      std::to_string(options.num_sensors / 2) + " GROUP BY sensor");
  // Overlapping value-threshold windows: delta-stitch eligible (select
  // chain over the unwindowed scan; the cached rows are unioned with the
  // filtered delta window).
  for (int pct : {90, 75, 50}) {
    sql.push_back(StrFormat(
        "SELECT ts, sensor, value FROM events WHERE value >= %d.0",
        options.value_range * pct / 100));
  }
  return sql;
}

}  // namespace rollup
}  // namespace recycledb
