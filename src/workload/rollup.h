// Time-series rollup scenario (append-only sliding-window workload).
//
// The delta-maintenance showcase: a fixed set of rollup statements —
// whole-table per-sensor aggregates plus overlapping value-threshold
// windows — re-executed after every batch of appended event rows. With
// pure invalidation each append discards every cached rollup, so the
// repeated statements never hit; with delta maintenance each
// re-execution merges the cached aggregate state (or stitches the
// cached rows) with the appended window and re-admits at the new
// high-water mark, so every repeat after the first is a delta hit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/table.h"

namespace recycledb {

class Database;

namespace rollup {

/// Scenario shape. Event values are integer-valued doubles in
/// [0, value_range): every partial sum stays exactly representable, so
/// merged aggregates are bit-identical to a full re-execution (the gate
/// the delta bench asserts).
struct RollupOptions {
  /// Rows the events table starts with.
  int64_t initial_rows = 20000;
  /// Distinct sensor ids (the rollup group-by cardinality).
  int32_t num_sensors = 8;
  /// Exclusive upper bound on the integer-valued event values.
  int32_t value_range = 1000;
  /// Generator seed; batches continue the sequence deterministically.
  uint64_t seed = 20130413;
};

/// Creates the append-only "events" table (`ts` int64, `sensor` int32,
/// `value` double) with `options.initial_rows` rows. Deterministic.
Status Setup(Database* db, const RollupOptions& options = {});

/// Builds a batch of `rows` event rows continuing the series at
/// timestamp `start_ts` (use the current row count: timestamps are
/// dense). Deterministic given (options.seed, start_ts).
TablePtr MakeBatch(int64_t rows, int64_t start_ts,
                   const RollupOptions& options = {});

/// The fixed rollup statement set, every one delta-eligible (single
/// table, aggregate root or select chain over an unwindowed scan):
/// grouped SUM/COUNT/AVG and MIN/MAX rollups plus overlapping
/// value-threshold window scans.
std::vector<std::string> RollupSql(const RollupOptions& options = {});

}  // namespace rollup
}  // namespace recycledb
