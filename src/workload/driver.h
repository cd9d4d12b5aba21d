// Multi-stream workload harness (§V TPC-H / SkyServer evaluation).
//
// `RunStreams` runs N query streams against one shared Database, each on
// its own Session, so every statement takes the pipeline every embedder's
// does (validation, canonicalization, the exact-hit probes). At most
// `max_concurrent` statements execute at once (the paper's "Vectorwise
// was set up to execute 12 queries in parallel"): the driver's thread
// pool has that many threads and runs one task per stream. It records
// one traced QueryRecord per query and aggregates throughput / latency /
// reuse statistics per stream, per label, and for the whole run.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "api/statement.h"
#include "recycler/recycler.h"

namespace recycledb {

class Database;

namespace workload {

/// One query stream: an ordered list of (label, plan) pairs executed
/// sequentially by a single server thread.
struct StreamSpec {
  std::vector<std::string> labels;
  std::vector<PlanPtr> plans;
};

/// Per-query record of one stream statement: its timing and trace.
struct QueryRecord {
  int stream = 0;
  int index = 0;
  std::string label;
  double start_ms = 0;  // relative to the run start
  double end_ms = 0;
  int64_t result_rows = 0;
  QueryTrace trace;
};

/// Per-label aggregate.
struct LabelStats {
  int64_t count = 0;
  double total_ms = 0;
  double AvgMs() const { return count == 0 ? 0 : total_ms / count; }
};

/// Per-stream aggregate (derived from the records): the stream's own
/// tallies plus the sum of its queries' per-query counts.
struct StreamStats : QueryCounts {
  int64_t queries = 0;
  double total_ms = 0;  // sum of query durations
  double span_ms = 0;   // first query issued -> last result
};

/// Result of a throughput run.
struct RunReport {
  double wall_ms = 0;
  /// Per-stream time from its first query issued to its last result
  /// (the paper's stream evaluation time).
  std::vector<double> stream_ms;
  std::vector<StreamStats> stream_stats;
  std::vector<QueryRecord> records;
  std::map<std::string, LabelStats> by_label;

  double AvgStreamMs() const;
  double TotalQueryMs() const;

  // --- aggregate throughput / latency / reuse --------------------------
  /// Completed queries per second of wall time.
  double QueriesPerSec() const;
  /// Nearest-rank latency percentile over all query durations, p in
  /// (0, 100].
  double LatencyPercentileMs(double p) const;
  int64_t TotalQueries() const { return static_cast<int64_t>(records.size()); }
  /// Every per-query count summed over all records.
  QueryCounts Totals() const;
  /// Fraction of queries that consumed at least one cached result.
  double ReuseRate() const;
};

/// Executes all streams to completion, each on its own Session of `db`,
/// and returns the aggregated report. The pool runs
/// min(max_concurrent, #streams) stream tasks at a time, so at most
/// `max_concurrent` statements execute at once; streams beyond the bound
/// queue, as in the paper's setup. The recycler keeps its state across
/// runs (warm cache), so callers wanting cold numbers use a fresh
/// Database. A failed statement aborts with its Status text.
RunReport RunStreams(Database* db, std::vector<StreamSpec> streams,
                     int max_concurrent = 12);

/// Builds a stream that executes `statement` once per binding set — the
/// paper's template workloads (one pattern, many constants) expressed
/// through the public API. Plans are bound and validated up front;
/// invalid bindings RDB_CHECK-fail (stream construction is builder-time).
StreamSpec MakeStatementStream(PreparedStatement* statement,
                               const std::vector<ParamMap>& bindings,
                               const std::string& label);

}  // namespace workload
}  // namespace recycledb
