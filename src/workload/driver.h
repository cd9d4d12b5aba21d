// Multi-stream workload harness (§V TPC-H / SkyServer evaluation).
//
// `WorkloadDriver` runs N query streams against one shared Recycler with
// a bound on concurrently *executing* queries (the paper's "Vectorwise
// was set up to execute 12 queries in parallel"), records one traced
// QueryRecord per query, and aggregates throughput / latency / reuse
// statistics per stream, per label, and for the whole run.
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

/// Per-query record (drives the Fig. 8 breakdown and the Fig. 9 trace).
struct QueryRecord {
  int stream = 0;
  int index = 0;
  std::string label;
  double start_ms = 0;  // relative to the run start
  double end_ms = 0;
  int64_t result_rows = 0;
  /// Order-insensitive result digest (trace::ResultDigest); 0 unless
  /// DriverOptions::compute_digests is on. Trace replay diffs this
  /// against the recorded value per execution.
  uint64_t digest = 0;
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

/// Driver configuration.
struct DriverOptions {
  /// Upper bound on simultaneously executing queries. Streams beyond the
  /// bound queue, as in the paper's setup.
  int max_concurrent = 12;
  /// Server threads running stream tasks; 0 = min(max_concurrent,
  /// #streams). When larger than max_concurrent, the admission gate (not
  /// the thread count) enforces the execution bound.
  int threads = 0;
  /// Explicit RNG seed for generator-built streams: the MakeStreams /
  /// Setup overloads taking a DriverOptions (skyserver, tpch, rollup)
  /// derive their per-stream seeds from this value, so a recorded
  /// workload can be regenerated exactly. 0 keeps each generator's
  /// historical default seed (the current behavior).
  uint64_t seed = 0;
  /// Compute QueryRecord::digest for every result (order-insensitive
  /// FNV over all datums). Off by default: hashing every result row is
  /// measurable overhead benches should not pay.
  bool compute_digests = false;
};

/// Seed-resolution helper for generator overloads taking DriverOptions:
/// the explicit driver seed when set, else the generator's default.
inline uint64_t ResolveSeed(const DriverOptions& options,
                            uint64_t generator_default) {
  return options.seed != 0 ? options.seed : generator_default;
}

/// The multi-stream harness. One instance may be reused for several runs
/// (each Run builds its own thread pool so a report is always complete
/// when it returns).
class WorkloadDriver {
 public:
  WorkloadDriver(Recycler* recycler, DriverOptions options = {});

  /// Executes all streams to completion and returns the aggregated
  /// report. Safe to call repeatedly; the recycler keeps its state across
  /// runs (warm cache), so callers wanting cold numbers use a fresh
  /// Recycler.
  RunReport Run(std::vector<StreamSpec> streams);

  const DriverOptions& options() const { return options_; }

 private:
  Recycler* recycler_;
  DriverOptions options_;
};

/// Convenience wrapper: one-shot run with the given execution bound.
RunReport RunStreams(Recycler* recycler, std::vector<StreamSpec> streams,
                     int max_concurrent = 12);

/// Facade overload: runs against the Database's recycler.
RunReport RunStreams(Database* db, std::vector<StreamSpec> streams,
                     int max_concurrent = 12);

/// Builds a stream that executes `statement` once per binding set — the
/// paper's template workloads (one pattern, many constants) expressed
/// through the public API. Plans are bound and validated up front;
/// invalid bindings RDB_CHECK-fail (stream construction is builder-time).
StreamSpec MakeStatementStream(PreparedStatement* statement,
                               const std::vector<ParamMap>& bindings,
                               const std::string& label);

/// Formats a Fig. 9-style trace of `report` (who materialized / reused /
/// stalled, per stream and query).
std::string FormatTrace(const RunReport& report);

}  // namespace workload
}  // namespace recycledb
