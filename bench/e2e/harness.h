// End-to-end benchmark harness: closed-loop clients, in-memory span
// tracing around each layer call, the bypass oracle's answer digests, and
// the per-run report. See README.md in this directory for the metrics.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "recycledb/recycledb.h"

namespace recycledb {
namespace e2e {

/// Command line of one benchmark run. Each workload's op counts are
/// constants, sized for a timed phase of about 10 seconds on a 4-core
/// machine, so single-client counts repeat exactly for a seed.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  /// Traced run: statements call the layers one by one, every call is
  /// recorded as a span, and the spans are written here as JSONL when
  /// the run ends. Empty: untraced run (end-to-end metrics).
  std::string trace_path;
  /// Parent directory for the run's spill directory.
  std::string scratch_dir = ".";
  /// When set, one JSON record of the run (metrics, counts, checks) is
  /// appended to this file; compare.py reads these files.
  std::string record_path;
};

/// Nanoseconds on the steady clock since the first call in the process.
int64_t NowNs();

/// CPU time of this process, all threads, in nanoseconds.
int64_t ProcessCpuNs();

/// The host's speed, measured as the CPU time of a fixed kernel that
/// runs no engine code: a filtered group-by into a std::unordered_map
/// over generated rows, the hashing, branching and pointer chasing a scan
/// with an aggregate does. op_cpu_vs_probe divides the engine's CPU time
/// per op by the kernel's. CPU time leaves out the time a thread waits
/// for a CPU, which other tenants of a shared host change from run to
/// run; the ratio also cancels much of what they do to caches and
/// memory bandwidth, which slows the kernel and the engine alike. A
/// slower engine moves only the engine's side, whatever layer it is in.
class HostProbe {
 public:
  /// Runs the kernel `reps` times on each of `threads` threads at once,
  /// so that it meets the contention the workload's clients meet, and
  /// keeps each run's thread CPU time.
  void Run(int threads, int reps);
  /// Median CPU time of one kernel run, in ms.
  double MedianCpuMs() const;

 private:
  std::vector<double> cpu_ms_;
};

/// One timed call. An op root (a statement, append, restart or setup
/// step) has parent -1; its children are the layer calls the op made.
struct Span {
  const char* name = "";
  int64_t op = 0;
  int32_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Self time of one operator inside an exec.run span, from
/// ExecResult::node_runtime (self = inclusive - children's inclusive).
struct OperatorSelf {
  int32_t parent = -1;
  int64_t op = 0;
  OpType type = OpType::kScan;
  int64_t self_ns = 0;
};

/// Spans of one client, kept in memory until the run ends. One log per
/// client thread; logs are merged after the threads join.
class SpanLog {
 public:
  /// Op ids of this log start at `op_base` (distinct per client).
  explicit SpanLog(int64_t op_base = 0) : next_op_(op_base) {}

  int64_t NewOp() { return next_op_++; }
  int32_t Begin(const char* name, int64_t op, int32_t parent);
  void End(int32_t span) { spans_[span].end_ns = NowNs(); }
  void AddOperatorSelf(OperatorSelf self) { operators_.push_back(self); }
  /// Appends `other`'s records, re-basing its parent indexes.
  void Merge(const SpanLog& other);

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<OperatorSelf>& operators() const { return operators_; }
  double DurationMs(int32_t span) const {
    return (spans_[span].end_ns - spans_[span].start_ns) / 1e6;
  }

 private:
  int64_t next_op_;
  std::vector<Span> spans_;
  std::vector<OperatorSelf> operators_;
};

/// RAII span: begins on construction, ends on destruction.
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name, int64_t op, int32_t parent = -1)
      : log_(log), id_(log->Begin(name, op, parent)) {}
  ~SpanScope() { log_->End(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int32_t id() const { return id_; }

 private:
  SpanLog* log_;
  int32_t id_;
};

/// What one statement returned, for the oracle: the result table and its
/// order-insensitive digest, computed after the op's timer has stopped.
struct Answer {
  bool ok = false;
  int64_t rows = 0;
  uint64_t digest = 0;
  TablePtr table;
};
Answer AnswerOf(const Result& result);

/// One closed-loop client: it sends its next op only after the previous
/// one returned. Untraced, a statement is one Session call. Traced, the
/// client calls the layers one by one in the order
/// Session::RunValidatedPlan uses (sql::SqlToPlan, ValidatePlan,
/// CanonicalizePlan, Recycler::Prepare, executor run, Recycler::
/// OnComplete) and records a span around each call, with per-operator
/// self times under the exec.run span. Every op records its root span,
/// whose duration is the op's latency.
class Client {
 public:
  Client(Database* db, SpanLog* log, bool traced);

  /// Process CPU time spent inside this client's ops so far; it stands
  /// for the ops' own CPU time while no other thread of the process runs
  /// ops.
  int64_t cpu_ns() const { return cpu_ns_; }

  Result Sql(const std::string& sql, double* ms);
  Result Execute(const PlanPtr& plan, double* ms);
  /// Appends `rows` to `table` (Database::AppendTable, or traced:
  /// Catalog::AppendRows then Recycler::OnTableAppended).
  Status Append(const std::string& table, const Table& rows, double* ms);

 private:
  Result RunLayers(const std::string* sql, PlanPtr plan, int64_t op,
                   int32_t root);

  Database* db_;
  SpanLog* log_;
  bool traced_;
  std::unique_ptr<Session> session_;
  Executor executor_;
  int64_t cpu_ns_ = 0;
};

/// Latencies, failures and per-statement recycler counts of a run's
/// timed ops.
struct Tally {
  std::vector<double> stmt_ms;
  std::vector<double> append_ms;
  std::vector<double> restart_ms;
  /// Process CPU time spent while the timed ops ran.
  int64_t cpu_ns = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Answers equal to bypass except in the last bits of some doubles
  /// (see CheckAnswer); not failures.
  int64_t rounding_only = 0;
  int64_t modes[7] = {0, 0, 0, 0, 0, 0, 0};  // indexed by ReuseMode
  int64_t cold_hit_statements = 0;
  int64_t materialized = 0;
  int64_t spec_aborted = 0;
  int64_t stalls = 0;
  double stall_ms = 0;
  double match_ms = 0;
  int64_t blocks_scanned = 0;
  int64_t blocks_pruned = 0;

  /// Counts one timed statement (a failed one too).
  void AddStatement(const Result& result, double ms);
  /// Counts one timed append or restart.
  void AddAppend(const Status& status, double ms);
  void AddRestart(const Status& status, double ms);
  void Merge(const Tally& other);

  int64_t statements() const {
    return static_cast<int64_t>(stmt_ms.size());
  }
  /// Timed ops / sum of their latencies (single-client throughput).
  double OpsPerSecondOfLatency() const;
};

/// Compares a timed answer with the bypass answer to the same statement
/// on the same table version. Equal digests match. Otherwise the tables
/// are compared as multisets of rows: when every non-double value is
/// equal and every double within 1e-9 relative, the answer differs only
/// by summation order (a recycled aggregate adds its inputs in another
/// order) and counts in rounding_only; anything else is a wrong answer,
/// counted as one failed op and described on stderr (the first few). An
/// answer that is not ok was counted as failed when it ran.
void CheckAnswer(const std::string& statement, ReuseMode mode,
                 const Answer& got, const Answer& expected, Tally* tally);

/// The recycler counters the report uses, as plain numbers so they can
/// be differenced and summed across the Database instances of a run.
struct Counters {
  int64_t evictions = 0;
  int64_t cold_readmissions = 0;
  int64_t cold_adoptions = 0;
  int64_t cold_load_errors = 0;
  int64_t cold_spills = 0;
  int64_t cold_raw_bytes = 0;
  int64_t cold_stored_bytes = 0;

  static Counters Of(const RecyclerCounters& c);
  Counters operator-(const Counters& o) const;
  Counters& operator+=(const Counters& o);
};

/// One property a workload must have for its numbers to mean what the
/// README says they mean.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// A metric value with its unit.
struct Metric {
  double value = 0;
  std::string unit;
};

/// Everything one run reports.
struct Report {
  std::string workload;
  uint64_t seed = 0;
  bool traced = false;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Gated end-to-end metrics (names fixed by BENCHMARK.json).
  std::map<std::string, Metric> end_to_end;
  /// Per-layer metrics (names fixed by BENCHMARK.json).
  std::map<std::string, Metric> per_layer;
  /// Numbers printed but not gated: the absolute values behind the gated
  /// ratios, and those that exist on one workload only.
  std::map<std::string, Metric> extra;
  std::vector<Check> checks;
  /// Untimed oracle work: seconds spent, statements compared, and the
  /// population they were drawn from (equal unless sampled).
  double verify_s = 0;
  int64_t verified = 0;
  int64_t verify_population = 0;

  void AddCheck(const std::string& name, bool ok, const std::string& detail);
  bool correct() const;
};

/// Nearest-rank percentile (p in (0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);
/// The same over a weighted sample: the smallest value whose cumulative
/// weight reaches p% of the total.
double WeightedPercentile(const std::vector<double>& values,
                          const std::vector<double>& weights, double p);

/// Peak resident set size of this process (VmHWM) in MiB.
double PeakRssMb();

/// Bytes of the regular files under `dir`, recursively.
int64_t DirectoryBytes(const std::string& dir);

/// Fills the per-layer metrics of `report` from the run's spans, its
/// statement tally, and the counters and graph state observed at the
/// end of the run.
void AddLayerMetrics(const SpanLog& log, const Tally& tally,
                     const Counters& counters, const GraphStats& graph,
                     Report* report);

/// Writes the spans as JSONL (one span or operator self time per line).
Status WriteSpans(const SpanLog& log, const Args& args);

/// Sets up a Database the way every workload does: Database::Open, then
/// CreateTable for each of `tables` — `repeats` times, closing each
/// instance but the last. Each step is a span; the median set-up time
/// is reported as setup_s. Returns the last instance.
std::unique_ptr<Database> SetUp(
    const DatabaseOptions& options,
    const std::vector<std::pair<std::string, TablePtr>>& tables, int repeats,
    SpanLog* log, Report* report);

/// Opens a Database and registers `tables` under spans of `root`.
Status OpenAndRegister(
    const DatabaseOptions& options,
    const std::vector<std::pair<std::string, TablePtr>>& tables,
    SpanLog* log, int64_t op, int32_t root, std::unique_ptr<Database>* out);

/// Closes `db` under an api.close span of `root`, storing the instance's
/// final counters in `*final_counters` (when non-null). A traced run
/// first checkpoints the cold tier in a span of its own, so the counters
/// include what the checkpoint wrote; untraced, the destructor
/// checkpoints after the counters are read.
void Close(std::unique_ptr<Database>* db, bool traced, SpanLog* log,
           int64_t op, int32_t root, Counters* final_counters);

/// The workload names, as BENCHMARK.json lists them (workloads.cc).
const std::vector<std::string>& WorkloadNames();

/// Runs `args.workload` and fills `report`. A non-OK status means the run
/// could not be set up and measured nothing.
Status RunWorkload(const Args& args, Report* report);

}  // namespace e2e
}  // namespace recycledb
