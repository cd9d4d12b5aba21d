#include "harness.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <variant>

#include "common/string_util.h"
#include "plan/canonicalize.h"
#include "sql/lower.h"

namespace recycledb {
namespace e2e {

namespace fs = std::filesystem;

int64_t NowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

// ---------------------------------------------------------------------------
// Host probe
// ---------------------------------------------------------------------------

namespace {

constexpr uint64_t kProbeRows = 1 << 18;
constexpr uint64_t kProbeGroups = 4096;

/// Sum of the rows' values whose value is at least 0.25, grouped by key.
/// Row i's key and value come from a SplitMix64 hash of i.
double ProbeKernel() {
  std::unordered_map<uint64_t, double> sums;
  for (uint64_t i = 0; i < kProbeRows; ++i) {
    uint64_t x = (i + 1) * 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    x ^= x >> 31;
    const double value = (x >> 54) / 1024.0;
    if (value >= 0.25) sums[x % kProbeGroups] += value;
  }
  double total = 0;
  for (const auto& [key, sum] : sums) total += sum;
  return total;
}

int64_t ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts.tv_sec * 1000000000ll + ts.tv_nsec;
}

}  // namespace

int64_t ProcessCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return ts.tv_sec * 1000000000ll + ts.tv_nsec;
}

void HostProbe::Run(int threads, int reps) {
  std::vector<std::vector<double>> cpu_ms(threads);
  std::vector<double> totals(threads);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (int r = 0; r < reps; ++r) {
        const int64_t start = ThreadCpuNs();
        totals[t] += ProbeKernel();
        cpu_ms[t].push_back((ThreadCpuNs() - start) / 1e6);
      }
    });
  }
  for (auto& w : workers) w.join();
  for (const auto& m : cpu_ms) {
    cpu_ms_.insert(cpu_ms_.end(), m.begin(), m.end());
  }
  // Every run sums the same values, so every thread's total is the same;
  // the check also keeps the kernel from being optimized away.
  for (double total : totals) RDB_CHECK(total == totals[0]);
}

double HostProbe::MedianCpuMs() const { return Percentile(cpu_ms_, 50); }

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

int32_t SpanLog::Begin(const char* name, int64_t op, int32_t parent) {
  Span span;
  span.name = name;
  span.op = op;
  span.parent = parent;
  span.start_ns = NowNs();
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanLog::Merge(const SpanLog& other) {
  const int32_t base = static_cast<int32_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(span);
  }
  for (OperatorSelf self : other.operators_) {
    self.parent += base;
    operators_.push_back(self);
  }
}

namespace {

/// Records each operator's self time (inclusive minus its children's
/// inclusive time) under the exec.run span. A plan node shared by two
/// parents is attributed once: node_runtime holds one operator per node.
void AddOperatorSelves(const PlanPtr& node, const ExecResult& exec,
                       int32_t exec_span, int64_t op, SpanLog* log,
                       std::unordered_set<const PlanNode*>* seen) {
  if (!seen->insert(node.get()).second) return;
  auto it = exec.node_runtime.find(node.get());
  if (it != exec.node_runtime.end()) {
    double self_ms = it->second.inclusive_ms;
    for (const PlanPtr& child : node->children()) {
      auto c = exec.node_runtime.find(child.get());
      if (c != exec.node_runtime.end()) self_ms -= c->second.inclusive_ms;
    }
    OperatorSelf self;
    self.parent = exec_span;
    self.op = op;
    self.type = node->type();
    self.self_ns = std::llround(self_ms * 1e6);
    log->AddOperatorSelf(self);
  }
  for (const PlanPtr& child : node->children()) {
    AddOperatorSelves(child, exec, exec_span, op, log, seen);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

Answer AnswerOf(const Result& result) {
  Answer a;
  a.ok = result.ok() && result.table() != nullptr;
  if (a.ok) {
    a.rows = result.num_rows();
    a.digest = trace::ResultDigest(*result.table());
    a.table = result.table();
  }
  return a;
}

Client::Client(Database* db, SpanLog* log, bool traced)
    : db_(db),
      log_(log),
      traced_(traced),
      session_(db->Connect()),
      executor_(&db->catalog()) {
  executor_.set_zone_map_pruning(db->config().enable_zone_map_pruning);
}

Result Client::Sql(const std::string& sql, double* ms) {
  const int64_t op = log_->NewOp();
  Result result;
  int32_t root;
  const int64_t cpu = ProcessCpuNs();
  {
    SpanScope span(log_, "stmt", op);
    root = span.id();
    result = traced_ ? RunLayers(&sql, nullptr, op, root) : session_->Sql(sql);
  }
  cpu_ns_ += ProcessCpuNs() - cpu;
  *ms = log_->DurationMs(root);
  return result;
}

Result Client::Execute(const PlanPtr& plan, double* ms) {
  const int64_t op = log_->NewOp();
  Result result;
  int32_t root;
  const int64_t cpu = ProcessCpuNs();
  {
    SpanScope span(log_, "stmt", op);
    root = span.id();
    result = traced_ ? RunLayers(nullptr, plan, op, root)
                     : session_->Execute(plan);
  }
  cpu_ns_ += ProcessCpuNs() - cpu;
  *ms = log_->DurationMs(root);
  return result;
}

Result Client::RunLayers(const std::string* sql, PlanPtr plan, int64_t op,
                         int32_t root) {
  if (sql != nullptr) {
    SpanScope span(log_, "sql.parse_lower", op, root);
    Status st = sql::SqlToPlan(*sql, db_->catalog(), &plan);
    if (!st.ok()) return Result::Error(std::move(st));
  }
  {
    SpanScope span(log_, "api.validate", op, root);
    Status st = ValidatePlan(plan, db_->catalog(), nullptr);
    if (!st.ok()) return Result::Error(std::move(st));
  }
  if (db_->options().canonicalize_plans) {
    SpanScope span(log_, "plan.canonicalize", op, root);
    plan = CanonicalizePlan(plan);
  }
  Recycler& recycler = db_->recycler();
  std::unique_ptr<PreparedQuery> prepared;
  {
    SpanScope span(log_, "recycler.prepare", op, root);
    prepared = recycler.Prepare(plan);
  }
  // The recycler's own executor run also pins the query's table
  // snapshots; every traced workload appends only between statements, so
  // the live catalog is the pinned version.
  ExecResult exec;
  int32_t exec_span;
  {
    SpanScope span(log_, "exec.run", op, root);
    exec_span = span.id();
    exec = executor_.Run(prepared->plan(), &prepared->stores());
  }
  std::unordered_set<const PlanNode*> seen;
  AddOperatorSelves(prepared->plan(), exec, exec_span, op, log_, &seen);
  QueryTrace trace;
  {
    SpanScope span(log_, "recycler.complete", op, root);
    recycler.OnComplete(prepared.get(), exec);
    trace = prepared->trace();
    prepared.reset();
  }
  return Result::Of(std::move(exec), std::move(trace));
}

Status Client::Append(const std::string& table, const Table& rows,
                      double* ms) {
  const int64_t op = log_->NewOp();
  Status st;
  int32_t root;
  const int64_t cpu = ProcessCpuNs();
  {
    SpanScope span(log_, "append", op);
    root = span.id();
    if (!traced_) {
      st = db_->AppendTable(table, rows);
    } else {
      {
        SpanScope s(log_, "storage.append", op, root);
        st = db_->catalog().AppendRows(table, rows);
      }
      if (st.ok()) {
        SpanScope s(log_, "recycler.on_append", op, root);
        db_->recycler().OnTableAppended(table);
      }
    }
  }
  cpu_ns_ += ProcessCpuNs() - cpu;
  *ms = log_->DurationMs(root);
  return st;
}

// ---------------------------------------------------------------------------
// Tally, counters, report
// ---------------------------------------------------------------------------

void Tally::AddStatement(const Result& result, double ms) {
  ++attempted;
  stmt_ms.push_back(ms);
  if (!result.ok()) {
    ++failed;
    return;
  }
  const QueryTrace& t = result.trace();
  ++modes[static_cast<int>(t.reuse_mode)];
  if (t.num_cold_hits > 0) ++cold_hit_statements;
  materialized += t.num_materialized;
  spec_aborted += t.num_spec_aborted;
  stalls += t.num_stalls;
  stall_ms += t.stall_ms;
  match_ms += t.match_ms;
  blocks_scanned += t.blocks_scanned;
  blocks_pruned += t.blocks_pruned;
}

void Tally::AddAppend(const Status& status, double ms) {
  ++attempted;
  if (!status.ok()) ++failed;
  append_ms.push_back(ms);
}

void Tally::AddRestart(const Status& status, double ms) {
  ++attempted;
  if (!status.ok()) ++failed;
  restart_ms.push_back(ms);
}

void Tally::Merge(const Tally& o) {
  stmt_ms.insert(stmt_ms.end(), o.stmt_ms.begin(), o.stmt_ms.end());
  append_ms.insert(append_ms.end(), o.append_ms.begin(), o.append_ms.end());
  restart_ms.insert(restart_ms.end(), o.restart_ms.begin(),
                    o.restart_ms.end());
  cpu_ns += o.cpu_ns;
  attempted += o.attempted;
  failed += o.failed;
  rounding_only += o.rounding_only;
  for (int i = 0; i < 7; ++i) modes[i] += o.modes[i];
  cold_hit_statements += o.cold_hit_statements;
  materialized += o.materialized;
  spec_aborted += o.spec_aborted;
  stalls += o.stalls;
  stall_ms += o.stall_ms;
  match_ms += o.match_ms;
  blocks_scanned += o.blocks_scanned;
  blocks_pruned += o.blocks_pruned;
}

namespace {

/// Rows of `t` in a canonical order: by their values, doubles rounded to
/// 12 significant digits so that last-bit differences do not reorder.
std::vector<int64_t> CanonicalRowOrder(const Table& t) {
  std::vector<std::string> keys(t.num_rows());
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    for (int c = 0; c < t.num_columns(); ++c) {
      const Datum d = t.Get(r, c);
      keys[r] += std::holds_alternative<double>(d)
                     ? StrFormat("%.12g", std::get<double>(d))
                     : DatumToString(d);
      keys[r] += '\x1f';
    }
  }
  std::vector<int64_t> order(t.num_rows());
  for (int64_t r = 0; r < t.num_rows(); ++r) order[r] = r;
  std::sort(order.begin(), order.end(),
            [&](int64_t a, int64_t b) { return keys[a] < keys[b]; });
  return order;
}

/// Multiset equality up to rounding: non-double values equal, doubles
/// within 1e-9 of each other relative to their magnitude.
bool EqualUpToRounding(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  const std::vector<int64_t> ra = CanonicalRowOrder(a);
  const std::vector<int64_t> rb = CanonicalRowOrder(b);
  for (int64_t i = 0; i < a.num_rows(); ++i) {
    for (int c = 0; c < a.num_columns(); ++c) {
      const Datum x = a.Get(ra[i], c);
      const Datum y = b.Get(rb[i], c);
      if (std::holds_alternative<double>(x) &&
          std::holds_alternative<double>(y)) {
        const double u = std::get<double>(x), v = std::get<double>(y);
        if (!(u == v || std::fabs(u - v) <=
                            1e-9 * std::max(std::fabs(u), std::fabs(v)))) {
          return false;
        }
      } else if (x != y) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

void CheckAnswer(const std::string& statement, ReuseMode mode,
                 const Answer& got, const Answer& expected, Tally* tally) {
  if (!got.ok) return;
  if (expected.ok && got.rows == expected.rows) {
    if (got.digest == expected.digest) return;
    if (EqualUpToRounding(*got.table, *expected.table)) {
      ++tally->rounding_only;
      return;
    }
  }
  ++tally->failed;
  constexpr int64_t kDescribed = 5;
  if (tally->failed <= kDescribed) {
    std::fprintf(stderr,
                 "oracle mismatch (reuse mode %s): %lld rows, digest %016llx;"
                 " bypass: %s%lld rows, digest %016llx\n  %s\n",
                 ReuseModeName(mode), (long long)got.rows,
                 (unsigned long long)got.digest,
                 expected.ok ? "" : "failed, ", (long long)expected.rows,
                 (unsigned long long)expected.digest, statement.c_str());
  }
}

double Tally::OpsPerSecondOfLatency() const {
  double total_ms = 0;
  for (double v : stmt_ms) total_ms += v;
  for (double v : append_ms) total_ms += v;
  for (double v : restart_ms) total_ms += v;
  return total_ms > 0 ? attempted / (total_ms / 1000.0) : 0;
}

Counters Counters::Of(const RecyclerCounters& c) {
  Counters out;
  out.evictions = c.evictions.load();
  out.cold_readmissions = c.cold_readmissions.load();
  out.cold_adoptions = c.cold_adoptions.load();
  out.cold_load_errors = c.cold_load_errors.load();
  out.cold_spills = c.cold_spills.load();
  out.cold_raw_bytes = c.cold_spill_raw_bytes.load();
  out.cold_stored_bytes = c.cold_spill_stored_bytes.load();
  return out;
}

Counters Counters::operator-(const Counters& o) const {
  Counters d = *this;
  d.evictions -= o.evictions;
  d.cold_readmissions -= o.cold_readmissions;
  d.cold_adoptions -= o.cold_adoptions;
  d.cold_load_errors -= o.cold_load_errors;
  d.cold_spills -= o.cold_spills;
  d.cold_raw_bytes -= o.cold_raw_bytes;
  d.cold_stored_bytes -= o.cold_stored_bytes;
  return d;
}

Counters& Counters::operator+=(const Counters& o) {
  evictions += o.evictions;
  cold_readmissions += o.cold_readmissions;
  cold_adoptions += o.cold_adoptions;
  cold_load_errors += o.cold_load_errors;
  cold_spills += o.cold_spills;
  cold_raw_bytes += o.cold_raw_bytes;
  cold_stored_bytes += o.cold_stored_bytes;
  return *this;
}

void Report::AddCheck(const std::string& name, bool ok,
                      const std::string& detail) {
  checks.push_back({name, ok, detail});
}

bool Report::correct() const {
  if (failed != 0) return false;
  for (const auto& c : checks) {
    if (!c.ok) return false;
  }
  return true;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * values.size());
  const size_t idx =
      static_cast<size_t>(std::max(1.0, std::min(rank, 1.0 * values.size())));
  return values[idx - 1];
}

double WeightedPercentile(const std::vector<double>& values,
                          const std::vector<double>& weights, double p) {
  std::vector<size_t> order(values.size());
  double total = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    order[i] = i;
    total += weights[i];
  }
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return values[a] < values[b]; });
  double cumulative = 0;
  for (size_t i : order) {
    cumulative += weights[i];
    if (cumulative >= p / 100.0 * total) return values[i];
  }
  return order.empty() ? 0 : values[order.back()];
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

int64_t DirectoryBytes(const std::string& dir) {
  int64_t bytes = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      bytes += static_cast<int64_t>(it->file_size(ec));
    }
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// Per-layer metrics
// ---------------------------------------------------------------------------

namespace {

bool IsTimedRoot(const Span& s) {
  return s.parent < 0 && (std::string(s.name) == "stmt" ||
                          std::string(s.name) == "append" ||
                          std::string(s.name) == "restart");
}

/// Operator types in the order the per-layer metrics list them.
constexpr OpType kOperatorTypes[] = {
    OpType::kScan,    OpType::kFunctionScan, OpType::kSelect,
    OpType::kProject, OpType::kAggregate,    OpType::kHashJoin,
    OpType::kOrderBy, OpType::kTopN,         OpType::kLimit,
    OpType::kUnionAll, OpType::kCachedScan};

}  // namespace

void AddLayerMetrics(const SpanLog& log, const Tally& tally,
                     const Counters& counters, const GraphStats& graph,
                     Report* report) {
  const std::vector<Span>& spans = log.spans();
  // Root of every span (parents precede children in a log).
  std::vector<int32_t> root(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    root[i] = spans[i].parent < 0 ? static_cast<int32_t>(i)
                                  : root[spans[i].parent];
  }
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      child_ns[spans[i].parent] += spans[i].end_ns - spans[i].start_ns;
    }
  }
  for (const OperatorSelf& o : log.operators()) child_ns[o.parent] += o.self_ns;

  // Self time per span name over the timed ops, and total time per name
  // and call count over all ops (set-up steps included).
  std::map<std::string, int64_t> self_ns, total_ns, calls;
  int64_t op_ns = 0;
  int64_t glue_ns = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const int64_t dur = s.end_ns - s.start_ns;
    total_ns[s.name] += dur;
    ++calls[s.name];
    if (!IsTimedRoot(spans[root[i]])) continue;
    if (s.parent < 0) {
      op_ns += dur;
      glue_ns += dur - child_ns[i];
    } else {
      self_ns[s.name] += dur - child_ns[i];
    }
  }
  std::map<OpType, int64_t> operator_ns;
  for (const OperatorSelf& o : log.operators()) {
    if (IsTimedRoot(spans[root[o.parent]])) operator_ns[o.type] += o.self_ns;
  }

  auto& m = report->per_layer;
  const double stmts = std::max<int64_t>(1, tally.statements());
  auto mean_ms = [&](const std::string& name) {
    return calls[name] == 0 ? 0.0 : total_ns[name] / 1e6 / calls[name];
  };
  auto share = [&](int64_t ns) { return op_ns > 0 ? 1.0 * ns / op_ns : 0.0; };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  // Layer times (each layer is exercised by every workload).
  m["api.open_ms"] = {mean_ms("api.open"), "ms"};
  m["api.close_ms"] = {mean_ms("api.close"), "ms"};
  m["storage.register_ms"] = {mean_ms("storage.register"), "ms"};
  m["api.validate_us"] = {self_ns["api.validate"] / 1e3 / stmts, "us"};
  m["plan.canonicalize_us"] = {self_ns["plan.canonicalize"] / 1e3 / stmts,
                               "us"};
  m["recycler.self_us"] = {
      (self_ns["recycler.prepare"] + self_ns["recycler.complete"]) / 1e3 /
          stmts,
      "us"};
  m["recycler.match_us"] = {tally.match_ms * 1e3 / stmts, "us"};
  m["exec.run_ms"] = {total_ns["exec.run"] / 1e6 / std::max<int64_t>(
                                                        1, calls["exec.run"]),
                      "ms"};
  m["exec.unattributed_us"] = {self_ns["exec.run"] / 1e3 / stmts, "us"};

  // Where the timed ops' time went: each layer's self time as a share of
  // the summed op latency. The shares of a traced run add up to
  // trace.coverage; the rest is the harness's own glue between calls.
  m["sql.parse_lower_share"] = {share(self_ns["sql.parse_lower"]), "share"};
  m["api.validate_share"] = {share(self_ns["api.validate"]), "share"};
  m["plan.canonicalize_share"] = {share(self_ns["plan.canonicalize"]),
                                  "share"};
  m["recycler.self_share"] = {
      share(self_ns["recycler.prepare"] + self_ns["recycler.complete"]),
      "share"};
  m["recycler.stall_share"] = {share(std::llround(tally.stall_ms * 1e6)),
                               "share"};
  m["recycler.on_append_share"] = {share(self_ns["recycler.on_append"]),
                                   "share"};
  m["exec.unattributed_share"] = {share(self_ns["exec.run"]), "share"};
  for (OpType type : kOperatorTypes) {
    m[StrFormat("exec.op.%s.share", OpTypeName(type))] = {
        share(operator_ns[type]), "share"};
  }
  m["storage.append_share"] = {share(self_ns["storage.append"]), "share"};
  m["storage.register_share"] = {share(self_ns["storage.register"]), "share"};
  m["api.open_share"] = {share(self_ns["api.open"]), "share"};
  m["api.close_share"] = {share(self_ns["api.close"]), "share"};
  m["cold.checkpoint_share"] = {share(self_ns["cold.checkpoint"]), "share"};
  m["trace.coverage"] = {share(op_ns - glue_ns), "share"};
  // Against the untraced run's values, the tracing overhead: in absolute
  // throughput as users see it, and in CPU per op against the host probe
  // and latency against bypass, which the host's speed drift between the
  // two runs moves far less.
  m["trace.throughput_ops_s"] = {report->extra["throughput_ops_s"].value,
                                 "ops/s"};
  m["trace.op_cpu_vs_probe"] = {report->end_to_end["op_cpu_vs_probe"].value,
                                "ratio"};
  m["trace.stmt_mean_vs_bypass"] = {
      report->end_to_end["stmt_mean_vs_bypass"].value, "ratio"};

  // Counts: exact for a given seed on the single-client workloads.
  auto mode = [&](ReuseMode r) { return tally.modes[static_cast<int>(r)]; };
  int64_t hits = 0;
  for (int i = 0; i < 7; ++i) hits += tally.modes[i];
  hits -= mode(ReuseMode::kNone);
  m["recycler.hit_ratio"] = {ratio(hits, stmts), "ratio"};
  m["recycler.exact_share"] = {
      ratio(mode(ReuseMode::kExact) + mode(ReuseMode::kColdReadmit), stmts),
      "ratio"};
  m["recycler.subsumption_share"] = {
      ratio(mode(ReuseMode::kSubsumption), stmts), "ratio"};
  m["recycler.stitch_share"] = {ratio(mode(ReuseMode::kPartialStitch), stmts),
                                "ratio"};
  m["recycler.delta_share"] = {
      ratio(mode(ReuseMode::kDelta) + mode(ReuseMode::kAggMerge), stmts),
      "ratio"};
  m["recycler.agg_merge_share"] = {ratio(mode(ReuseMode::kAggMerge), stmts),
                                   "ratio"};
  m["recycler.materializations"] = {1.0 * tally.materialized, "count"};
  m["recycler.spec_aborts"] = {1.0 * tally.spec_aborted, "count"};
  m["recycler.spec_yield"] = {
      ratio(tally.materialized, tally.materialized + tally.spec_aborted),
      "ratio"};
  m["recycler.stalls"] = {1.0 * tally.stalls, "count"};
  m["recycler.graph_nodes"] = {1.0 * graph.num_nodes, "count"};
  m["cache.used_mb"] = {graph.cached_bytes / 1048576.0, "MB"};
  m["cache.evictions"] = {1.0 * counters.evictions, "count"};
  m["cold.hit_share"] = {ratio(tally.cold_hit_statements, stmts), "ratio"};
  m["cold.readmissions"] = {1.0 * counters.cold_readmissions, "count"};
  m["cold.adoptions"] = {1.0 * counters.cold_adoptions, "count"};
  m["cold.spills"] = {1.0 * counters.cold_spills, "count"};
  m["cold.load_errors"] = {1.0 * counters.cold_load_errors, "count"};
  m["cold.compression_ratio"] = {
      ratio(counters.cold_raw_bytes, counters.cold_stored_bytes), "ratio"};
  // sky_restart overwrites this after its final close has checkpointed.
  m["cold.disk_mb"] = {0.0, "MB"};
  m["storage.prune_ratio"] = {
      ratio(tally.blocks_pruned, tally.blocks_pruned + tally.blocks_scanned),
      "ratio"};
  m["storage.blocks_scanned"] = {1.0 * tally.blocks_scanned, "count"};
}

Status WriteSpans(const SpanLog& log, const Args& args) {
  std::error_code ec;
  const fs::path path(args.trace_path);
  if (path.has_parent_path()) fs::create_directories(path.parent_path(), ec);
  std::FILE* f = std::fopen(args.trace_path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot write trace file " + args.trace_path);
  }
  std::fprintf(f, "{\"workload\":\"%s\",\"seed\":%llu}\n",
               args.workload.c_str(), (unsigned long long)args.seed);
  const std::vector<Span>& spans = log.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"parent\":%d,\"op\":%lld,\"name\":\"%s\","
                 "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 i, s.parent, (long long)s.op, s.name, s.start_ns / 1e3,
                 s.end_ns / 1e3);
  }
  for (const OperatorSelf& o : log.operators()) {
    std::fprintf(f,
                 "{\"parent\":%d,\"op\":%lld,\"name\":\"exec.op.%s\","
                 "\"self_us\":%.3f}\n",
                 o.parent, (long long)o.op, OpTypeName(o.type),
                 o.self_ns / 1e3);
  }
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok
             ? Status::OK()
             : Status::Internal("short write to " + args.trace_path);
}

// ---------------------------------------------------------------------------
// Database lifecycle
// ---------------------------------------------------------------------------

Status OpenAndRegister(
    const DatabaseOptions& options,
    const std::vector<std::pair<std::string, TablePtr>>& tables,
    SpanLog* log, int64_t op, int32_t root, std::unique_ptr<Database>* out) {
  {
    SpanScope span(log, "api.open", op, root);
    RDB_RETURN_NOT_OK(Database::Open(options, out));
  }
  for (const auto& [name, table] : tables) {
    SpanScope span(log, "storage.register", op, root);
    RDB_RETURN_NOT_OK((*out)->CreateTable(name, table));
  }
  return Status::OK();
}

void Close(std::unique_ptr<Database>* db, bool traced, SpanLog* log,
           int64_t op, int32_t root, Counters* final_counters) {
  SpanScope span(log, "api.close", op, root);
  if (traced) {
    SpanScope checkpoint(log, "cold.checkpoint", op, span.id());
    (*db)->recycler().CheckpointColdTier();
  }
  if (final_counters != nullptr) {
    *final_counters = Counters::Of((*db)->counters());
  }
  db->reset();
}

std::unique_ptr<Database> SetUp(
    const DatabaseOptions& options,
    const std::vector<std::pair<std::string, TablePtr>>& tables, int repeats,
    SpanLog* log, Report* report) {
  std::unique_ptr<Database> db;
  std::vector<double> setup_ms;
  for (int i = 0; i < repeats; ++i) {
    if (db != nullptr) {
      const int64_t op = log->NewOp();
      SpanScope close(log, "close", op);
      Close(&db, /*traced=*/false, log, op, close.id(), nullptr);
    }
    const int64_t op = log->NewOp();
    int32_t root;
    Status st;
    {
      SpanScope span(log, "setup", op);
      root = span.id();
      st = OpenAndRegister(options, tables, log, op, root, &db);
    }
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return nullptr;
    }
    setup_ms.push_back(log->DurationMs(root));
  }
  report->end_to_end["setup_s"] = {Percentile(setup_ms, 50) / 1000.0, "s"};
  return db;
}

}  // namespace e2e
}  // namespace recycledb
