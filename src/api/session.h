// Session: a per-client handle onto a shared Database.
//
// Each session keeps its own statistics and trace ring and may override
// per-client execution settings (trace collection, recycler bypass)
// without affecting other sessions. Sessions are cheap; create one per
// client/thread. A Session is not thread-safe — concurrent clients each
// use their own — and must not outlive its Database.
#pragma once

#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "api/query.h"
#include "api/result.h"
#include "api/statement.h"
#include "common/status.h"

namespace recycledb {

class Database;

namespace trace {
class TraceRecorder;
}  // namespace trace

/// Per-session configuration overrides (the Database supplies defaults
/// for everything it does not override).
struct SessionOptions {
  /// Label used in traces/diagnostics.
  std::string name = "session";
  /// Capacity of the ring of per-query traces (session-local
  /// observability); 0 keeps none.
  size_t max_traces = 1024;
  /// Override: execute this session's queries WITHOUT the recycler
  /// (plain pipelined execution). For per-client A/B comparisons against
  /// the same data.
  bool bypass_recycler = false;
};

/// Session-local aggregate statistics: the sum of the per-query counts
/// (QueryCounts, one field per counter in recycler/counters.h) over this
/// session's successful queries, plus the session's own tallies.
struct SessionStats : QueryCounts {
  /// Queries executed through this session (including failures).
  int64_t queries = 0;
  /// Queries rejected by validation or failed in execution.
  int64_t errors = 0;
  /// Total execution time across this session's queries.
  double total_ms = 0;
};

/// A per-client handle onto a shared Database (see the file comment for
/// the threading and lifetime contract).
class Session {
 public:
  /// Blocks until every async Submit issued through this session has
  /// completed (workers hold a raw pointer to the session's stats).
  ~Session();

  // ---- query building --------------------------------------------------
  /// Query-builder root: base-table scan (see Query::Scan).
  Query Scan(std::string table, std::vector<std::string> columns) const {
    return Query::Scan(std::move(table), std::move(columns));
  }
  /// Query-builder root: table-function scan (see Query::FunctionScan).
  Query FunctionScan(std::string function, std::vector<ExprPtr> args) const {
    return Query::FunctionScan(std::move(function), std::move(args));
  }

  // ---- execution -------------------------------------------------------
  // Every execution below runs one statement pipeline. With the recycler
  // on, SQL text is first probed, before it is lexed, against the
  // recycler's exact-hit index under its text key; a plan (or the plan a
  // missed text lowered to) is probed exactly as submitted. A hit is
  // served from the cached root — or, when rows were appended to its
  // table since, from the root's delta refresh — and skips validation,
  // canonicalization and binding (so a hit leaves an unbound plan
  // unbound). On a miss the plan is validated, canonicalized (per
  // DatabaseOptions::canonicalize_plans), probed again under its
  // canonical key when the canonical form differs, and prepared; when it
  // completes with a hot root, the canonical key, the submitted one and
  // the text key are registered. A plan bound before a ReplaceTable runs
  // as an unbound copy. Bypass sessions and recyclers in off or
  // proactive mode never probe.

  /// One-call SQL text execution: probes the exact-hit index by the text;
  /// on a miss lexes, parses and lowers onto the plan IR, then runs the
  /// statement pipeline.
  /// Every failure — syntax, unknown name, type error — comes back as a
  /// Result carrying a Status with line/column and a caret snippet; the
  /// engine never aborts on bad SQL. Statements with `:name` placeholders
  /// are rejected here: compile those with Prepare(sql).
  Result Sql(std::string_view sql);

  /// Runs a parameter-free query through the statement pipeline.
  Result Execute(const Query& query);
  /// Runs a raw plan through the statement pipeline (workload
  /// generators).
  Result Execute(PlanPtr plan);
  /// Async execution on the database's async pool. Deep-clones the plan
  /// so the same Query object can be submitted concurrently.
  std::future<Result> Submit(const Query& query);
  /// Async raw-plan variant; transfers ownership of `plan` (do not
  /// submit one unbound plan object twice).
  std::future<Result> Submit(PlanPtr plan);

  /// Compiles a (possibly parameterized) query into a prepared statement
  /// owned by the caller. Returns nullptr on invalid templates, with the
  /// reason in `*status` (when non-null). The statement must not outlive
  /// this session.
  std::unique_ptr<PreparedStatement> Prepare(const Query& query,
                                             Status* status = nullptr);

  /// Compiles SQL text with `:name` placeholders into a prepared
  /// statement (each `:p` becomes a template parameter bound later with
  /// Bind("p", ...)). The template is canonicalized before its
  /// fingerprint is taken, so syntactic variants of one query — and the
  /// equivalent builder form — share one TemplateStats entry. Returns
  /// nullptr on lex/parse/lowering errors with the caret-snippet reason
  /// in `*status` (when non-null).
  std::unique_ptr<PreparedStatement> Prepare(std::string_view sql,
                                             Status* status = nullptr);

  /// Pre- vs post-canonicalization view of a query: the plan as built
  /// with its fingerprint hash, and (when canonicalization is enabled)
  /// the canonical form the engine actually fingerprints and executes.
  std::string Explain(const Query& query) const;

  // ---- observability ---------------------------------------------------
  /// Attaches a trace recorder (nullptr detaches). Every successful
  /// synchronous SQL-originated statement — Sql() calls and prepared-
  /// statement Execute() rounds — is recorded with its text, bindings,
  /// reuse decision and result digest. Builder-built queries and async
  /// Submit() executions are not recorded (they have no replayable SQL
  /// origin). The recorder must outlive its attachment.
  void set_recorder(trace::TraceRecorder* recorder);

  /// Snapshot of this session's aggregate statistics.
  SessionStats stats() const;
  /// Most recent traces, oldest first (empty if max_traces is 0).
  std::vector<QueryTrace> traces() const;
  /// The options this session was opened with.
  const SessionOptions& options() const { return options_; }
  /// The owning Database.
  Database* database() const { return db_; }

 private:
  friend class Database;
  friend class PreparedStatement;

  Session(Database* db, SessionOptions options);

  /// The SQL origin of a statement (text + bindings), for the attached
  /// recorder.
  struct StatementOrigin {
    std::string sql;
    ParamMap params;
  };

  /// Shared Prepare tail: canonicalize + prebind an owned template.
  /// `source_sql` is the template's SQL text (empty for builder
  /// templates), kept so recorded executions are replayable.
  std::unique_ptr<PreparedStatement> PrepareTemplate(
      PlanPtr tmpl, Status* status, std::string source_sql = std::string());
  /// The statement pipeline (see "execution" above) plus Record: every
  /// execution entry point but a text hit ends here. `origin` is the
  /// statement's SQL origin, null for builder plans and async
  /// submissions; `text_key` the Recycler::TextKey of a Sql() statement
  /// whose text probe missed, else empty.
  Result RunStatement(const PlanPtr& plan,
                      const StatementOrigin* origin = nullptr,
                      std::string text_key = std::string());
  /// The statement pipeline itself: probe, then on a miss validate,
  /// canonicalize, probe again under the canonical key (a non-canonical
  /// spelling only), Prepare and run. A hit or a hot root registers
  /// `text_key`.
  Result RunPipeline(PlanPtr plan, std::string text_key);
  /// Wraps `fn` with in-flight accounting and hands it to the database
  /// pool (used by Submit and PreparedStatement::Submit).
  std::future<Result> SubmitInternal(std::function<Result()> fn);
  /// Adds `result` to the session stats and trace ring, and hands a
  /// successful statement with an `origin` to the attached recorder.
  void Record(const Result& result, const StatementOrigin* origin = nullptr);

  Database* db_;
  SessionOptions options_;
  /// Guards stats_/traces_/inflight_/recorder_: Submit() fulfills
  /// results on database worker threads while the client thread reads
  /// stats.
  mutable std::mutex mu_;
  std::condition_variable inflight_cv_;
  int inflight_ = 0;
  SessionStats stats_;
  /// Fixed-capacity trace ring: traces_[trace_head_] is the oldest entry
  /// once the ring has wrapped.
  std::vector<QueryTrace> traces_;
  size_t trace_head_ = 0;
  /// Attached workload recorder (nullptr = off); guarded by mu_.
  trace::TraceRecorder* recorder_ = nullptr;
};

}  // namespace recycledb
