// Database: the embeddable engine facade.
//
// Owns the Catalog, the Recycler (the paper's contribution) and a worker
// pool for asynchronous submissions. Thread-safe: concurrent sessions
// share one Database. See DESIGN.md "Public API & session model".
//
//   DatabaseOptions options;
//   options.recycler.mode = RecyclerMode::kSpeculation;
//   std::unique_ptr<Database> db;
//   Status st = Database::Open(options, &db);
#pragma once

#include <functional>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/query.h"
#include "api/result.h"
#include "api/session.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "recycler/recycler.h"

namespace recycledb {

/// Engine-wide configuration.
struct DatabaseOptions {
  /// Recycler tunables (validated by Database::Open).
  RecyclerConfig recycler;
  /// Worker threads serving async submissions: how many Submit()ed
  /// statements run at once. A deployment setting, sized to the host's
  /// cores.
  int async_threads = 2;
  /// Run every session-executed plan (and every prepared-statement
  /// template) through the canonicalizing rewrite pass, so syntactically
  /// different but semantically equal queries share fingerprints — and
  /// therefore recycler cache entries. Off: plans execute exactly as
  /// built (ablation / A-B comparisons).
  bool canonicalize_plans = true;
};

/// Validates recycler tunables, returning InvalidArgument for nonsense
/// (non-positive stall timeout, sub-4KB positive cache budgets, aging
/// alpha outside (0, 1], non-positive cold_tier_capacity_bytes with a
/// spill_dir set, ...). cache_bytes == 0 (cache disabled) and
/// cache_bytes < 0 (unlimited) are both valid. Whether spill_dir itself
/// is usable is an I/O question and is probed by Database::Open, not
/// here.
Status ValidateRecyclerConfig(const RecyclerConfig& config);

/// The embeddable engine facade: owns the catalog, the recycler and the
/// async worker pool. Thread-safe; one Database is shared by all of its
/// Sessions.
class Database {
 public:
  /// Validates `options` and constructs the engine. On failure `*out` is
  /// untouched and the status says which option is invalid (including an
  /// unusable `recycler.spill_dir`, which the cold tier probes as it
  /// opens). With a spill_dir set, Open scans the directory and adopts
  /// spill files left by a previous process, so the recycler warms up
  /// from disk instead of starting cold.
  static Status Open(DatabaseOptions options, std::unique_ptr<Database>* out);

  /// Convenience for tools and benches: aborts on invalid options.
  static std::unique_ptr<Database> OpenOrDie(DatabaseOptions options = {});

  /// Drains the async pool, then tears down the engine. Sessions must
  /// already be gone.
  ~Database();

  // ---- schema ----------------------------------------------------------
  /// Registers `table` under `name`; AlreadyExists if the name is taken.
  Status CreateTable(const std::string& name, TablePtr table);
  /// Replaces a table and invalidates every cached result depending on it
  /// (the paper's update-commit semantics).
  Status ReplaceTable(const std::string& name, TablePtr table);
  /// Appends `delta`'s rows to table `name` (copy-on-append: readers and
  /// in-flight queries keep their immutable as-of snapshot). Cached
  /// results over the table are NOT discarded wholesale: entries delta
  /// maintenance can refresh — single-table select/project chains and
  /// decomposable aggregates, stamped with the row mark they were
  /// computed at — are kept and served as cached-prefix + delta-window
  /// rewrites on their next hit; everything else is invalidated. Schema
  /// of `delta` must match the registered table.
  Status AppendTable(const std::string& name, const Table& delta);
  /// The catalog, for workload generators that populate tables directly
  /// (tpch::Generate, skyserver::Setup).
  Catalog& catalog() { return catalog_; }

  // ---- sessions & queries ---------------------------------------------
  /// Opens a client session. Sessions must not outlive the Database.
  std::unique_ptr<Session> Connect(SessionOptions options = {});

  /// Query-builder root: base-table scan (see Query::Scan).
  Query Scan(std::string table, std::vector<std::string> columns) {
    return Query::Scan(std::move(table), std::move(columns));
  }
  /// Query-builder root: table-function scan (see Query::FunctionScan).
  Query FunctionScan(std::string function, std::vector<ExprPtr> args) {
    return Query::FunctionScan(std::move(function), std::move(args));
  }

  /// One-call SQL text execution on the built-in default session (see
  /// Session::Sql for error semantics).
  Result Sql(std::string_view sql) { return default_session_->Sql(sql); }

  /// One-shot execution on the built-in default session.
  Result Execute(const Query& query) { return default_session_->Execute(query); }
  /// One-shot raw-plan execution on the default session (generators).
  Result Execute(PlanPtr plan) {
    return default_session_->Execute(std::move(plan));
  }
  /// Default-session prepared statement (single-client embedders).
  std::unique_ptr<PreparedStatement> Prepare(const Query& query,
                                             Status* status = nullptr) {
    return default_session_->Prepare(query, status);
  }
  /// Default-session prepared statement from SQL text with `:name`
  /// placeholders (see Session::Prepare(std::string_view, Status*)).
  std::unique_ptr<PreparedStatement> Prepare(std::string_view sql,
                                             Status* status = nullptr) {
    return default_session_->Prepare(sql, status);
  }

  // ---- cache control ---------------------------------------------------
  /// Evicts every cached result depending on `table` (update commit).
  void InvalidateTable(const std::string& table);
  /// Evicts everything from the recycler cache (simulated refresh).
  void FlushCache();
  /// Removes recycler-graph subtrees idle for `idle_epochs` invocations;
  /// returns the number of nodes removed (see Recycler::TruncateGraph).
  int64_t TruncateGraph(int64_t idle_epochs);

  // ---- fleet tier ------------------------------------------------------
  /// One fleet refresh round over a shared spill directory: discovers
  /// peers' new spills as adoptable entries, applies fleet-wide purge
  /// records, performs stale-lease takeover and renews this instance's
  /// lease (see Recycler::RefreshFleet). `new_peer_entries` (optional)
  /// receives the number of newly discovered peer entries. No-op OK
  /// without a spill_dir. A standby keeps itself warm by calling this
  /// periodically — fleet::StandbyTailer wraps exactly that loop.
  Status RefreshFleet(int64_t* new_peer_entries = nullptr);

  // ---- observability ---------------------------------------------------
  /// Snapshot of recycler-graph size and cache footprint.
  GraphStats graph_stats() { return recycler_.graph().Stats(); }
  /// Global recycler counters (atomic; read at any time). The twin of
  /// each per-query counter (recycler/counters.h) moves with the traces.
  const RecyclerCounters& counters() const { return recycler_.counters(); }
  /// The validated recycler configuration in effect.
  const RecyclerConfig& config() const { return recycler_.config(); }
  /// The options this Database was opened with.
  const DatabaseOptions& options() const { return options_; }
  /// Per-template reuse aggregate for `template_hash`: executions, time
  /// and the sum of every per-query count (zeroes if unseen).
  TemplateStats StatsForTemplate(uint64_t template_hash) const {
    return recycler_.TemplateStatsFor(template_hash);
  }

  /// White-box escape hatch for ablation benches and internal tests; the
  /// facade is the supported surface.
  Recycler& recycler() { return recycler_; }

 private:
  friend class Session;

  explicit Database(DatabaseOptions options);

  /// Runs `fn` on a worker thread of the async pool. `*accepted`
  /// (optional) reports whether the pool took the task; on rejection
  /// (shutdown) the future is fulfilled with an error and `fn` is never
  /// invoked.
  std::future<Result> SubmitTask(std::function<Result()> fn,
                                 bool* accepted = nullptr);

  /// Executor for sessions that bypass the recycler.
  Executor& raw_executor() { return raw_executor_; }

  DatabaseOptions options_;
  Catalog catalog_;
  Recycler recycler_;
  Executor raw_executor_;
  std::unique_ptr<Session> default_session_;
  /// Declared last: destroyed first, draining in-flight submissions while
  /// the engine state above is still alive.
  ThreadPool pool_;
};

}  // namespace recycledb
