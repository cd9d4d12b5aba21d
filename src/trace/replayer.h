// TraceReplayer: re-executes a recorded trace against a fresh Database
// and diffs reuse decisions and result digests.
//
// Single-stream replay (concurrency == 1) walks the trace in recorded
// order through one Session, re-injecting recorded append batches (via
// the caller's append provider) at their recorded positions; because the
// replay reproduces the exact execution history, result digests AND
// reuse modes must match the recording bit for bit, and the report
// treats any divergence as a failure.
//
// Concurrent replay (concurrency == N > 1) runs N copies of the
// statement sequence on N threads, each through its own Session over the
// one shared engine, with the per-statement step single-stream replay
// uses. Digests stay strict — recycling must never change results —
// but per-execution reuse modes are inherently schedule-dependent (a
// statement another stream already warmed upgrades from the recorded
// miss to a hit), so mode agreement is reported per execution while
// ok() gates only the aggregate hit rate (within hit_rate_tolerance_pts
// of the recording). Traces containing appends replay single-stream
// only.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "trace/trace_format.h"

namespace recycledb {

class Database;

namespace trace {

/// Rebuilds one recorded append batch. Replay calls it with each
/// AppendEvent in order and appends the returned table; returning
/// nullptr fails the replay with a Status (not an abort).
using AppendProvider = std::function<TablePtr(const AppendEvent&)>;

/// Replay configuration.
struct ReplayOptions {
  /// Concurrent copies of the statement sequence (1 = faithful replay).
  int concurrency = 1;
  /// Gate per-execution reuse-mode agreement in ok(). Meaningful at
  /// concurrency == 1; concurrent replays gate hit rate instead.
  bool strict_modes = true;
  /// Aggregate gate for non-strict runs: the replayed hit rate may not
  /// fall more than this many percentage points below the recorded one.
  double hit_rate_tolerance_pts = 2.0;
  /// Rebuilds recorded append batches (required iff the trace has any).
  AppendProvider append_provider;
  /// Also diff the post-rewrite plan shape for statements that recorded
  /// one (requires the replaying engine to run with
  /// RecyclerConfig::capture_plan_explain; otherwise skipped).
  bool check_plan_shape = true;
};

/// One recorded-vs-replayed disagreement.
struct ReplayDivergence {
  /// Index of the statement among the trace's statement events.
  int64_t index = 0;
  /// Replay stream that observed it (0-based; always 0 single-stream).
  int stream = 0;
  /// What diverged: "error", "rows", "digest", "reuse_mode", "plan".
  std::string field;
  std::string recorded;
  std::string replayed;
  /// The statement text, for readable reports.
  std::string sql;
};

/// Structured outcome of a replay.
struct ReplayReport {
  int64_t statements = 0;  ///< statement executions performed
  int64_t appends = 0;     ///< append events re-injected
  int64_t errors = 0;      ///< executions that failed outright
  int64_t digest_mismatches = 0;  ///< rows/digest disagreements
  int64_t mode_mismatches = 0;    ///< reuse-mode disagreements
  int64_t plan_mismatches = 0;    ///< post-rewrite plan-shape disagreements
  /// Share of recorded statements with a reuse mode other than "none".
  double recorded_hit_rate = 0;
  /// Same share over the replayed executions.
  double replayed_hit_rate = 0;
  /// First divergences, capped at kMaxDivergences (counters above are
  /// complete).
  std::vector<ReplayDivergence> divergences;
  static constexpr size_t kMaxDivergences = 32;

  /// True when the replay reproduced the recording under the options it
  /// ran with: no errors, no result divergence, and — strict — no mode
  /// or plan divergence, or — non-strict — a hit rate within tolerance.
  bool ok() const { return ok_; }
  /// Human-readable summary plus the first divergences.
  std::string ToString() const;

  bool ok_ = false;  ///< set by TraceReplayer::Replay
};

/// Re-executes recorded traces against a Database (see file comment for
/// the single-stream vs concurrent contracts).
class TraceReplayer {
 public:
  /// Replays against `db`, which must already hold the base tables the
  /// trace's statements read (same data as the recording, or digests
  /// will diverge — that is the point). Does not own `db`.
  explicit TraceReplayer(Database* db, ReplayOptions options = {});

  /// Replays `trace`, filling `*report` (always, even on error, with
  /// whatever was diffed before the failure). Returns non-OK for
  /// non-replayable traces (plan-built statements, appends without a
  /// provider or under concurrency, provider failures, append row-count
  /// drift) — divergences are NOT errors; they land in the report.
  Status Replay(const Trace& trace, ReplayReport* report);

 private:
  // Both replay modes add the executions that consumed a cached result
  // to `*hits` (for the replayed hit rate).
  Status ReplaySingle(const Trace& trace, ReplayReport* report,
                      int64_t* hits);
  Status ReplayConcurrent(const std::vector<const StatementEvent*>& statements,
                          ReplayReport* report, int64_t* hits);
  /// Whether replayed plan shapes are diffed (see check_plan_shape).
  bool ComparePlans() const;
  void Finish(const Trace& trace, int64_t hits, ReplayReport* report) const;

  Database* db_;
  ReplayOptions options_;
};

}  // namespace trace
}  // namespace recycledb
