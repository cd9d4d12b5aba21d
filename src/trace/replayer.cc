#include "trace/replayer.h"

#include <map>
#include <memory>
#include <utility>

#include "api/database.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace recycledb {
namespace trace {

namespace {

/// Collects the trace's statement events (replay order) and validates
/// that each one is replayable.
Status CollectStatements(const Trace& trace,
                         std::vector<const StatementEvent*>* out) {
  for (const TraceEvent& e : trace.events) {
    if (e.kind != TraceEvent::Kind::kStatement) continue;
    if (e.statement.sql.empty()) {
      return Status::InvalidArgument(
          "trace contains a plan-built statement without SQL text; only "
          "SQL-recorded traces are replayable");
    }
    out->push_back(&e.statement);
  }
  return Status::OK();
}

void AddDivergence(ReplayReport* report, ReplayDivergence d) {
  if (report->divergences.size() < ReplayReport::kMaxDivergences) {
    report->divergences.push_back(std::move(d));
  }
}

/// Diffs one replayed execution against its recorded statement,
/// updating the report's counters. Returns true when the replayed
/// execution consumed a cached result (for the replayed hit rate).
bool CompareExecution(const StatementEvent& recorded, int64_t index,
                      int stream, const QueryTrace& replayed_trace,
                      int64_t replayed_rows, uint64_t replayed_digest,
                      bool compare_plan, ReplayReport* report) {
  if (replayed_rows != recorded.rows) {
    ++report->digest_mismatches;
    AddDivergence(report,
                  {index, stream, "rows", std::to_string(recorded.rows),
                   std::to_string(replayed_rows), recorded.sql});
  } else if (replayed_digest != recorded.digest) {
    ++report->digest_mismatches;
    AddDivergence(report,
                  {index, stream, "digest", std::to_string(recorded.digest),
                   std::to_string(replayed_digest), recorded.sql});
  }
  if (replayed_trace.reuse_mode != recorded.reuse_mode) {
    ++report->mode_mismatches;
    AddDivergence(report, {index, stream, "reuse_mode",
                           ReuseModeName(recorded.reuse_mode),
                           ReuseModeName(replayed_trace.reuse_mode),
                           recorded.sql});
  }
  if (compare_plan && !recorded.plan_explain.empty() &&
      !replayed_trace.plan_explain.empty() &&
      replayed_trace.plan_explain != recorded.plan_explain) {
    ++report->plan_mismatches;
    AddDivergence(report, {index, stream, "plan", recorded.plan_explain,
                           replayed_trace.plan_explain, recorded.sql});
  }
  return replayed_trace.reuse_mode != ReuseMode::kNone;
}

/// One replay stream: a session plus its templates, prepared once per
/// distinct text, as a recording client would have done.
struct ReplayStream {
  ReplayStream(Database* db, int stream) : stream(stream) {
    SessionOptions sopts;
    sopts.name = "trace-replay-" + std::to_string(stream);
    sopts.max_traces = 0;
    session = db->Connect(sopts);
  }

  int stream;
  std::unique_ptr<Session> session;
  std::map<std::string, std::unique_ptr<PreparedStatement>> prepared;
};

/// The per-statement replay step: runs the recorded statement `s` on the
/// stream's session (through its prepared statement when the recording
/// bound parameters) and diffs the execution against the recording into
/// `report`, counting a replayed cache hit in `*hits`. A template that no
/// longer prepares makes the trace non-replayable (the returned Status);
/// a failed execution is a divergence.
Status ReplayStatement(const StatementEvent& s, int64_t index,
                       bool compare_plan, ReplayStream* replay,
                       ReplayReport* report, int64_t* hits) {
  Result result;
  if (s.params.empty()) {
    result = replay->session->Sql(s.sql);
  } else {
    auto it = replay->prepared.find(s.sql);
    if (it == replay->prepared.end()) {
      Status prep_status;
      std::unique_ptr<PreparedStatement> stmt =
          replay->session->Prepare(std::string_view(s.sql), &prep_status);
      if (stmt == nullptr) return prep_status;
      it = replay->prepared.emplace(s.sql, std::move(stmt)).first;
    }
    it->second->ClearBindings();
    result = it->second->Execute(s.params);
  }
  ++report->statements;
  if (!result.ok()) {
    ++report->errors;
    AddDivergence(report, {index, replay->stream, "error", "ok",
                           result.status().ToString(), s.sql});
  } else if (CompareExecution(s, index, replay->stream, result.trace(),
                              result.num_rows(),
                              result.table() == nullptr
                                  ? 0
                                  : ResultDigest(*result.table()),
                              compare_plan, report)) {
    ++*hits;
  }
  return Status::OK();
}

}  // namespace

TraceReplayer::TraceReplayer(Database* db, ReplayOptions options)
    : db_(db), options_(std::move(options)) {}

Status TraceReplayer::Replay(const Trace& trace, ReplayReport* report) {
  *report = ReplayReport{};
  std::vector<const StatementEvent*> statements;
  RDB_RETURN_NOT_OK(CollectStatements(trace, &statements));
  const int64_t num_appends = trace.NumAppends();
  if (num_appends > 0 && options_.concurrency > 1) {
    return Status::InvalidArgument(
        "traces with append events replay single-stream only (concurrent "
        "streams would interleave appends nondeterministically)");
  }
  if (num_appends > 0 && options_.append_provider == nullptr) {
    return Status::InvalidArgument(
        "trace has append events but ReplayOptions::append_provider is "
        "not set");
  }
  int64_t hits = 0;
  Status st = options_.concurrency > 1
                  ? ReplayConcurrent(statements, report, &hits)
                  : ReplaySingle(trace, report, &hits);
  Finish(trace, hits, report);
  return st;
}

bool TraceReplayer::ComparePlans() const {
  return options_.check_plan_shape && db_->config().capture_plan_explain;
}

Status TraceReplayer::ReplaySingle(const Trace& trace, ReplayReport* report,
                                   int64_t* hits) {
  ReplayStream replay(db_, 0);
  int64_t index = 0;
  for (const TraceEvent& e : trace.events) {
    if (e.kind == TraceEvent::Kind::kStatement) {
      RDB_RETURN_NOT_OK(ReplayStatement(e.statement, index++, ComparePlans(),
                                        &replay, report, hits));
      continue;
    }
    const AppendEvent& a = e.append;
    TablePtr current = db_->catalog().GetTable(a.table);
    if (current == nullptr) {
      return Status::NotFound("replay append: unknown table " + a.table);
    }
    if (current->num_rows() != a.start_row) {
      return Status::InvalidArgument(StrFormat(
          "replay append drift: table %s has %lld rows, trace recorded "
          "the append at %lld — the data generator no longer matches "
          "the recording",
          a.table.c_str(), static_cast<long long>(current->num_rows()),
          static_cast<long long>(a.start_row)));
    }
    TablePtr batch = options_.append_provider == nullptr
                         ? nullptr
                         : options_.append_provider(a);
    if (batch == nullptr) {
      return Status::InvalidArgument(
          "replay append: provider returned no batch for table " + a.table);
    }
    if (batch->num_rows() != a.rows) {
      return Status::InvalidArgument(StrFormat(
          "replay append drift: provider built %lld rows for table %s, "
          "trace recorded %lld",
          static_cast<long long>(batch->num_rows()), a.table.c_str(),
          static_cast<long long>(a.rows)));
    }
    RDB_RETURN_NOT_OK(db_->AppendTable(a.table, *batch));
    ++report->appends;
  }
  return Status::OK();
}

Status TraceReplayer::ReplayConcurrent(
    const std::vector<const StatementEvent*>& statements,
    ReplayReport* report, int64_t* hits) {
  // Each stream replays the whole statement sequence on its own session
  // and thread, into its own report; the reports merge in stream order.
  const int n = options_.concurrency;
  std::vector<ReplayReport> reports(n);
  std::vector<int64_t> stream_hits(n, 0);
  std::vector<Status> statuses(n);
  {
    ThreadPool pool(n);
    for (int c = 0; c < n; ++c) {
      pool.Submit([&, c] {
        ReplayStream replay(db_, c);
        for (size_t q = 0; q < statements.size() && statuses[c].ok(); ++q) {
          statuses[c] = ReplayStatement(*statements[q],
                                        static_cast<int64_t>(q),
                                        ComparePlans(), &replay, &reports[c],
                                        &stream_hits[c]);
        }
      });
    }
    pool.WaitIdle();
  }
  for (int c = 0; c < n; ++c) {
    const ReplayReport& r = reports[c];
    report->statements += r.statements;
    report->errors += r.errors;
    report->digest_mismatches += r.digest_mismatches;
    report->mode_mismatches += r.mode_mismatches;
    report->plan_mismatches += r.plan_mismatches;
    for (const ReplayDivergence& d : r.divergences) AddDivergence(report, d);
    *hits += stream_hits[c];
  }
  for (const Status& st : statuses) RDB_RETURN_NOT_OK(st);
  return Status::OK();
}

void TraceReplayer::Finish(const Trace& trace, int64_t hits,
                           ReplayReport* report) const {
  report->recorded_hit_rate = 100.0 * trace.HitRate();
  report->replayed_hit_rate =
      report->statements == 0
          ? 0
          : 100.0 * static_cast<double>(hits) /
                static_cast<double>(report->statements);
  const bool results_ok =
      report->errors == 0 && report->digest_mismatches == 0;
  const bool modes_ok =
      options_.strict_modes
          ? report->mode_mismatches == 0 && report->plan_mismatches == 0
          : report->replayed_hit_rate + options_.hit_rate_tolerance_pts >=
                report->recorded_hit_rate;
  report->ok_ = results_ok && modes_ok;
}

std::string ReplayReport::ToString() const {
  std::string out = StrFormat(
      "replay %s: statements=%lld appends=%lld errors=%lld "
      "digest_mismatches=%lld mode_mismatches=%lld plan_mismatches=%lld "
      "recorded_hit_rate=%.1f%% replayed_hit_rate=%.1f%%\n",
      ok_ ? "OK" : "DIVERGED", static_cast<long long>(statements),
      static_cast<long long>(appends), static_cast<long long>(errors),
      static_cast<long long>(digest_mismatches),
      static_cast<long long>(mode_mismatches),
      static_cast<long long>(plan_mismatches), recorded_hit_rate,
      replayed_hit_rate);
  for (const ReplayDivergence& d : divergences) {
    out += StrFormat("  [%lld] stream=%d %s: recorded=%s replayed=%s\n",
                     static_cast<long long>(d.index), d.stream,
                     d.field.c_str(), d.recorded.c_str(),
                     d.replayed.c_str());
    out += "    " + d.sql + "\n";
  }
  return out;
}

}  // namespace trace
}  // namespace recycledb
