#include "trace/replayer.h"

#include <map>
#include <memory>
#include <utility>

#include "api/database.h"
#include "api/validate.h"
#include "common/string_util.h"
#include "plan/canonicalize.h"
#include "sql/lower.h"
#include "workload/driver.h"

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

}  // namespace

TraceReplayer::TraceReplayer(Database* db, ReplayOptions options)
    : db_(db), options_(std::move(options)) {}

Status TraceReplayer::Replay(const Trace& trace, ReplayReport* report) {
  *report = ReplayReport{};
  replayed_hits_ = 0;
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
  Status st = options_.concurrency > 1 ? ReplayConcurrent(trace, report)
                                       : ReplaySingle(trace, report);
  Finish(trace, report);
  return st;
}

Status TraceReplayer::ReplaySingle(const Trace& trace, ReplayReport* report) {
  SessionOptions sopts;
  sopts.name = "trace-replay";
  sopts.collect_traces = false;
  std::unique_ptr<Session> session = db_->Connect(sopts);
  const bool compare_plan =
      options_.check_plan_shape && db_->config().capture_plan_explain;
  // Templates are prepared once per distinct text, as a recording client
  // would have done.
  std::map<std::string, std::unique_ptr<PreparedStatement>> prepared;

  int64_t index = 0;
  for (const TraceEvent& e : trace.events) {
    if (e.kind == TraceEvent::Kind::kAppend) {
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
      TablePtr batch =
          options_.append_provider == nullptr ? nullptr
                                              : options_.append_provider(a);
      if (batch == nullptr) {
        return Status::InvalidArgument(
            "replay append: provider returned no batch for table " +
            a.table);
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
      continue;
    }

    const StatementEvent& s = e.statement;
    Result result;
    if (s.params.empty()) {
      result = session->Sql(s.sql);
    } else {
      auto it = prepared.find(s.sql);
      if (it == prepared.end()) {
        Status prep_status;
        std::unique_ptr<PreparedStatement> stmt =
            session->Prepare(std::string_view(s.sql), &prep_status);
        if (stmt == nullptr) return prep_status;
        it = prepared.emplace(s.sql, std::move(stmt)).first;
      }
      it->second->ClearBindings();
      result = it->second->Execute(s.params);
    }
    ++report->statements;
    if (!result.ok()) {
      ++report->errors;
      AddDivergence(report, {index, 0, "error", "ok",
                             result.status().ToString(), s.sql});
    } else if (CompareExecution(s, index, 0, result.trace(),
                                result.num_rows(),
                                result.table() == nullptr
                                    ? 0
                                    : ResultDigest(*result.table()),
                                compare_plan, report)) {
      ++replayed_hits_;
    }
    ++index;
  }
  return Status::OK();
}

Status TraceReplayer::ReplayConcurrent(const Trace& trace,
                                       ReplayReport* report) {
  std::vector<const StatementEvent*> statements;
  RDB_RETURN_NOT_OK(CollectStatements(trace, &statements));
  const bool compare_plan =
      options_.check_plan_shape && db_->config().capture_plan_explain;

  // Every stream gets its own plan instances: Bind mutates plan nodes,
  // so concurrent streams must not share trees.
  std::vector<workload::StreamSpec> streams;
  streams.reserve(options_.concurrency);
  for (int c = 0; c < options_.concurrency; ++c) {
    workload::StreamSpec spec;
    for (size_t q = 0; q < statements.size(); ++q) {
      PlanPtr plan;
      RDB_RETURN_NOT_OK(BuildStatementPlan(*statements[q], &plan));
      spec.labels.push_back(StrFormat("q%zu", q));
      spec.plans.push_back(std::move(plan));
    }
    streams.push_back(std::move(spec));
  }

  workload::DriverOptions dopts;
  dopts.max_concurrent = options_.concurrency;
  dopts.threads = options_.concurrency;
  dopts.compute_digests = true;
  workload::WorkloadDriver driver(&db_->recycler(), dopts);
  workload::RunReport run = driver.Run(std::move(streams));

  for (const workload::QueryRecord& rec : run.records) {
    const StatementEvent& s = *statements[rec.index];
    ++report->statements;
    if (CompareExecution(s, rec.index, rec.stream, rec.trace,
                         rec.result_rows, rec.digest, compare_plan,
                         report)) {
      ++replayed_hits_;
    }
  }
  return Status::OK();
}

Status TraceReplayer::BuildStatementPlan(const StatementEvent& s,
                                         PlanPtr* out) {
  PlanPtr tmpl;
  RDB_RETURN_NOT_OK(sql::SqlToPlan(s.sql, db_->catalog(), &tmpl));
  PlanPtr plan = tmpl;
  if (tmpl->HasParams() || !s.params.empty()) {
    // Reproduce the prepared-statement pipeline: canonicalize the
    // template, tag its hash, substitute the recorded bindings.
    if (db_->options().canonicalize_plans) tmpl = CanonicalizePlan(tmpl);
    tmpl->set_template_hash(TemplateHash(tmpl->TemplateFingerprint()));
    std::vector<std::string> missing;
    plan = tmpl->SubstituteParams(s.params, &missing);
    if (!missing.empty()) {
      return Status::InvalidArgument(
          "trace statement is missing bindings for its own template: " +
          s.sql);
    }
  }
  RDB_RETURN_NOT_OK(ValidatePlan(plan, db_->catalog(), nullptr));
  // The driver path bypasses Session, so apply the canonicalizing pass
  // here.
  if (db_->options().canonicalize_plans) {
    plan = CanonicalizeKeepingTemplate(plan);
  }
  *out = std::move(plan);
  return Status::OK();
}

void TraceReplayer::Finish(const Trace& trace, ReplayReport* report) const {
  report->recorded_hit_rate = 100.0 * trace.HitRate();
  report->replayed_hit_rate =
      report->statements == 0
          ? 0
          : 100.0 * static_cast<double>(replayed_hits_) /
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
