#include "api/session.h"

#include <functional>

#include "api/database.h"
#include "api/validate.h"
#include "common/hash.h"
#include "common/string_util.h"
#include "plan/canonicalize.h"
#include "recycler/recycler.h"
#include "sql/lower.h"
#include "trace/recorder.h"

namespace recycledb {

Session::Session(Database* db, SessionOptions options)
    : db_(db), options_(std::move(options)) {}

Session::~Session() {
  // Workers hold a raw pointer to this session; wait out every async
  // submission before the stats/mutex are destroyed.
  std::unique_lock<std::mutex> lock(mu_);
  inflight_cv_.wait(lock, [this] { return inflight_ == 0; });
}

namespace {

/// Runs a prepared statement and wraps its result and trace.
Result RunPrepared(Recycler& recycler, PreparedQuery* prepared) {
  QueryTrace trace;
  ExecResult exec = recycler.Execute(prepared, &trace);
  return Result::Of(std::move(exec), std::move(trace));
}

}  // namespace

Result Session::Sql(std::string_view sql) {
  const StatementOrigin origin{std::string(sql), ParamMap{}};
  // A repeated text is served from the exact-hit index before it is
  // lexed; on a miss its key rides along, for the plan probe or the full
  // path to register.
  std::string text_key;
  if (!options_.bypass_recycler) {
    Recycler& recycler = db_->recycler();
    std::unique_ptr<PreparedQuery> hit = recycler.ProbeSqlText(sql, &text_key);
    if (hit != nullptr) {
      Result r = RunPrepared(recycler, hit.get());
      Record(r, &origin);
      return r;
    }
  }
  PlanPtr plan;
  Status st = sql::SqlToPlan(sql, db_->catalog(), &plan);
  if (!st.ok()) {
    Result r = Result::Error(std::move(st));
    Record(r);
    return r;
  }
  if (plan->HasParams()) {
    Result r = Result::Error(Status::InvalidArgument(
        "statement has :parameter placeholders; compile it with "
        "Prepare(sql) and Bind() values:\n" +
        plan->Explain()));
    Record(r);
    return r;
  }
  return RunStatement(plan, &origin, std::move(text_key));
}

Result Session::Execute(const Query& query) {
  if (query.plan() == nullptr) {
    Result r = Result::Error(Status::InvalidArgument("empty query"));
    Record(r);
    return r;
  }
  if (query.HasParams()) {
    Result r = Result::Error(Status::InvalidArgument(
        "query has unbound parameters; prepare it and Bind() values:\n" +
        query.Explain()));
    Record(r);
    return r;
  }
  return RunStatement(query.plan());
}

Result Session::Execute(PlanPtr plan) { return RunStatement(plan); }

std::future<Result> Session::Submit(const Query& query) {
  if (query.plan() == nullptr || query.HasParams()) {
    // Route through Execute for its error handling.
    Query q = query;
    return SubmitInternal([this, q] { return Execute(q); });
  }
  // Deep-clone: concurrent submissions of one Query must not race on
  // Bind's schema writes in the shared plan nodes.
  PlanPtr plan = query.plan()->CloneDeep();
  return SubmitInternal([this, plan = std::move(plan)] {
    return RunStatement(plan);
  });
}

std::future<Result> Session::Submit(PlanPtr plan) {
  return SubmitInternal(
      [this, plan = std::move(plan)] { return RunStatement(plan); });
}

std::future<Result> Session::SubmitInternal(std::function<Result()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++inflight_;
  }
  bool accepted = false;
  std::future<Result> future = db_->SubmitTask(
      [this, fn = std::move(fn)] {
        Result r = fn();
        {
          // Notify under the lock: ~Session may destroy the condvar the
          // moment inflight_ reaches 0 and the mutex is released.
          std::lock_guard<std::mutex> lock(mu_);
          --inflight_;
          inflight_cv_.notify_all();
        }
        return r;
      },
      &accepted);
  if (!accepted) {
    std::lock_guard<std::mutex> lock(mu_);
    --inflight_;
  }
  return future;
}

std::unique_ptr<PreparedStatement> Session::Prepare(const Query& query,
                                                    Status* status) {
  if (query.plan() == nullptr) {
    if (status != nullptr) *status = Status::InvalidArgument("empty query");
    return nullptr;
  }
  // The statement owns a private copy of the template: Prepare must not
  // mutate the caller's (possibly thread-shared) Query plan when it
  // pre-binds subtrees below.
  return PrepareTemplate(query.plan()->CloneDeep(), status);
}

std::unique_ptr<PreparedStatement> Session::Prepare(std::string_view sql,
                                                    Status* status) {
  PlanPtr tmpl;
  Status st = sql::SqlToPlan(sql, db_->catalog(), &tmpl);
  if (!st.ok()) {
    if (status != nullptr) *status = std::move(st);
    return nullptr;
  }
  return PrepareTemplate(std::move(tmpl), status, std::string(sql));
}

std::unique_ptr<PreparedStatement> Session::PrepareTemplate(
    PlanPtr tmpl, Status* status, std::string source_sql) {
  auto fail = [status](Status st) -> std::unique_ptr<PreparedStatement> {
    if (status != nullptr) *status = std::move(st);
    return nullptr;
  };
  // Canonicalize the template itself (parameters stay in place), so every
  // syntactic variant of a template — SQL or builder — fingerprints to the
  // same TemplateStats entry, and substituted instances start closer to
  // their canonical form. The original is kept for Explain's
  // pre-canonicalization view.
  PlanPtr pre_canonical;
  if (db_->options().canonicalize_plans) {
    PlanPtr canon = CanonicalizePlan(tmpl);
    if (canon != tmpl) {
      pre_canonical = std::move(tmpl);
      tmpl = std::move(canon);
    }
  }
  // Pre-validate and pre-bind every parameter-free subtree now, so each
  // Bind/Execute round only validates and clones the parameterized spine
  // (and structural template errors surface at Prepare, not first use).
  std::function<Status(const PlanPtr&)> prebind =
      [&](const PlanPtr& node) -> Status {
    if (!node->HasParams()) {
      RDB_RETURN_NOT_OK(ValidatePlan(node, db_->catalog(), nullptr));
      node->Bind(db_->catalog());
      return Status::OK();
    }
    for (const auto& c : node->children()) RDB_RETURN_NOT_OK(prebind(c));
    return Status::OK();
  };
  Status st = prebind(tmpl);
  if (!st.ok()) return fail(std::move(st));
  if (status != nullptr) *status = Status::OK();
  return std::unique_ptr<PreparedStatement>(
      new PreparedStatement(this, std::move(tmpl), std::move(pre_canonical),
                            std::move(source_sql)));
}

std::string Session::Explain(const Query& query) const {
  if (query.plan() == nullptr) return "(empty query)\n";
  const PlanPtr& plan = query.plan();
  std::string out =
      StrFormat("plan %016llx\n",
                (unsigned long long)HashString(plan->TreeKey())) +
      plan->Explain();
  if (db_->options().canonicalize_plans) {
    PlanPtr canon = CanonicalizePlan(plan);
    out += StrFormat("canonical %016llx\n",
                     (unsigned long long)HashString(canon->TreeKey()));
    out += canon != plan ? canon->Explain()
                         : std::string("  (already canonical)\n");
  }
  return out;
}

Result Session::RunStatement(const PlanPtr& plan,
                             const StatementOrigin* origin,
                             std::string text_key) {
  Result result = RunPipeline(plan, std::move(text_key));
  Record(result, origin);
  return result;
}

Result Session::RunPipeline(PlanPtr plan, std::string text_key) {
  if (plan == nullptr) {
    return Result::Error(Status::InvalidArgument("plan is null"));
  }
  // A repeated statement is served from the exact-hit index as
  // submitted. Equal keys mean equal plan structure, and a schema change
  // evicts every root over the table, so a hit validated against the
  // current schemas when it first ran.
  Recycler& recycler = db_->recycler();
  StatementKey key;
  std::unique_ptr<PreparedQuery> prepared;
  if (!options_.bypass_recycler) {
    prepared = recycler.ProbeExactHit(plan, &key, text_key);
  }
  if (prepared == nullptr) {
    // Nodes bound before a ReplaceTable may be shared with statements on
    // other threads (a prepared template's parameter-free subtrees), and
    // a bound node is never bound again: check and bind an unbound copy.
    if (plan->HasStaleBinding(db_->catalog())) plan = plan->CloneDeep();
    Status st = ValidatePlan(plan, db_->catalog(), nullptr);
    if (!st.ok()) return Result::Error(std::move(st));
    // Canonicalize on every execution path (recycler and bypass alike):
    // syntactic variants of one query must hash to the same fingerprints
    // before the recycler graph sees them. Unchanged subtrees are shared,
    // so this costs a spine rebuild at most.
    PlanPtr canonical = db_->options().canonicalize_plans
                            ? CanonicalizeKeepingTemplate(plan)
                            : plan;
    if (options_.bypass_recycler) {
      canonical->Bind(db_->catalog());
      QueryTrace trace;
      trace.template_hash = canonical->template_hash();
      trace.plan_fingerprint = HashString(canonical->TreeKey());
      ExecResult exec = db_->raw_executor().Run(canonical);
      trace.blocks_scanned = exec.blocks_scanned;
      trace.blocks_pruned = exec.blocks_pruned;
      return Result::Of(std::move(exec), std::move(trace));
    }
    // A non-canonical spelling probes again under its canonical key,
    // which every spelling of the statement registers, and registers its
    // own key beside it on a miss.
    std::string alias;
    if (canonical != plan) {
      StatementKey canonical_key;
      prepared = recycler.ProbeExactHit(canonical, &canonical_key, text_key);
      alias = std::move(key.text);
      key = std::move(canonical_key);
    }
    if (prepared == nullptr) {
      prepared = recycler.Prepare(std::move(canonical), std::move(key),
                                  {std::move(alias), std::move(text_key)});
    }
  }
  return RunPrepared(recycler, prepared.get());
}

void Session::set_recorder(trace::TraceRecorder* recorder) {
  std::lock_guard<std::mutex> lock(mu_);
  recorder_ = recorder;
}

void Session::Record(const Result& result, const StatementOrigin* origin) {
  trace::TraceRecorder* recorder = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.queries;
    if (!result.ok()) {
      ++stats_.errors;
      return;  // the recorder keeps successful statements only
    }
    stats_ += result.trace();
    stats_.total_ms += result.total_ms();
    if (options_.max_traces > 0) {
      if (traces_.size() < options_.max_traces) {
        traces_.push_back(result.trace());
      } else {
        traces_[trace_head_] = result.trace();
        trace_head_ = (trace_head_ + 1) % options_.max_traces;
      }
    }
    recorder = recorder_;
  }
  if (recorder != nullptr && origin != nullptr) {
    recorder->OnStatement(origin->sql, origin->params, result);
  }
}

SessionStats Session::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<QueryTrace> Session::traces() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<QueryTrace> out;
  out.reserve(traces_.size());
  for (size_t i = 0; i < traces_.size(); ++i) {
    out.push_back(traces_[(trace_head_ + i) % traces_.size()]);
  }
  return out;
}

}  // namespace recycledb
