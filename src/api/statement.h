// PreparedStatement: a reusable query template with named parameters.
//
// The paper's workloads are templates — SkyServer and TPC-H queries that
// differ only in constants (§V) — and that is exactly the shape the
// recycler exploits. A PreparedStatement captures the template once
// (canonical fingerprint, pre-validated and pre-bound parameter-free
// subtrees), and each Bind/Execute round only re-creates the
// parameterized spine of the plan. Executions carry the template's hash
// so the recycler attributes reuse to the template (TemplateStats).
//
// Not thread-safe: a statement belongs to its Session and must not be
// executed concurrently with itself. Submit() hands the bound plan to the
// database's async pool; the statement itself can be rebound immediately.
#pragma once

#include <future>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "api/query.h"
#include "api/result.h"
#include "common/status.h"

namespace recycledb {

class Session;

/// A compiled, reusable query template with named `$name` parameters
/// (see the file comment for the template/recycler relationship and the
/// threading contract).
class PreparedStatement {
 public:
  // ---- template inspection --------------------------------------------
  /// Names of the parameters the template declares.
  const std::set<std::string>& parameters() const { return params_; }
  /// Canonical binding-independent key of the template: opaque binary
  /// bytes, equal for two statements exactly when their templates are
  /// the same. Compare or hash it; do not print or parse it.
  const std::string& template_fingerprint() const { return fingerprint_; }
  /// Hash of template_fingerprint(); the recycler's TemplateStats key.
  uint64_t template_hash() const { return hash_; }

  /// Canonical template tree plus the current bindings; when the
  /// canonicalizer rewrote the template at Prepare, also the
  /// pre-canonicalization tree with its own fingerprint hash, so the
  /// normalization is inspectable. Used in error messages.
  std::string Explain() const;

  // ---- binding ---------------------------------------------------------
  /// Binds `value` under `$name`. Fluent. Binding a name the template
  /// does not declare is reported as an error by the next Execute.
  PreparedStatement& Bind(const std::string& name, Datum value);
  /// Binds every entry of `params`. Fluent.
  PreparedStatement& BindAll(const ParamMap& params);
  /// Drops every current binding (and any deferred binding error).
  void ClearBindings();
  /// The currently bound parameter values.
  const ParamMap& bindings() const { return bound_; }

  /// Substitutes the current bindings and validates, without executing.
  /// On success `*out` receives the bound plan (template-hash tagged).
  Status ToPlan(PlanPtr* out);

  // ---- execution -------------------------------------------------------
  /// Synchronous execution with the current bindings.
  Result Execute();
  /// BindAll + Execute in one call (bindings persist afterwards).
  Result Execute(const ParamMap& params);
  /// Asynchronous execution on the database's async pool; the returned
  /// future is fulfilled by a database worker thread.
  std::future<Result> Submit();

  /// Recycler-side aggregate over every execution of this template.
  TemplateStats stats() const;

 private:
  friend class Session;
  PreparedStatement(Session* session, PlanPtr template_plan,
                    PlanPtr pre_canonical = nullptr,
                    std::string source_sql = std::string());

  /// ToPlan without the validation: Execute and Submit hand the plan to
  /// the session's statement pipeline, which validates only on a miss.
  Status Substitute(PlanPtr* out);

  Session* session_;
  PlanPtr template_;
  /// The SQL text this statement was prepared from (empty for builder
  /// templates); recorded with each execution's bindings by an attached
  /// TraceRecorder so the round is replayable.
  std::string source_sql_;
  /// The template as handed to Prepare, kept for Explain only; nullptr
  /// when canonicalization left it unchanged (or is disabled).
  PlanPtr pre_canonical_;
  std::set<std::string> params_;
  std::string fingerprint_;
  uint64_t hash_ = 0;
  ParamMap bound_;
  /// Deferred error from a bad Bind call (unknown parameter name).
  Status pending_error_;
};

}  // namespace recycledb
