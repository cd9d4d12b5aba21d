#include "api/statement.h"

#include "api/database.h"
#include "api/session.h"
#include "api/validate.h"
#include "common/hash.h"
#include "common/string_util.h"

namespace recycledb {

PreparedStatement::PreparedStatement(Session* session, PlanPtr template_plan,
                                     PlanPtr pre_canonical,
                                     std::string source_sql)
    : session_(session),
      template_(std::move(template_plan)),
      source_sql_(std::move(source_sql)),
      pre_canonical_(std::move(pre_canonical)) {
  template_->CollectParams(&params_);
  fingerprint_ = template_->TemplateFingerprint();
  hash_ = TemplateHash(fingerprint_);
  // Tag the template root: SubstituteParams clones propagate the hash, so
  // every bound plan carries its template identity to the recycler.
  template_->set_template_hash(hash_);
}

std::string PreparedStatement::Explain() const {
  std::string out =
      StrFormat("PreparedStatement %016llx\n", (unsigned long long)hash_);
  out += template_->Explain();
  if (pre_canonical_ != nullptr) {
    out += StrFormat(
        "pre-canonicalization %016llx\n",
        (unsigned long long)HashString(pre_canonical_->TemplateFingerprint()));
    out += pre_canonical_->Explain();
  }
  if (!params_.empty()) {
    out += "bindings:";
    for (const auto& p : params_) {
      auto it = bound_.find(p);
      out += it == bound_.end()
                 ? StrFormat(" $%s=<unbound>", p.c_str())
                 : StrFormat(" $%s=%s", p.c_str(),
                             DatumToString(it->second).c_str());
    }
    out += "\n";
  }
  return out;
}

PreparedStatement& PreparedStatement::Bind(const std::string& name,
                                           Datum value) {
  if (params_.count(name) == 0 && pending_error_.ok()) {
    pending_error_ = Status::InvalidArgument(
        "unknown parameter: $" + name + "\n" + Explain());
  }
  bound_[name] = std::move(value);
  return *this;
}

PreparedStatement& PreparedStatement::BindAll(const ParamMap& params) {
  for (const auto& [name, value] : params) Bind(name, value);
  return *this;
}

void PreparedStatement::ClearBindings() {
  bound_.clear();
  pending_error_ = Status::OK();
}

Status PreparedStatement::ToPlan(PlanPtr* out) {
  PlanPtr plan;
  RDB_RETURN_NOT_OK(Substitute(&plan));
  RDB_RETURN_NOT_OK(
      ValidatePlan(plan, session_->database()->catalog(), nullptr));
  *out = std::move(plan);
  return Status::OK();
}

Status PreparedStatement::Substitute(PlanPtr* out) {
  if (!pending_error_.ok()) return pending_error_;
  std::vector<std::string> missing;
  PlanPtr plan = template_->SubstituteParams(bound_, &missing);
  if (!missing.empty()) {
    std::set<std::string> unique(missing.begin(), missing.end());
    std::string names;
    for (const auto& m : unique) {
      if (!names.empty()) names += ", ";
      names += "$" + m;
    }
    return Status::InvalidArgument("unbound parameters: " + names + "\n" +
                                   Explain());
  }
  *out = std::move(plan);
  return Status::OK();
}

Result PreparedStatement::Execute() {
  PlanPtr plan;
  Status st = Substitute(&plan);
  if (!st.ok()) {
    Result r = Result::Error(std::move(st));
    session_->Record(r);
    return r;
  }
  const Session::StatementOrigin origin{source_sql_, bound_};
  return session_->RunStatement(plan, &origin);
}

Result PreparedStatement::Execute(const ParamMap& params) {
  BindAll(params);
  return Execute();
}

std::future<Result> PreparedStatement::Submit() {
  PlanPtr plan;
  Status st = Substitute(&plan);
  if (!st.ok()) {
    Result error = Result::Error(std::move(st));
    session_->Record(error);  // async failures count in session stats too
    std::promise<Result> prom;
    prom.set_value(std::move(error));
    return prom.get_future();
  }
  return session_->SubmitInternal(
      [session = session_, plan = std::move(plan)] {
        return session->RunStatement(plan);
      });
}

TemplateStats PreparedStatement::stats() const {
  return session_->database()->StatsForTemplate(hash_);
}

}  // namespace recycledb
