// Fluent query builder: the public face of the plan IR.
//
//   Query q = db.Scan("sales", {"city", "year", "sales"})
//                .Filter(Expr::Ge(Expr::Column("year"), Expr::Param("y")))
//                .Aggregate({"city"}, {{AggFunc::kSum, Expr::Column("sales"),
//                                       "total"}})
//                .OrderBy({{"total", false}});
//
// A Query is an immutable wrapper over a PlanPtr; every builder call
// returns a new Query whose plan shares the receiver's plan as a child,
// so template prefixes are shared, not copied. Queries may contain
// Expr::Param placeholders; parameterized queries must go through
// Session::Prepare, parameter-free ones can be executed directly.
//
// A Query is not tied to a Database until executed; execute it against
// one Database only (plans bind their schemas on first execution).
#pragma once

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "plan/plan.h"

namespace recycledb {

/// Immutable fluent builder over the logical plan IR (see the file
/// comment for usage and sharing semantics).
class Query {
 public:
  /// An empty query; usable only as a target for assignment.
  Query() = default;

  // ---- roots (also exposed as Database::Scan / Session::Scan) ---------
  /// Base-table scan with column pruning.
  static Query Scan(std::string table, std::vector<std::string> columns) {
    return Query(PlanNode::Scan(std::move(table), std::move(columns)));
  }
  /// Table-function scan; args may mix literals and Expr::Param.
  static Query FunctionScan(std::string function, std::vector<ExprPtr> args) {
    return Query(
        PlanNode::FunctionScanTemplate(std::move(function), std::move(args)));
  }
  /// Wraps an existing plan (workload generators, tests).
  static Query FromPlan(PlanPtr plan) { return Query(std::move(plan)); }

  // ---- operators -------------------------------------------------------
  /// Selection: keeps the rows satisfying `predicate`.
  Query Filter(ExprPtr predicate) const {
    return Query(PlanNode::Select(plan_, std::move(predicate)));
  }
  /// Projection: computes `items` as the new output columns.
  Query Project(std::vector<ProjItem> items) const {
    return Query(PlanNode::Project(plan_, std::move(items)));
  }
  /// Hash group-by + aggregates (global aggregation if `group_by` is
  /// empty).
  Query Aggregate(std::vector<std::string> group_by,
                  std::vector<AggItem> aggregates) const {
    return Query(
        PlanNode::Aggregate(plan_, std::move(group_by), std::move(aggregates)));
  }
  /// Hash equi-join with `right` as the build side.
  Query Join(const Query& right, JoinKind kind,
             std::vector<std::string> left_keys,
             std::vector<std::string> right_keys) const {
    return Query(PlanNode::HashJoin(plan_, right.plan_, kind,
                                    std::move(left_keys),
                                    std::move(right_keys)));
  }
  /// Full sort by `keys`.
  Query OrderBy(std::vector<SortKey> keys) const {
    return Query(PlanNode::OrderBy(plan_, std::move(keys)));
  }
  /// Heap-based top-`n` by `keys`; output is sorted.
  Query TopN(std::vector<SortKey> keys, int64_t n) const {
    return Query(PlanNode::TopN(plan_, std::move(keys), n));
  }
  /// First `n` rows.
  Query Limit(int64_t n) const { return Query(PlanNode::Limit(plan_, n)); }
  /// Bag union with a union-compatible `other`.
  Query Union(const Query& other) const {
    return Query(PlanNode::UnionAll({plan_, other.plan_}));
  }

  // ---- inspection ------------------------------------------------------
  /// The underlying logical plan (nullptr for an empty query).
  const PlanPtr& plan() const { return plan_; }
  /// True if the query contains Expr::Param placeholders (must then go
  /// through Session::Prepare).
  bool HasParams() const { return plan_ != nullptr && plan_->HasParams(); }
  /// Names of every parameter placeholder in the query.
  std::set<std::string> Params() const {
    std::set<std::string> out;
    if (plan_ != nullptr) plan_->CollectParams(&out);
    return out;
  }
  /// Indented operator tree with parameters ($name placeholders).
  std::string Explain() const {
    return plan_ == nullptr ? "(empty query)\n" : plan_->Explain();
  }
  /// Canonical template fingerprint (binding-independent): opaque binary
  /// bytes, equal for two queries exactly when their plans are the same
  /// template. Compare or hash it; do not print or parse it.
  std::string TemplateFingerprint() const {
    return plan_ == nullptr ? "" : plan_->TemplateFingerprint();
  }

 private:
  explicit Query(PlanPtr plan) : plan_(std::move(plan)) {}

  PlanPtr plan_;
};

}  // namespace recycledb
