// Lowering: SQL AST -> the existing PlanNode / Expr IR.
//
// Resolves a parsed SelectStmt against a Catalog and produces the same
// plan shapes the fluent builder would: Scan (column-pruned, columns in
// table-schema order) or FunctionScan at the base, then Select,
// Aggregate, Project, OrderBy/TopN/Limit as the clauses require. Name
// resolution failures come back as Status with the parser's caret
// snippets; structural/type errors are left to the schema rule
// (PlanNode::DeriveSchema), which ValidatePlan applies.
#pragma once

#include <string_view>

#include "common/status.h"
#include "plan/plan.h"
#include "sql/ast.h"

namespace recycledb {
namespace sql {

/// Lowers a parsed statement onto PlanNode factories. `sql` is the
/// original text (for caret snippets in name-resolution errors).
Status LowerSelect(const SelectStmt& stmt, std::string_view sql,
                   const Catalog& catalog, PlanPtr* out);

/// One-call front door: lex + parse + lower. The returned plan is NOT
/// canonicalized (Session applies CanonicalizePlan per DatabaseOptions)
/// and NOT validated against parameter bindings — plans with :params must
/// go through Session::Prepare.
Status SqlToPlan(std::string_view sql, const Catalog& catalog, PlanPtr* out);

}  // namespace sql
}  // namespace recycledb
