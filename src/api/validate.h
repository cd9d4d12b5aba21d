// Non-aborting plan validation for the public API.
//
// There is one schema-and-type rule, PlanNode::DeriveSchema (which types
// expressions with Expr::CheckType). The internal binder, PlanNode::Bind,
// RDB_CHECK-aborts when it fails, which is the right contract for our own
// generators but not for an embeddable API surface where queries and
// parameter bindings come from the host application. ValidatePlan applies
// the same rule bottom-up, without mutating the plan, and returns its
// failure as a Status, so Session/PreparedStatement can reject bad input
// (unknown columns, unbound parameters, type mismatches) with an Explain()
// rendering of the offending operator instead of aborting.
#pragma once

#include "common/status.h"
#include "plan/plan.h"

namespace recycledb {

/// Validates `plan` bottom-up against `catalog` by PlanNode::DeriveSchema:
/// every condition Bind() would abort on, including unresolved parameter
/// placeholders. Subtrees bound under the catalog's current schema
/// generation are not walked again. Does not mutate the plan. On success
/// `*out_schema` (optional) receives the plan's output schema; on failure
/// the message includes the offending operator subtree.
Status ValidatePlan(const PlanPtr& plan, const Catalog& catalog,
                    Schema* out_schema);

}  // namespace recycledb
