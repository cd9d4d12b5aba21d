// Canonicalizing rewrite pass: syntactically different, semantically
// equal plans normalize to one structural form so their keys —
// and therefore their recycler-graph nodes, cache entries and cold-tier
// subtree keys — coincide.
//
// Rules (documented with examples in DESIGN.md "SQL front-end &
// normalization"):
//   - constant folding matching Eval semantics exactly (type promotion,
//     division-by-zero-yields-0, comparison under the value order of
//     common/types.h)
//   - comparison normalization: `5 < x` becomes `x > 5`
//   - AND/OR flattening, conjunct deduplication and deterministic
//     (key-sorted) ordering, TRUE/FALSE simplification
//   - per-column range-conjunct merging: `x > 1 AND x > 2` -> `x > 2`,
//     `x >= 5 AND x <= 5` -> `x = 5`, contradictions -> FALSE
//   - NOT elimination over comparisons (NULL-free engine, total order)
//   - Select merging and pushdown below Project (pass-through columns)
//     and below OrderBy (stable sort: bit-identical results)
//   - identity-Project elimination and rename-chain composition
//   - Limit(Limit) collapsing
//
// Every rewrite is result-preserving bit-for-bit (row order included);
// the pass is pure (input trees are never mutated, unchanged subtrees
// are shared) and idempotent. Parameter placeholders are left alone, so
// prepared-statement templates canonicalize the same way as their
// substituted instances.
#pragma once

#include "expr/expression.h"
#include "plan/plan.h"

namespace recycledb {

/// Canonicalizes a scalar expression (see the file comment for the rule
/// set). Returns the input pointer when nothing changed.
ExprPtr CanonicalizeExpr(const ExprPtr& expr);

/// Canonicalizes a plan tree bottom-up. Pure: `plan` is unchanged and
/// untouched subtrees are shared with the result. Returns the input
/// pointer when nothing changed.
PlanPtr CanonicalizePlan(const PlanPtr& plan);

/// CanonicalizePlan for execution: the result keeps `plan`'s template
/// hash. A dropped root (identity Project, TRUE Select) surfaces a shared
/// child as the new root; a private copy of it is re-tagged, so the
/// template attribution survives without mutating the shared node.
PlanPtr CanonicalizeKeepingTemplate(const PlanPtr& plan);

}  // namespace recycledb
