// Range decomposition of selection predicates.
//
// Splits a predicate into per-column interval specs (`10 < x AND x < 50`
// plus arbitrary non-range conjuncts). Consumers: the recycler's
// interval index and stitching rewriter (partial reuse), the executor's
// zone-map scan pruning, and Plan::Explain's prunable-range annotation.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "common/interval.h"
#include "expr/expression.h"

namespace recycledb {

/// A selection predicate decomposed around one ranged column: the
/// column's interval plus every remaining conjunct ("others", matched by
/// key between cached slice and query).
struct RangeSpec {
  /// Ranged column name in the predicate's own name space.
  std::string column;
  /// `column`'s ordinal in the extraction input (-1 without one): the
  /// interval index key.
  int ordinal = -1;
  /// The conjunction of all range conjuncts on `column`.
  ColumnInterval range;
  /// Non-range conjuncts, original expressions (predicate name space).
  std::vector<ExprPtr> others;
  /// Keys (Expr::AppendKey) of `others` over the extraction input.
  std::set<std::string> other_keys;
};

/// Decomposes a selection predicate into one RangeSpec per column that
/// carries at least one range conjunct (`col < lit`, `lit <= col`, ...).
/// Every conjunct not contributing to a spec's column lands in that
/// spec's `others` — including range conjuncts on *different* columns,
/// which then must match by key like any other conjunct. Specs
/// whose interval is empty (contradictory predicate) are dropped.
/// `input` (optional) is the schema the predicate reads: it resolves
/// `ordinal` and keys `other_keys` by ordinal (Expr::AppendKey).
std::vector<RangeSpec> ExtractRangeSpecs(const ExprPtr& pred,
                                         const Schema* input);

}  // namespace recycledb
