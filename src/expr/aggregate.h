// Aggregate function specifications and decomposition rules.
#pragma once

#include <string>
#include <vector>

#include "expr/expression.h"

namespace recycledb {

/// Supported aggregate functions.
enum class AggFunc : uint8_t {
  kSum,
  kCount,      // count(arg); arg may be a constant 1 for COUNT(*)
  kMin,
  kMax,
  kAvg,
};

const char* AggFuncName(AggFunc fn);

/// One aggregate in a GROUP BY: fn(arg) AS out_name.
struct AggItem {
  AggFunc fn;
  ExprPtr arg;          // input expression (never null; use Literal(1) for *)
  std::string out_name;

  /// Appends the key to `out` (for plan keys): the function byte, then
  /// `arg`'s Expr::AppendKey over `input`. `out_name` is left out.
  void AppendKey(std::string* out, const Schema* input) const;
};

/// Result value type of an aggregate over an input of type `input`.
/// sum(int)->int64, sum(double)->double, count->int64, avg->double,
/// min/max preserve the input type.
TypeId AggResultType(AggFunc fn, TypeId input);

/// Decomposition for re-aggregation (the paper's "standard aggregate
/// calculation decomposition rules" used by cube caching):
/// a query aggregate α is computed from partial aggregates α' as α''(α'):
///   sum   -> sum of partial sums
///   count -> sum of partial counts
///   min   -> min of partial mins
///   max   -> max of partial maxs
///   avg   -> sum(partial sums) / sum(partial counts)
///
/// `partials` receives the α' items to compute in the inner aggregation,
/// and the returned expression (over the partials' out_names) computes the
/// final value; `refn` receives the re-aggregation functions to apply to
/// each partial in the outer aggregation before the final expression.
struct AggDecomposition {
  /// Partial aggregates to compute in the inner (extended) aggregation.
  std::vector<AggItem> partials;
  /// Re-aggregation of each partial in the outer aggregation
  /// (positionally matches `partials`).
  std::vector<AggFunc> reaggs;
  /// Expression over the re-aggregated partials producing the final value;
  /// references partials by out_name. Null means "the single re-aggregated
  /// partial is the final value".
  ExprPtr final_expr;
};

/// Decomposes `item` for two-level aggregation. `partial_prefix` is used
/// to build unique partial output names.
AggDecomposition DecomposeAggregate(const AggItem& item,
                                    const std::string& partial_prefix);

}  // namespace recycledb
