// Aggregate function specifications and the re-aggregation rule.
#pragma once

#include <optional>
#include <set>
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

/// Index of the item of `items` computing `fn` over an argument whose
/// Expr::Key over `input` (null: names as written) is `arg_key`, or -1.
int FindAggregate(const std::vector<AggItem>& items, const Schema* input,
                  AggFunc fn, const std::string& arg_key);

// The re-aggregation rule (the paper's "standard aggregate calculation
// decomposition rules"): an aggregate over the union of row sets is an
// aggregate over partial aggregates of each set.
//   SUM   <- SUM of partial SUMs
//   COUNT <- SUM of partial COUNTs
//   MIN   <- MIN of partial MINs
//   MAX   <- MAX of partial MAXs
//   AVG   <- (SUM of partial SUMs * 1.0) / SUM of partial COUNTs
// Delta aggregate merges, tuple subsumption and both cube-caching
// strategies derive through Reaggregate; cube caching computes its
// partials with DecomposeAggregate.

/// The partial aggregates `item` is re-aggregated from: `item` itself for
/// SUM, COUNT, MIN and MAX (named `prefix`_p0), SUM and COUNT of its
/// argument for AVG (`prefix`_psum, `prefix`_pcnt). Names are made fresh
/// against `taken` (FreshName).
std::vector<AggItem> DecomposeAggregate(const AggItem& item,
                                        const std::string& prefix,
                                        std::set<std::string>* taken);

/// The outer half of a two-level aggregation:
/// Project(final, Aggregate(groups, outer, <partial rows>)).
struct Reaggregation {
  /// The outer aggregate's items: one per partial read, over the column
  /// holding it, as a temporary.
  std::vector<AggItem> outer;
  /// Over the outer aggregate's output: each group as itself, then each
  /// wanted item under its out_name.
  std::vector<ProjItem> final;
};

/// Derives `wanted` (arguments keyed over `wanted_input`) from
/// `partials` (keyed over `partial_input`; each held in the column named
/// by its out_name) grouped by `groups`, by the rule above: a wanted
/// item reads the first partial with the function and argument key the
/// rule names. Returns nullopt when some item is not derivable.
///
/// The temporary for partial j is `temp_prefix` + j, made fresh against
/// `scope`, the groups, the partials' columns and the wanted out_names,
/// so it never names another column of the outer aggregate's input or
/// output.
std::optional<Reaggregation> Reaggregate(
    const std::vector<AggItem>& wanted, const Schema* wanted_input,
    const std::vector<AggItem>& partials, const Schema* partial_input,
    const std::vector<std::string>& groups, const std::string& temp_prefix,
    std::set<std::string> scope);

/// True when Reaggregate would derive `wanted` from `partials`, without
/// building the plan items: the rule's lookup alone.
bool Derivable(const std::vector<AggItem>& wanted, const Schema* wanted_input,
               const std::vector<AggItem>& partials,
               const Schema* partial_input);

}  // namespace recycledb
