#include "recycler/proactive.h"

#include <set>

#include "common/macros.h"
#include "common/string_util.h"
#include "expr/aggregate.h"

namespace recycledb {

PlanPtr RewriteTopNProactive(const PlanPtr& plan, int64_t proactive_limit) {
  // Rewrite children first.
  std::vector<PlanPtr> new_children;
  bool changed = false;
  for (const auto& c : plan->children()) {
    PlanPtr nc = RewriteTopNProactive(c, proactive_limit);
    changed = changed || nc != c;
    new_children.push_back(std::move(nc));
  }
  PlanPtr base = changed ? plan->WithChildren(new_children) : plan;
  if (plan->type() == OpType::kTopN && plan->limit() < proactive_limit) {
    PlanPtr big = PlanNode::TopN(base->child(0), base->sort_keys(),
                                 proactive_limit);
    return PlanNode::Limit(big, plan->limit());
  }
  return base;
}

namespace {

/// Finds distinct-count statistics for `column` in any base table under
/// `tables` (our schemas use globally unique column names).
std::optional<ColumnStats> FindColumnStats(const Catalog& catalog,
                                           const std::set<std::string>& tables,
                                           const std::string& column) {
  for (const auto& t : tables) {
    std::optional<ColumnStats> s = catalog.GetColumnStats(t, column);
    if (s.has_value()) return s;
  }
  return std::nullopt;
}

/// The aggregates of a cube rewrite in two levels: the inner aggregation
/// computes `partials` over argument columns (`args`: aa<i> := the
/// argument of item i), and `reagg` re-aggregates them into `agg`'s
/// output. Every name is fresh against `taken`.
struct CubeAggs {
  std::vector<ProjItem> args;
  std::vector<AggItem> partials;
  Reaggregation reagg;
};

CubeAggs SplitAggregates(const PlanNode& agg, std::set<std::string>* taken) {
  CubeAggs out;
  std::vector<AggItem> wanted;
  for (size_t i = 0; i < agg.aggregates().size(); ++i) {
    const AggItem& a = agg.aggregates()[i];
    const std::string arg = FreshName(StrFormat("aa%zu", i), taken);
    out.args.push_back({a.arg, arg});
    wanted.push_back({a.fn, Expr::Column(arg), a.out_name});
    for (AggItem& p :
         DecomposeAggregate(wanted.back(), StrFormat("pa%zu", i), taken)) {
      out.partials.push_back(std::move(p));
    }
  }
  std::optional<Reaggregation> r = Reaggregate(
      wanted, nullptr, out.partials, nullptr, agg.group_by(), "rr", *taken);
  RDB_CHECK_MSG(r.has_value(), "cube partials do not derive the aggregate");
  out.reagg = std::move(*r);
  return out;
}

/// Pattern probe: is `plan` Aggregate(γ, α) over Select(p, X)?
bool IsAggOverSelect(const PlanNode& plan) {
  return plan.type() == OpType::kAggregate && plan.num_children() == 1 &&
         plan.child(0)->type() == OpType::kSelect &&
         !plan.aggregates().empty();
}

/// Cube caching with binning (§IV-B, Fig. 5 right).
std::optional<CubeRewrite> TryBinning(const PlanPtr& plan) {
  const PlanNode& agg = *plan;
  const PlanPtr sel = agg.child(0);
  const PlanPtr x = sel->child(0);

  // Single upper-bounded range conjunct on a DATE column.
  std::vector<ExprPtr> conjuncts = SplitConjuncts(sel->predicate());
  if (conjuncts.size() != 1) return std::nullopt;
  const ExprPtr& pred = conjuncts[0];
  if (pred->kind() != ExprKind::kCompare) return std::nullopt;
  if (pred->compare_op() != CompareOp::kLe &&
      pred->compare_op() != CompareOp::kLt) {
    return std::nullopt;
  }
  const ExprPtr& lhs = pred->children()[0];
  const ExprPtr& rhs = pred->children()[1];
  if (lhs->kind() != ExprKind::kColumnRef ||
      rhs->kind() != ExprKind::kLiteral) {
    return std::nullopt;
  }
  const Schema& xs = x->output_schema();
  int cidx = xs.IndexOf(lhs->column_name());
  if (cidx < 0 || xs.field(cidx).type != TypeId::kDate) return std::nullopt;
  if (!std::holds_alternative<int32_t>(rhs->literal())) return std::nullopt;
  const std::string c = lhs->column_name();
  const int32_t d_date = std::get<int32_t>(rhs->literal());
  const int year_d = DateYear(d_date);

  std::set<std::string> taken(agg.group_by().begin(), agg.group_by().end());
  const std::string bin_col = FreshName(c + "_year", &taken);
  const CubeAggs d = SplitAggregates(agg, &taken);

  // --- binned part: year-cube over X, filtered to full years < year(D).
  std::vector<ProjItem> p1_items;
  for (const auto& g : agg.group_by()) p1_items.push_back({Expr::Column(g), g});
  p1_items.push_back({Expr::Func("year", {Expr::Column(c)}), bin_col});
  for (const auto& it : d.args) p1_items.push_back(it);
  PlanPtr p1 = PlanNode::Project(x, p1_items);

  std::vector<std::string> bin_groups = agg.group_by();
  bin_groups.push_back(bin_col);
  PlanPtr binned = PlanNode::Aggregate(p1, bin_groups, d.partials);

  PlanPtr sel_bin = PlanNode::Select(
      binned, Expr::Lt(Expr::Column(bin_col),
                       Expr::Literal(static_cast<int32_t>(year_d))));
  std::vector<ProjItem> drop_bin_items;
  for (const auto& g : agg.group_by()) {
    drop_bin_items.push_back({Expr::Column(g), g});
  }
  for (const auto& p : d.partials) {
    drop_bin_items.push_back({Expr::Column(p.out_name), p.out_name});
  }
  PlanPtr part_a = PlanNode::Project(sel_bin, drop_bin_items);

  // --- residual part: recompute [Jan 1 of year(D) .. D] from X.
  ExprPtr residual = Expr::And(
      Expr::Ge(Expr::Column(c), Expr::Literal(MakeDate(year_d, 1, 1))),
      Expr::Compare(pred->compare_op(), Expr::Column(c),
                    Expr::Literal(d_date)));
  PlanPtr sel_res = PlanNode::Select(x, residual);
  std::vector<ProjItem> p2_items;
  for (const auto& g : agg.group_by()) p2_items.push_back({Expr::Column(g), g});
  for (const auto& it : d.args) p2_items.push_back(it);
  PlanPtr p2 = PlanNode::Project(sel_res, p2_items);
  PlanPtr part_b = PlanNode::Aggregate(p2, agg.group_by(), d.partials);

  CubeRewrite out;
  out.gate = binned;
  out.plan = PlanNode::Project(
      PlanNode::Aggregate(PlanNode::UnionAll({part_a, part_b}),
                          agg.group_by(), d.reagg.outer),
      d.reagg.final);
  return out;
}

/// Cube caching with selections (§IV-B, Fig. 5 left).
std::optional<CubeRewrite> TrySelections(const PlanPtr& plan,
                                         const Catalog& catalog,
                                         int64_t distinct_threshold) {
  const PlanNode& agg = *plan;
  const PlanPtr sel = agg.child(0);
  const PlanPtr x = sel->child(0);

  std::set<std::string> pred_cols;
  sel->predicate()->CollectColumns(&pred_cols);
  if (pred_cols.empty()) return std::nullopt;
  // Result-size heuristic: the combined distinct count of the selection
  // columns added to the GROUP BY must be small.
  int64_t combined = 1;
  for (const auto& c : pred_cols) {
    std::optional<ColumnStats> s =
        FindColumnStats(catalog, x->base_tables(), c);
    if (!s.has_value() || s->distinct_count <= 0) return std::nullopt;
    combined *= s->distinct_count;
    if (combined > distinct_threshold) return std::nullopt;
  }
  std::set<std::string> groups(agg.group_by().begin(), agg.group_by().end());
  bool all_grouped = true;
  for (const auto& c : pred_cols) {
    if (groups.count(c) == 0) all_grouped = false;
  }
  if (all_grouped) {
    // Best case: every selection column is already a grouping column, so
    // the selection commutes with the aggregation — pull it above without
    // re-aggregation. The unfiltered aggregate becomes the shared cube.
    PlanPtr cube = PlanNode::Aggregate(x, agg.group_by(), agg.aggregates());
    CubeRewrite out;
    out.gate = cube;
    out.plan = PlanNode::Select(cube, sel->predicate());
    return out;
  }

  std::set<std::string> taken = groups;
  taken.insert(pred_cols.begin(), pred_cols.end());
  const CubeAggs d = SplitAggregates(agg, &taken);

  std::vector<ProjItem> p1_items;
  for (const auto& g : agg.group_by()) p1_items.push_back({Expr::Column(g), g});
  for (const auto& c : pred_cols) {
    if (groups.count(c) == 0) p1_items.push_back({Expr::Column(c), c});
  }
  for (const auto& it : d.args) p1_items.push_back(it);
  PlanPtr p1 = PlanNode::Project(x, p1_items);

  std::vector<std::string> cube_groups = agg.group_by();
  for (const auto& c : pred_cols) {
    if (groups.count(c) == 0) cube_groups.push_back(c);
  }
  PlanPtr inner = PlanNode::Aggregate(p1, cube_groups, d.partials);
  PlanPtr filtered = PlanNode::Select(inner, sel->predicate());
  std::vector<ProjItem> drop_items;
  for (const auto& g : agg.group_by()) {
    drop_items.push_back({Expr::Column(g), g});
  }
  for (const auto& p : d.partials) {
    drop_items.push_back({Expr::Column(p.out_name), p.out_name});
  }
  PlanPtr dropped = PlanNode::Project(filtered, drop_items);

  CubeRewrite out;
  out.gate = inner;
  out.plan = PlanNode::Project(
      PlanNode::Aggregate(dropped, agg.group_by(), d.reagg.outer),
      d.reagg.final);
  return out;
}

}  // namespace

std::optional<CubeRewrite> TryCubeRewrite(const PlanPtr& plan,
                                          const Catalog& catalog,
                                          int64_t distinct_threshold) {
  RDB_CHECK_MSG(plan->bound(), "TryCubeRewrite requires a bound plan");
  if (IsAggOverSelect(*plan)) {
    // Binning handles range predicates; plain selections the rest.
    if (auto r = TryBinning(plan)) return r;
    if (auto r = TrySelections(plan, catalog, distinct_threshold)) return r;
  }
  // Recurse: rewrite the first applicable descendant and splice it in.
  for (int i = 0; i < plan->num_children(); ++i) {
    if (auto r = TryCubeRewrite(plan->child(i), catalog, distinct_threshold)) {
      std::vector<PlanPtr> children = plan->children();
      children[static_cast<size_t>(i)] = r->plan;
      CubeRewrite spliced;
      spliced.gate = r->gate;
      spliced.plan = plan->WithChildren(std::move(children));
      return spliced;
    }
  }
  return std::nullopt;
}

}  // namespace recycledb
