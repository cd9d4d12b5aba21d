#include "recycler/delta.h"

#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"

namespace recycledb {

namespace {

/// Index of the aggregate `fn` whose argument keys as `arg_key` in
/// `items` (-1 if absent). Keys name columns as written: both sides live
/// in the same name space (the query plan's, or a param_node's
/// positional one).
int FindAgg(const std::vector<AggItem>& items, AggFunc fn,
            const std::string& arg_key) {
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i].fn == fn && items[i].arg->Key(nullptr) == arg_key) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

/// Decomposability of one aggregate list (see DeltaEligiblePlan).
bool AggListEligible(const std::vector<std::string>& group_by,
                     const std::vector<AggItem>& items) {
  for (const AggItem& item : items) {
    switch (item.fn) {
      case AggFunc::kSum:
      case AggFunc::kCount:
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        // A global MIN/MAX over an empty delta group would merge the
        // operator's pad row into the result; grouped aggregates emit no
        // row for an empty delta, so only the global form is excluded.
        if (group_by.empty()) return false;
        break;
      case AggFunc::kAvg: {
        const std::string key = item.arg->Key(nullptr);
        if (FindAgg(items, AggFunc::kSum, key) < 0 ||
            FindAgg(items, AggFunc::kCount, key) < 0) {
          return false;
        }
        break;
      }
    }
  }
  return true;
}

/// Re-aggregation function merging partials of `fn` (kAvg never reaches
/// here: its columns are excluded from the outer aggregation).
AggFunc ReaggOf(AggFunc fn) {
  return fn == AggFunc::kCount ? AggFunc::kSum : fn;
}

/// Clones the chain with the leaf scan replaced by the delta window
/// [window.from_rows, window.to_rows).
PlanPtr CloneWithWindow(const PlanNode& n, const StaleWindow& window) {
  if (n.type() == OpType::kScan) {
    return PlanNode::ScanRange(n.table_name(), n.scan_columns(),
                               window.from_rows, window.to_rows);
  }
  std::vector<PlanPtr> kids;
  for (const PlanPtr& c : n.children()) {
    kids.push_back(CloneWithWindow(*c, window));
  }
  return n.WithChildren(std::move(kids));
}

}  // namespace

Freshness CheckFreshness(const std::map<std::string, TableStamp>& stamps,
                         const std::set<std::string>& base_tables,
                         const std::map<std::string, TableSnapshot>& snapshots,
                         StaleWindow* window) {
  if (window != nullptr) *window = StaleWindow{};
  // Unstamped legacy entry: fresh by the append-invalidation contract.
  if (stamps.empty()) return Freshness::kFresh;
  int stale_tables = 0;
  bool ahead = false;
  for (const std::string& table : base_tables) {
    auto st = stamps.find(table);
    auto sn = snapshots.find(table);
    // A dependency without a stamp (or without a pinned snapshot to
    // compare against) makes the entry unjudgeable: treat as replaced.
    if (st == stamps.end() || sn == snapshots.end()) {
      return Freshness::kIncompatible;
    }
    if (st->second.epoch != sn->second.epoch) {
      return Freshness::kIncompatible;
    }
    // Same epoch but the entry is stamped past this query's snapshot: a
    // concurrent append + refresh won the race. The entry is fresh for
    // later queries — the caller must miss WITHOUT evicting.
    if (st->second.rows > sn->second.rows) {
      ahead = true;
      continue;
    }
    if (st->second.rows < sn->second.rows) {
      if (++stale_tables == 1 && window != nullptr) {
        window->table = table;
        window->from_rows = st->second.rows;
        window->to_rows = sn->second.rows;
      } else if (window != nullptr) {
        *window = StaleWindow{};  // multi-table growth: no single window
      }
    }
  }
  if (ahead) return Freshness::kAhead;
  return stale_tables == 0 ? Freshness::kFresh : Freshness::kAppendStale;
}

bool DeltaEligiblePlan(const PlanNode& plan, const std::string& table) {
  RDB_CHECK_MSG(plan.bound(), "DeltaEligiblePlan needs a bound plan");
  if (plan.base_tables().size() != 1 ||
      plan.base_tables().count(table) == 0) {
    return false;
  }
  const PlanNode* cur = &plan;
  if (cur->type() == OpType::kAggregate) {
    if (!AggListEligible(cur->group_by(), cur->aggregates())) return false;
    cur = cur->child().get();
  }
  while (cur->type() == OpType::kSelect || cur->type() == OpType::kProject) {
    cur = cur->child().get();
  }
  return cur->type() == OpType::kScan && cur->table_name() == table &&
         !cur->has_scan_range();
}

bool DeltaEligibleNode(const RGNode& node, const std::string& table) {
  if (node.base_tables.size() != 1 || node.base_tables.count(table) == 0) {
    return false;
  }
  const RGNode* cur = &node;
  if (cur->type == OpType::kAggregate) {
    if (cur->children.size() != 1 || cur->param_node == nullptr ||
        !AggListEligible(cur->param_node->group_by(),
                         cur->param_node->aggregates())) {
      return false;
    }
    cur = cur->children[0];
  }
  while (cur->type == OpType::kSelect || cur->type == OpType::kProject) {
    if (cur->children.size() != 1) return false;
    cur = cur->children[0];
  }
  return cur->type == OpType::kScan && cur->param_node != nullptr &&
         cur->param_node->table_name() == table &&
         !cur->param_node->has_scan_range();
}

PlanPtr BuildDeltaStitch(const PlanNode& plan, TablePtr cached,
                         const StaleWindow& window, PlanPtr* cached_scan_out) {
  PlanPtr cached_scan =
      PlanNode::CachedScan(std::move(cached), plan.output_schema().Names());
  cached_scan->set_as_of_rows(window.from_rows);
  if (cached_scan_out != nullptr) *cached_scan_out = cached_scan;
  PlanPtr delta = CloneWithWindow(plan, window);
  return PlanNode::UnionAll({cached_scan, delta});
}

PlanPtr BuildAggMerge(const PlanNode& plan, TablePtr cached,
                      const StaleWindow& window, PlanPtr* cached_scan_out) {
  RDB_CHECK(plan.type() == OpType::kAggregate);
  const std::vector<std::string>& groups = plan.group_by();
  const std::vector<AggItem>& items = plan.aggregates();

  PlanPtr cached_scan =
      PlanNode::CachedScan(std::move(cached), plan.output_schema().Names());
  cached_scan->set_as_of_rows(window.from_rows);
  if (cached_scan_out != nullptr) *cached_scan_out = cached_scan;

  // Aggregate only the delta window with the original functions, then
  // union with the cached aggregate state (positionally compatible: both
  // sides carry [groups..., aggregates...] in the query's output names).
  PlanPtr delta_agg = CloneWithWindow(plan, window);
  PlanPtr merged = PlanNode::UnionAll({cached_scan, delta_agg});

  // Re-aggregate partials per group. AVG columns are carried by the
  // union but not re-aggregated: the final value is recomputed from the
  // merged SUM/COUNT of the same argument (decomposition rules).
  std::vector<AggItem> outer;
  std::vector<std::string> temp(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i].fn == AggFunc::kAvg) continue;
    temp[i] = "dm" + std::to_string(i);
    outer.push_back(
        {ReaggOf(items[i].fn), Expr::Column(items[i].out_name), temp[i]});
  }
  PlanPtr reagg = PlanNode::Aggregate(merged, groups, std::move(outer));

  // Restore the original output layout and names.
  std::vector<ProjItem> proj;
  for (const std::string& g : groups) {
    proj.push_back({Expr::Column(g), g});
  }
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i].fn != AggFunc::kAvg) {
      proj.push_back({Expr::Column(temp[i]), items[i].out_name});
      continue;
    }
    const std::string key = items[i].arg->Key(nullptr);
    int js = FindAgg(items, AggFunc::kSum, key);
    int jc = FindAgg(items, AggFunc::kCount, key);
    RDB_CHECK_MSG(js >= 0 && jc >= 0, "avg without sum/count partials");
    proj.push_back(
        {Expr::Arith(ArithOp::kDiv,
                     Expr::Arith(ArithOp::kMul, Expr::Column(temp[js]),
                                 Expr::Literal(1.0)),
                     Expr::Column(temp[jc])),
         items[i].out_name});
  }
  return PlanNode::Project(reagg, std::move(proj));
}

}  // namespace recycledb
