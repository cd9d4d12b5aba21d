#include "recycler/delta.h"

#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"

namespace recycledb {

namespace {

/// Decomposability of one aggregate list (see DeltaEligibleNode): every
/// item re-aggregates from the list's own partials. A global MIN/MAX over
/// an empty delta group would merge the operator's pad row into the
/// result; grouped aggregates emit no row for an empty delta, so only the
/// global form is excluded.
bool AggListEligible(const std::vector<std::string>& group_by,
                     const std::vector<AggItem>& items) {
  for (const AggItem& item : items) {
    if (group_by.empty() &&
        (item.fn == AggFunc::kMin || item.fn == AggFunc::kMax)) {
      return false;
    }
  }
  return Derivable(items, nullptr, items, nullptr);
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

  // Re-aggregate the partials per group: the union carries each item's
  // partial state under its output name.
  std::optional<Reaggregation> r =
      Reaggregate(items, nullptr, items, nullptr, groups, "dm", {});
  RDB_CHECK_MSG(r.has_value(), "aggregate merge of a non-decomposable list");
  return PlanNode::Project(
      PlanNode::Aggregate(merged, groups, std::move(r->outer)),
      std::move(r->final));
}

}  // namespace recycledb
