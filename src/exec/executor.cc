#include "exec/executor.h"

#include "common/macros.h"
#include "common/stopwatch.h"
#include "exec/operators.h"
#include "expr/range.h"

namespace recycledb {

namespace {

/// True when a zone of `column_type` can be compared against both bounds
/// of `range` (numeric vs numeric, string vs string). Guards DatumCompare
/// from mixed-kind comparisons on ill-typed predicates, which fail later
/// in expression evaluation with a proper error.
bool HintComparable(TypeId column_type, const ColumnInterval& range) {
  auto ok = [column_type](const RangeBound& b) {
    if (b.unbounded) return true;
    TypeId vt = DatumType(b.value);
    if (column_type == TypeId::kString) return vt == TypeId::kString;
    return IsNumeric(column_type) && IsNumeric(vt);
  };
  return ok(range.lo) && ok(range.hi);
}

/// Derives zone-map prune hints for a Select directly over a (cached)
/// scan: one hint per range-conjunct column that exists in the scan's
/// output. Returns an empty vector when nothing is prunable.
std::vector<ScanOp::PruneHint> DerivePruneHints(const PlanNode& select) {
  std::vector<ScanOp::PruneHint> hints;
  const Schema& child_schema = select.child()->output_schema();
  for (const RangeSpec& spec : ExtractRangeSpecs(select.predicate(), nullptr)) {
    int pos = child_schema.IndexOf(spec.column);
    if (pos < 0) continue;
    if (!HintComparable(child_schema.field(pos).type, spec.range)) continue;
    hints.push_back({pos, spec.range});
  }
  return hints;
}

/// For a result that shares a cache entry's columns: freezes them, so
/// appending to the result aborts as it does on any table a scan has
/// sliced.
void FreezeColumns(const Table& table) {
  for (int i = 0; i < table.num_columns(); ++i) table.column(i)->Freeze();
}

}  // namespace

OperatorPtr Executor::BuildOperator(
    const PlanPtr& plan,
    const std::map<const PlanNode*, StoreRequest>* store_requests,
    std::map<const PlanNode*, Operator*>* node_ops, const TablePins* pins) {
  RDB_CHECK_MSG(plan->bound(), "plan must be bound before execution");
  OperatorPtr op;
  switch (plan->type()) {
    case OpType::kScan: {
      TablePtr table;
      if (pins != nullptr) {
        auto it = pins->find(plan->table_name());
        if (it != pins->end()) table = it->second;
      }
      if (table == nullptr) table = catalog_->GetTable(plan->table_name());
      RDB_CHECK(table != nullptr);
      std::vector<int> idx;
      for (const auto& c : plan->scan_columns()) {
        idx.push_back(table->schema().IndexOfChecked(c));
      }
      auto scan = std::make_unique<ScanOp>(plan->output_schema(), table,
                                           std::move(idx));
      if (plan->has_scan_range()) {
        scan->SetRowWindow(plan->scan_begin(), plan->scan_end());
      }
      op = std::move(scan);
      break;
    }
    case OpType::kCachedScan: {
      const TablePtr& table = plan->cached_result();
      std::vector<int> idx;
      for (int i = 0; i < table->schema().num_fields(); ++i) idx.push_back(i);
      op = std::make_unique<ScanOp>(plan->output_schema(), table,
                                    std::move(idx));
      break;
    }
    case OpType::kFunctionScan: {
      const TableFunction* fn =
          TableFunctionRegistry::Global().Get(plan->function_name());
      RDB_CHECK(fn != nullptr);
      op = std::make_unique<FunctionScanOp>(plan->output_schema(), fn,
                                            plan->function_args(), catalog_);
      break;
    }
    case OpType::kSelect: {
      auto child = BuildOperator(plan->child(), store_requests, node_ops, pins);
      // Push range conjuncts down as zone-map prune hints when the child
      // is a plain scan. Scans are never cacheable (CacheableType), so
      // `child` is the raw ScanOp, never a StoreOp wrapper.
      const OpType child_type = plan->child()->type();
      if (zone_map_pruning_ &&
          (child_type == OpType::kScan || child_type == OpType::kCachedScan) &&
          (store_requests == nullptr ||
           store_requests->find(plan->child().get()) ==
               store_requests->end())) {
        auto hints = DerivePruneHints(*plan);
        if (!hints.empty()) {
          static_cast<ScanOp*>(child.get())->SetPruneHints(std::move(hints));
        }
      }
      op = std::make_unique<FilterOp>(plan->output_schema(), std::move(child),
                                      plan->predicate());
      break;
    }
    case OpType::kProject: {
      auto child = BuildOperator(plan->child(), store_requests, node_ops, pins);
      op = std::make_unique<ProjectOp>(plan->output_schema(), std::move(child),
                                       plan->projections());
      break;
    }
    case OpType::kAggregate: {
      auto child = BuildOperator(plan->child(), store_requests, node_ops, pins);
      op = std::make_unique<HashAggOp>(plan->output_schema(), std::move(child),
                                       plan->group_by(), plan->aggregates());
      break;
    }
    case OpType::kHashJoin: {
      auto left = BuildOperator(plan->child(0), store_requests, node_ops, pins);
      auto right = BuildOperator(plan->child(1), store_requests, node_ops, pins);
      op = std::make_unique<HashJoinOp>(plan->output_schema(), std::move(left),
                                        std::move(right), plan->join_kind(),
                                        plan->left_keys(), plan->right_keys());
      break;
    }
    case OpType::kOrderBy: {
      auto child = BuildOperator(plan->child(), store_requests, node_ops, pins);
      op = std::make_unique<SortOp>(plan->output_schema(), std::move(child),
                                    plan->sort_keys());
      break;
    }
    case OpType::kTopN: {
      auto child = BuildOperator(plan->child(), store_requests, node_ops, pins);
      op = std::make_unique<TopNOp>(plan->output_schema(), std::move(child),
                                    plan->sort_keys(), plan->limit());
      break;
    }
    case OpType::kLimit: {
      auto child = BuildOperator(plan->child(), store_requests, node_ops, pins);
      op = std::make_unique<LimitOp>(plan->output_schema(), std::move(child),
                                     plan->limit());
      break;
    }
    case OpType::kUnionAll: {
      std::vector<OperatorPtr> children;
      for (const auto& c : plan->children()) {
        children.push_back(BuildOperator(c, store_requests, node_ops, pins));
      }
      op = std::make_unique<UnionAllOp>(plan->output_schema(),
                                        std::move(children));
      break;
    }
  }
  if (node_ops != nullptr) (*node_ops)[plan.get()] = op.get();

  if (store_requests != nullptr) {
    auto it = store_requests->find(plan.get());
    if (it != store_requests->end()) {
      op = std::make_unique<StoreOp>(std::move(op), it->second);
    }
  }
  return op;
}

ExecResult Executor::Run(
    const PlanPtr& plan,
    const std::map<const PlanNode*, StoreRequest>* store_requests,
    const TablePins* pins) {
  if (plan->type() == OpType::kCachedScan &&
      (store_requests == nullptr ||
       store_requests->find(plan.get()) == store_requests->end())) {
    return RunCachedRoot(plan);
  }
  std::map<const PlanNode*, Operator*> node_ops;
  OperatorPtr root = BuildOperator(plan, store_requests, &node_ops, pins);
  // BuildOperator wraps the root in a StoreOp exactly when it has a
  // store request.
  const StoreOp* root_store =
      store_requests != nullptr && store_requests->count(plan.get()) > 0
          ? static_cast<const StoreOp*>(root.get())
          : nullptr;

  ExecResult result;
  Stopwatch sw;
  root->Open();
  Batch batch;
  bool more = root->NextTimed(&batch);
  // A root store that materializes builds the result itself. The store
  // decides before its first batch, so this holds for the whole run.
  const bool stored = root_store != nullptr && root_store->materializing();
  if (!stored) result.table = MakeTable(root->output_schema());
  for (; more; more = root->NextTimed(&batch)) {
    if (!stored) result.table->AppendBatch(batch);
  }
  root->Close();
  if (stored) {
    result.table = root_store->result();
    RDB_CHECK(result.table != nullptr);
    FreezeColumns(*result.table);
  }
  result.total_ms = sw.ElapsedMs();

  for (const auto& [node, op] : node_ops) {
    NodeRuntime rt;
    rt.stats = op->stats();
    rt.inclusive_ms = op->stats().inclusive_ms;
    rt.rows_out = op->stats().rows_out;
    result.blocks_scanned += op->stats().blocks_scanned;
    result.blocks_pruned += op->stats().blocks_pruned;
    result.node_runtime[node] = rt;
  }
  return result;
}

ExecResult Executor::RunCachedRoot(const PlanPtr& plan) {
  RDB_CHECK_MSG(plan->bound(), "plan must be bound before execution");
  ExecResult result;
  Stopwatch sw;
  const TablePtr& cached = plan->cached_result();
  FreezeColumns(*cached);
  result.table = cached->RenameColumns(plan->output_schema().Names());
  result.total_ms = sw.ElapsedMs();
  // What ScanOp would report for the same table: one batch per 1024-row
  // block, no pruning (a root scan has no parent filter to hint it).
  const int64_t rows = result.table->num_rows();
  NodeRuntime rt;
  rt.rows_out = rows;
  rt.inclusive_ms = result.total_ms;
  rt.stats.rows_out = rows;
  rt.stats.batches_out = (rows + kZoneMapBlockRows - 1) / kZoneMapBlockRows;
  rt.stats.blocks_scanned = rt.stats.batches_out;
  rt.stats.inclusive_ms = result.total_ms;
  result.blocks_scanned = rt.stats.blocks_scanned;
  result.node_runtime[plan.get()] = rt;
  return result;
}

}  // namespace recycledb
