#include "expr/range.h"

#include <map>
#include <variant>

namespace recycledb {

namespace {

/// Classifies `conjunct` as a range comparison between one column and one
/// literal. Normalizes `lit op col` to the column-first form.
bool AsRangeConjunct(const ExprPtr& conjunct, std::string* column,
                     bool* is_lower, RangeBound* bound) {
  if (conjunct->kind() != ExprKind::kCompare) return false;
  CompareOp op = conjunct->compare_op();
  if (op == CompareOp::kEq || op == CompareOp::kNe) return false;
  const ExprPtr& l = conjunct->children()[0];
  const ExprPtr& r = conjunct->children()[1];
  const Expr* col = nullptr;
  const Expr* lit = nullptr;
  bool flipped = false;
  if (l->kind() == ExprKind::kColumnRef && r->kind() == ExprKind::kLiteral) {
    col = l.get();
    lit = r.get();
  } else if (l->kind() == ExprKind::kLiteral &&
             r->kind() == ExprKind::kColumnRef) {
    col = r.get();
    lit = l.get();
    flipped = true;  // `lit op col` reads as `col op' lit` with op mirrored
  } else {
    return false;
  }
  if (std::holds_alternative<std::monostate>(lit->literal()) ||
      std::holds_alternative<bool>(lit->literal())) {
    return false;  // no ordering worth stitching on
  }
  if (flipped) {
    switch (op) {
      case CompareOp::kLt: op = CompareOp::kGt; break;
      case CompareOp::kLe: op = CompareOp::kGe; break;
      case CompareOp::kGt: op = CompareOp::kLt; break;
      case CompareOp::kGe: op = CompareOp::kLe; break;
      default: return false;
    }
  }
  *column = col->column_name();
  bound->unbounded = false;
  bound->value = lit->literal();
  bound->inclusive = op == CompareOp::kLe || op == CompareOp::kGe;
  *is_lower = op == CompareOp::kGt || op == CompareOp::kGe;
  return true;
}

}  // namespace

std::vector<RangeSpec> ExtractRangeSpecs(const ExprPtr& pred,
                                         const Schema* input) {
  std::vector<RangeSpec> out;
  if (pred == nullptr) return out;
  std::vector<ExprPtr> conjuncts = SplitConjuncts(pred);

  // Pass 1: fold each column's range conjuncts into one interval and
  // remember which conjunct positions contributed to which column.
  struct PerColumn {
    ColumnInterval range;
    std::vector<size_t> positions;
  };
  std::map<std::string, PerColumn> ranged;
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    std::string column;
    bool is_lower = false;
    RangeBound bound;
    if (!AsRangeConjunct(conjuncts[i], &column, &is_lower, &bound)) continue;
    PerColumn& pc = ranged[column];
    if (is_lower) {
      pc.range.lo = TighterLo(pc.range.lo, bound);
    } else {
      pc.range.hi = TighterHi(pc.range.hi, bound);
    }
    pc.positions.push_back(i);
  }

  // Pass 2: one spec per ranged column; everything else is "others".
  for (auto& [column, pc] : ranged) {
    if (IntervalEmpty(pc.range)) continue;  // contradictory predicate
    RangeSpec spec;
    spec.column = column;
    if (input != nullptr) spec.ordinal = input->IndexOfChecked(column);
    spec.range = pc.range;
    std::set<size_t> mine(pc.positions.begin(), pc.positions.end());
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (mine.count(i) > 0) continue;
      spec.others.push_back(conjuncts[i]);
      spec.other_keys.insert(conjuncts[i]->Key(input));
    }
    out.push_back(std::move(spec));
  }
  return out;
}

}  // namespace recycledb
