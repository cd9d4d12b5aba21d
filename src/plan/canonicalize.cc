#include "plan/canonicalize.h"

#include <algorithm>
#include <optional>

#include "common/interval.h"
#include "common/macros.h"
#include "expr/range.h"

namespace recycledb {

namespace {

// ---------------------------------------------------------------------------
// Expression helpers
// ---------------------------------------------------------------------------

bool IsLiteral(const ExprPtr& e) { return e->kind() == ExprKind::kLiteral; }

bool IsBoolLiteral(const ExprPtr& e, bool value) {
  return IsLiteral(e) && std::holds_alternative<bool>(e->literal()) &&
         std::get<bool>(e->literal()) == value;
}

ExprPtr BoolLiteral(bool value) { return Expr::Literal(value); }

CompareOp NegateOp(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return CompareOp::kNe;
    case CompareOp::kNe:
      return CompareOp::kEq;
    case CompareOp::kLt:
      return CompareOp::kGe;
    case CompareOp::kLe:
      return CompareOp::kGt;
    case CompareOp::kGt:
      return CompareOp::kLe;
    case CompareOp::kGe:
      return CompareOp::kLt;
  }
  RDB_UNREACHABLE("bad compare op");
}

/// Constant-folds a comparison of two literals under the value order, as
/// Eval compares. Returns nullptr when the operands are not comparable
/// (NULL involved, or string vs non-string — validation rejects those).
ExprPtr FoldCompare(CompareOp op, const Datum& a, const Datum& b) {
  if (a.index() == 0 || b.index() == 0) return nullptr;
  if ((a.index() == 5) != (b.index() == 5)) return nullptr;
  return BoolLiteral(CompareHolds(op, DatumCompare(a, b)));
}

/// Constant-folds an arithmetic node over two literals with Eval's exact
/// type promotion (double > int64 > int32) and division-by-zero-yields-0
/// rule. Returns nullptr for non-numeric operands.
ExprPtr FoldArith(ArithOp op, const Datum& a, const Datum& b) {
  TypeId lt = DatumType(a), rt = DatumType(b);
  if (!IsNumeric(lt) || !IsNumeric(rt)) return nullptr;
  if (lt == TypeId::kDouble || rt == TypeId::kDouble) {
    double x = DatumAsDouble(a), y = DatumAsDouble(b), r = 0;
    switch (op) {
      case ArithOp::kAdd:
        r = x + y;
        break;
      case ArithOp::kSub:
        r = x - y;
        break;
      case ArithOp::kMul:
        r = x * y;
        break;
      case ArithOp::kDiv:
        r = y == 0 ? 0 : x / y;
        break;
    }
    return Expr::Literal(r);
  }
  if (lt == TypeId::kInt64 || rt == TypeId::kInt64) {
    int64_t x = DatumAsInt64(a), y = DatumAsInt64(b), r = 0;
    switch (op) {
      case ArithOp::kAdd:
        r = static_cast<int64_t>(static_cast<uint64_t>(x) +
                                 static_cast<uint64_t>(y));
        break;
      case ArithOp::kSub:
        r = static_cast<int64_t>(static_cast<uint64_t>(x) -
                                 static_cast<uint64_t>(y));
        break;
      case ArithOp::kMul:
        r = static_cast<int64_t>(static_cast<uint64_t>(x) *
                                 static_cast<uint64_t>(y));
        break;
      case ArithOp::kDiv:
        // INT64_MIN / -1 wraps to INT64_MIN on the hardware Eval runs on.
        r = y == 0 ? 0
                   : (x == INT64_MIN && y == -1 ? INT64_MIN : x / y);
        break;
    }
    return Expr::Literal(r);
  }
  // int32: Eval truncates operands to int32 and operates in int32; fold
  // through int64 so overflow wraps deterministically instead of being UB
  // in our own code.
  int32_t x = static_cast<int32_t>(DatumAsInt64(a));
  int32_t y = static_cast<int32_t>(DatumAsInt64(b));
  int64_t wide = 0;
  switch (op) {
    case ArithOp::kAdd:
      wide = static_cast<int64_t>(x) + y;
      break;
    case ArithOp::kSub:
      wide = static_cast<int64_t>(x) - y;
      break;
    case ArithOp::kMul:
      wide = static_cast<int64_t>(x) * y;
      break;
    case ArithOp::kDiv:
      wide = y == 0 ? 0 : static_cast<int64_t>(x) / y;
      break;
  }
  return Expr::Literal(static_cast<int32_t>(wide));
}

/// Flattens a same-operator AND/OR subtree into its operand list.
void FlattenLogical(LogicalOp op, const ExprPtr& e,
                    std::vector<ExprPtr>* out) {
  if (e->kind() == ExprKind::kLogical && e->logical_op() == op) {
    for (const ExprPtr& c : e->children()) FlattenLogical(op, c, out);
    return;
  }
  out->push_back(e);
}

ExprPtr RangeConjunct(const std::string& col, CompareOp op, Datum value) {
  return Expr::Compare(op, Expr::Column(col), Expr::Literal(std::move(value)));
}

ExprPtr BuildLogicalChain(LogicalOp op, const std::vector<ExprPtr>& parts) {
  ExprPtr acc = parts[0];
  for (size_t i = 1; i < parts.size(); ++i) {
    acc = op == LogicalOp::kAnd ? Expr::And(acc, parts[i])
                                : Expr::Or(acc, parts[i]);
  }
  return acc;
}

ExprPtr CanonicalizeLogicalChain(LogicalOp op, const ExprPtr& e);

ExprPtr CanonicalizeExprImpl(const ExprPtr& e) {
  switch (e->kind()) {
    case ExprKind::kColumnRef:
    case ExprKind::kLiteral:
    case ExprKind::kParam:
      return e;
    case ExprKind::kCompare: {
      ExprPtr l = CanonicalizeExpr(e->children()[0]);
      ExprPtr r = CanonicalizeExpr(e->children()[1]);
      CompareOp op = e->compare_op();
      if (IsLiteral(l) && IsLiteral(r)) {
        ExprPtr folded = FoldCompare(op, l->literal(), r->literal());
        if (folded != nullptr) return folded;
      }
      if (IsLiteral(l) && !IsLiteral(r)) {
        // `5 < x` normalizes to `x > 5`.
        return Expr::Compare(MirrorOp(op), r, l);
      }
      if (l == e->children()[0] && r == e->children()[1]) return e;
      return Expr::Compare(op, std::move(l), std::move(r));
    }
    case ExprKind::kLogical: {
      if (e->logical_op() == LogicalOp::kNot) {
        ExprPtr c = CanonicalizeExpr(e->children()[0]);
        if (IsLiteral(c) && std::holds_alternative<bool>(c->literal())) {
          return BoolLiteral(!std::get<bool>(c->literal()));
        }
        if (c->kind() == ExprKind::kCompare) {
          // NULL-free engine under a total value order: NOT(a < b) is
          // exactly a >= b.
          return CanonicalizeExpr(Expr::Compare(NegateOp(c->compare_op()),
                                                c->children()[0],
                                                c->children()[1]));
        }
        if (c->kind() == ExprKind::kLogical &&
            c->logical_op() == LogicalOp::kNot) {
          return c->children()[0];
        }
        if (c->kind() == ExprKind::kLike) {
          if (c->like_kind() == LikeKind::kContains) {
            return Expr::Like(LikeKind::kNotContains, c->children()[0],
                              c->like_pattern());
          }
          if (c->like_kind() == LikeKind::kNotContains) {
            return Expr::Like(LikeKind::kContains, c->children()[0],
                              c->like_pattern());
          }
        }
        if (c == e->children()[0]) return e;
        return Expr::Not(std::move(c));
      }
      return CanonicalizeLogicalChain(e->logical_op(), e);
    }
    case ExprKind::kArith: {
      ExprPtr l = CanonicalizeExpr(e->children()[0]);
      ExprPtr r = CanonicalizeExpr(e->children()[1]);
      if (IsLiteral(l) && IsLiteral(r)) {
        ExprPtr folded = FoldArith(e->arith_op(), l->literal(), r->literal());
        if (folded != nullptr) return folded;
      }
      if (l == e->children()[0] && r == e->children()[1]) return e;
      return Expr::Arith(e->arith_op(), std::move(l), std::move(r));
    }
    case ExprKind::kFunc: {
      std::vector<ExprPtr> kids;
      bool changed = false;
      for (const ExprPtr& c : e->children()) {
        kids.push_back(CanonicalizeExpr(c));
        changed = changed || kids.back() != c;
      }
      if (!changed) return e;
      return Expr::Func(e->func_name(), std::move(kids));
    }
    case ExprKind::kCase: {
      // Branch types promote jointly (int32 THEN with int64 ELSE yields
      // int64), so folding a constant condition down to one branch could
      // change the output column type; only the children canonicalize.
      ExprPtr c0 = CanonicalizeExpr(e->children()[0]);
      ExprPtr c1 = CanonicalizeExpr(e->children()[1]);
      ExprPtr c2 = CanonicalizeExpr(e->children()[2]);
      if (c0 == e->children()[0] && c1 == e->children()[1] &&
          c2 == e->children()[2]) {
        return e;
      }
      return Expr::Case(std::move(c0), std::move(c1), std::move(c2));
    }
    case ExprKind::kInList: {
      ExprPtr c = CanonicalizeExpr(e->children()[0]);
      // Membership is order-independent: sort and deduplicate the list.
      std::vector<Datum> values = e->in_values();
      std::stable_sort(values.begin(), values.end(),
                       [](const Datum& a, const Datum& b) {
                         bool sa = a.index() == 5, sb = b.index() == 5;
                         if (sa != sb) return !sa;  // mixed types: validation
                                                    // rejects; order stably
                         if (a.index() == 0 || b.index() == 0) return false;
                         return DatumCompare(a, b) < 0;
                       });
      values.erase(std::unique(values.begin(), values.end(),
                               [](const Datum& a, const Datum& b) {
                                 if ((a.index() == 5) != (b.index() == 5)) {
                                   return false;
                                 }
                                 if (a.index() == 0 || b.index() == 0) {
                                   return a.index() == b.index();
                                 }
                                 return DatumCompare(a, b) == 0;
                               }),
                   values.end());
      bool same = c == e->children()[0] && values.size() == e->in_values().size();
      for (size_t i = 0; same && i < values.size(); ++i) {
        same = values[i].index() == e->in_values()[i].index() &&
               DatumToKeyString(values[i]) ==
                   DatumToKeyString(e->in_values()[i]);
      }
      if (same) return e;
      return Expr::In(std::move(c), std::move(values));
    }
    case ExprKind::kLike: {
      ExprPtr c = CanonicalizeExpr(e->children()[0]);
      if (c == e->children()[0]) return e;
      return Expr::Like(e->like_kind(), std::move(c), e->like_pattern());
    }
  }
  RDB_UNREACHABLE("bad expr kind");
}

ExprPtr CanonicalizeLogicalChain(LogicalOp op, const ExprPtr& e) {
  const bool is_and = op == LogicalOp::kAnd;
  // Flatten the raw chain with an explicit stack (a parsed chain is as
  // deep as it is long) and canonicalize each operand once; an operand
  // that canonicalizes into the same operator contributes its operands.
  std::vector<ExprPtr> parts;
  std::vector<const ExprPtr*> stack;
  auto push_children = [&stack](const Expr& chain) {
    for (auto c = chain.children().rbegin(); c != chain.children().rend();
         ++c) {
      stack.push_back(&*c);
    }
  };
  push_children(*e);
  while (!stack.empty()) {
    const ExprPtr& cur = *stack.back();
    stack.pop_back();
    if (cur->kind() == ExprKind::kLogical && cur->logical_op() == op) {
      push_children(*cur);
    } else {
      FlattenLogical(op, CanonicalizeExpr(cur), &parts);
    }
  }
  std::vector<ExprPtr> kept;
  for (const ExprPtr& p : parts) {
    if (IsBoolLiteral(p, is_and)) continue;      // identity element
    if (IsBoolLiteral(p, !is_and)) {
      return BoolLiteral(!is_and);               // absorbing element
    }
    kept.push_back(p);
  }
  if (is_and) {
    // Merge per-column range conjuncts into one canonical interval:
    // `x > 1 AND x > 2` -> `x > 2`; `x >= 5 AND x <= 5` -> `x = 5`;
    // a contradictory interval collapses the conjunction to FALSE.
    std::vector<ColumnRange> ranges = FoldColumnRanges(kept, true);
    std::vector<char> folded(kept.size(), 0);
    std::vector<ExprPtr> rest;
    for (const ColumnRange& cr : ranges) {
      for (size_t i : cr.positions) folded[i] = 1;
    }
    for (size_t i = 0; i < kept.size(); ++i) {
      if (!folded[i]) rest.push_back(kept[i]);
    }
    for (const ColumnRange& cr : ranges) {
      const ColumnInterval& iv = cr.range;
      if (IntervalEmpty(iv)) return BoolLiteral(false);
      bool point = !iv.lo.unbounded && !iv.hi.unbounded &&
                   iv.lo.inclusive && iv.hi.inclusive &&
                   DatumCompare(iv.lo.value, iv.hi.value) == 0;
      if (point) {
        rest.push_back(RangeConjunct(cr.column, CompareOp::kEq, iv.lo.value));
        continue;
      }
      if (!iv.lo.unbounded) {
        rest.push_back(RangeConjunct(
            cr.column, iv.lo.inclusive ? CompareOp::kGe : CompareOp::kGt,
            iv.lo.value));
      }
      if (!iv.hi.unbounded) {
        rest.push_back(RangeConjunct(
            cr.column, iv.hi.inclusive ? CompareOp::kLe : CompareOp::kLt,
            iv.hi.value));
      }
    }
    kept = std::move(rest);
  }
  // Order deterministically by key, then deduplicate (equal keys are
  // equal expressions; the stable sort keeps the first of each).
  std::vector<std::pair<std::string, ExprPtr>> keyed;
  keyed.reserve(kept.size());
  for (const ExprPtr& p : kept) keyed.emplace_back(p->Key(nullptr), p);
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  keyed.erase(std::unique(keyed.begin(), keyed.end(),
                          [](const auto& a, const auto& b) {
                            return a.first == b.first;
                          }),
              keyed.end());
  if (keyed.empty()) return BoolLiteral(is_and);
  if (keyed.size() == 1) return keyed[0].second;
  std::vector<ExprPtr> ordered;
  for (auto& [k, p] : keyed) ordered.push_back(std::move(p));
  ExprPtr rebuilt = BuildLogicalChain(op, ordered);
  // Pointer stability: an already-canonical chain (same operands, same
  // order, left-deep) rebuilds to an identical key — return the original
  // so callers can detect "unchanged" by pointer.
  if (rebuilt->Key(nullptr) == e->Key(nullptr)) return e;
  return rebuilt;
}

// ---------------------------------------------------------------------------
// Plan helpers
// ---------------------------------------------------------------------------

/// Output column names of a canonical subtree, when they are statically
/// derivable without a catalog (function scans and joins return nullopt).
std::optional<std::vector<std::string>> OutputNames(const PlanNode& n) {
  switch (n.type()) {
    case OpType::kScan:
    case OpType::kCachedScan:
      return n.scan_columns();
    case OpType::kProject: {
      std::vector<std::string> names;
      for (const ProjItem& it : n.projections()) names.push_back(it.out_name);
      return names;
    }
    case OpType::kAggregate: {
      std::vector<std::string> names = n.group_by();
      for (const AggItem& a : n.aggregates()) names.push_back(a.out_name);
      return names;
    }
    case OpType::kSelect:
    case OpType::kOrderBy:
    case OpType::kTopN:
    case OpType::kLimit:
      return OutputNames(*n.children()[0]);
    default:
      return std::nullopt;
  }
}

bool AllColumnRefs(const std::vector<ProjItem>& items) {
  for (const ProjItem& it : items) {
    if (it.expr->kind() != ExprKind::kColumnRef) return false;
  }
  return true;
}

/// Builds the canonical form of Select(`base`, `pred`) where `base` is
/// already canonical and `pred` is already canonical. `reuse` (optional)
/// is the original node, returned unchanged when the rewrite is a no-op
/// so callers preserve sharing (and the template hash riding on it).
PlanPtr CanonicalSelect(PlanPtr base, ExprPtr pred, const PlanPtr& reuse) {
  // Merge a chain of Selects into one conjunction.
  std::vector<ExprPtr> preds{pred};
  while (base->type() == OpType::kSelect) {
    preds.push_back(base->predicate());
    base = base->children()[0];
  }
  ExprPtr combined =
      preds.size() == 1 ? pred : CanonicalizeExpr(AndAll(preds));
  if (IsBoolLiteral(combined, true)) return base;

  if (!IsBoolLiteral(combined, false)) {
    // Push below a stable full sort: filtering preserves the relative
    // order of surviving rows, so sort-then-filter and filter-then-sort
    // are bit-identical (the sort tie-breaks by input row index).
    if (base->type() == OpType::kOrderBy) {
      return base->WithChildren(
          {CanonicalSelect(base->children()[0], combined, nullptr)});
    }
    // Push below a projection when every referenced column is a plain
    // pass-through (rename) of an input column.
    if (base->type() == OpType::kProject) {
      NameMap rename;
      bool ok = true;
      std::set<std::string> cols;
      combined->CollectColumns(&cols);
      for (const std::string& c : cols) {
        bool found = false;
        for (const ProjItem& it : base->projections()) {
          if (it.out_name != c) continue;
          found = true;
          if (it.expr->kind() == ExprKind::kColumnRef) {
            rename[c] = it.expr->column_name();
          } else {
            ok = false;
          }
          break;
        }
        ok = ok && found;
      }
      if (ok) {
        ExprPtr pushed = CanonicalizeExpr(combined->Rename(rename));
        return base->WithChildren(
            {CanonicalSelect(base->children()[0], pushed, nullptr)});
      }
    }
  }

  if (reuse != nullptr && reuse->children()[0] == base &&
      reuse->predicate() == combined) {
    return reuse;
  }
  if (reuse != nullptr) {
    return reuse->WithPredicate(combined)->WithChildren({std::move(base)});
  }
  return PlanNode::Select(std::move(base), std::move(combined));
}

PlanPtr CanonicalizeNode(PlanPtr node) {
  switch (node->type()) {
    case OpType::kSelect:
      return CanonicalSelect(node->children()[0],
                             CanonicalizeExpr(node->predicate()), node);
    case OpType::kProject: {
      std::vector<ProjItem> items = node->projections();
      bool changed = false;
      for (ProjItem& it : items) {
        ExprPtr e = CanonicalizeExpr(it.expr);
        changed = changed || e != it.expr;
        it.expr = std::move(e);
      }
      PlanPtr cur = changed ? node->WithProjections(items) : node;
      // Compose rename chains: Project over a columns-only Project
      // collapses into one projection over the grandchild.
      while (cur->children()[0]->type() == OpType::kProject &&
             AllColumnRefs(cur->children()[0]->projections())) {
        const PlanPtr& inner = cur->children()[0];
        NameMap rename;
        for (const ProjItem& it : inner->projections()) {
          rename[it.out_name] = it.expr->column_name();
        }
        std::vector<ProjItem> composed;
        for (const ProjItem& it : cur->projections()) {
          composed.push_back(
              {CanonicalizeExpr(it.expr->Rename(rename)), it.out_name});
        }
        cur = cur->WithProjections(composed)
                  ->WithChildren({inner->children()[0]});
      }
      // Identity projection: same names, same order, plain columns.
      std::optional<std::vector<std::string>> names =
          OutputNames(*cur->children()[0]);
      if (names.has_value() && AllColumnRefs(cur->projections()) &&
          cur->projections().size() == names->size()) {
        bool identity = true;
        for (size_t i = 0; identity && i < names->size(); ++i) {
          const ProjItem& it = cur->projections()[i];
          identity = it.out_name == (*names)[i] &&
                     it.expr->column_name() == (*names)[i];
        }
        if (identity) return cur->children()[0];
      }
      return cur;
    }
    case OpType::kLimit: {
      // Limit(Limit(x, n), m) -> Limit(x, min(n, m)).
      if (node->children()[0]->type() == OpType::kLimit) {
        const PlanPtr& inner = node->children()[0];
        return node->WithLimit(std::min(node->limit(), inner->limit()))
            ->WithChildren({inner->children()[0]});
      }
      return node;
    }
    default:
      return node;
  }
}

}  // namespace

ExprPtr CanonicalizeExpr(const ExprPtr& expr) {
  return CanonicalizeExprImpl(expr);
}

PlanPtr CanonicalizePlan(const PlanPtr& plan) {
  std::vector<PlanPtr> kids;
  bool changed = false;
  for (const PlanPtr& c : plan->children()) {
    kids.push_back(CanonicalizePlan(c));
    changed = changed || kids.back() != c;
  }
  PlanPtr node = changed ? plan->WithChildren(std::move(kids)) : plan;
  return CanonicalizeNode(std::move(node));
}

PlanPtr CanonicalizeKeepingTemplate(const PlanPtr& plan) {
  PlanPtr canon = CanonicalizePlan(plan);
  if (canon != plan && canon->template_hash() != plan->template_hash()) {
    canon = canon->WithChildren(std::vector<PlanPtr>(canon->children()));
    canon->set_template_hash(plan->template_hash());
  }
  return canon;
}

}  // namespace recycledb
