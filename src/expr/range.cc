#include "expr/range.h"

#include <algorithm>
#include <map>
#include <variant>

#include "common/hash.h"

namespace recycledb {

ConjunctSet::ConjunctSet(std::vector<std::string> keys)
    : keys_(std::move(keys)) {
  std::sort(keys_.begin(), keys_.end());
  keys_.erase(std::unique(keys_.begin(), keys_.end()), keys_.end());
  for (const std::string& k : keys_) sig_ |= Bit(k);
}

void ConjunctSet::Insert(std::string key) {
  auto pos = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (pos != keys_.end() && *pos == key) return;
  sig_ |= Bit(key);
  keys_.insert(pos, std::move(key));
}

bool ConjunctSet::Contains(std::string_view key) const {
  return std::binary_search(keys_.begin(), keys_.end(), key);
}

uint64_t ConjunctSet::Bit(std::string_view key) {
  return uint64_t{1} << (HashMix(HashString(key)) & 63);
}

KeyedConjuncts KeyConjuncts(const ExprPtr& pred, const Schema* input) {
  KeyedConjuncts out;
  if (pred == nullptr) return out;
  out.conjuncts = SplitConjuncts(pred);
  out.keys.reserve(out.conjuncts.size());
  for (const ExprPtr& c : out.conjuncts) out.keys.push_back(c->Key(input));
  return out;
}

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

/// ExtractRangeSpecs over `conjuncts`, whose keys are `keys` or, when it
/// is null, taken here once a spec needs them.
std::vector<RangeSpec> Extract(const std::vector<ExprPtr>& conjuncts,
                               const std::vector<std::string>* keys,
                               const Schema* input) {
  std::vector<RangeSpec> out;

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
  std::vector<std::string> own_keys;
  for (auto& [column, pc] : ranged) {
    if (IntervalEmpty(pc.range)) continue;  // contradictory predicate
    if (keys == nullptr) {
      for (const ExprPtr& c : conjuncts) own_keys.push_back(c->Key(input));
      keys = &own_keys;
    }
    RangeSpec spec;
    spec.column = column;
    if (input != nullptr) spec.ordinal = input->IndexOfChecked(column);
    spec.range = pc.range;
    std::vector<std::string> other_keys;
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (std::count(pc.positions.begin(), pc.positions.end(), i) > 0) {
        continue;
      }
      spec.others.push_back(conjuncts[i]);
      other_keys.push_back((*keys)[i]);
    }
    spec.other_keys = ConjunctSet(std::move(other_keys));
    out.push_back(std::move(spec));
  }
  return out;
}

}  // namespace

std::vector<RangeSpec> ExtractRangeSpecs(const KeyedConjuncts& pred,
                                         const Schema* input) {
  return Extract(pred.conjuncts, &pred.keys, input);
}

std::vector<RangeSpec> ExtractRangeSpecs(const ExprPtr& pred,
                                         const Schema* input) {
  if (pred == nullptr) return {};
  return Extract(SplitConjuncts(pred), nullptr, input);
}

}  // namespace recycledb
