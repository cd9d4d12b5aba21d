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

CompareOp MirrorOp(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    default:
      return op;  // = and != are symmetric
  }
}

std::vector<ColumnRange> FoldColumnRanges(const std::vector<ExprPtr>& conjuncts,
                                          bool with_equalities) {
  struct Fold {
    ColumnRange cr;
    bool is_string = false;
    bool mixed = false;
  };
  std::map<std::string, Fold> folds;
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    const Expr& e = *conjuncts[i];
    if (e.kind() != ExprKind::kCompare) continue;
    const Expr* col = e.children()[0].get();
    const Expr* lit = e.children()[1].get();
    CompareOp op = e.compare_op();
    if (col->kind() == ExprKind::kLiteral) {
      std::swap(col, lit);
      op = MirrorOp(op);
    }
    if (col->kind() != ExprKind::kColumnRef ||
        lit->kind() != ExprKind::kLiteral || lit->literal().index() < 2 ||
        op == CompareOp::kNe || (op == CompareOp::kEq && !with_equalities)) {
      continue;
    }
    const Datum& value = lit->literal();
    Fold& f = folds[col->column_name()];
    const bool is_string = std::holds_alternative<std::string>(value);
    if (f.cr.positions.empty()) {
      f.is_string = is_string;
    } else if (f.is_string != is_string) {
      f.mixed = true;
    }
    f.cr.positions.push_back(i);
    if (f.mixed) continue;
    // The op-to-bounds mapping: > and >= bound below, < and <= above, =
    // both; the bound is closed for >=, <= and =.
    const RangeBound bound{false, value,
                           op != CompareOp::kLt && op != CompareOp::kGt};
    if (op != CompareOp::kLt && op != CompareOp::kLe) {
      f.cr.range.lo = TighterLo(f.cr.range.lo, bound);
    }
    if (op != CompareOp::kGt && op != CompareOp::kGe) {
      f.cr.range.hi = TighterHi(f.cr.range.hi, bound);
    }
  }
  std::vector<ColumnRange> out;
  for (auto& [column, f] : folds) {
    if (f.mixed) continue;
    f.cr.column = column;
    out.push_back(std::move(f.cr));
  }
  return out;
}

namespace {

/// ExtractRangeSpecs over `conjuncts`, whose keys are `keys` or, when it
/// is null, taken here once a spec needs them.
std::vector<RangeSpec> Extract(const std::vector<ExprPtr>& conjuncts,
                               const std::vector<std::string>* keys,
                               const Schema* input) {
  std::vector<RangeSpec> out;
  // One spec per ranged column; everything else is "others".
  std::vector<std::string> own_keys;
  for (ColumnRange& pc : FoldColumnRanges(conjuncts, false)) {
    if (IntervalEmpty(pc.range)) continue;  // contradictory predicate
    if (keys == nullptr) {
      for (const ExprPtr& c : conjuncts) own_keys.push_back(c->Key(input));
      keys = &own_keys;
    }
    RangeSpec spec;
    spec.column = std::move(pc.column);
    if (input != nullptr) spec.ordinal = input->IndexOfChecked(spec.column);
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
