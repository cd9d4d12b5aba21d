#include "expr/aggregate.h"

#include "common/macros.h"

namespace recycledb {

const char* AggFuncName(AggFunc fn) {
  switch (fn) {
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kCount:
      return "count";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
    case AggFunc::kAvg:
      return "avg";
  }
  return "?";
}

void AggItem::AppendKey(std::string* out, const Schema* input) const {
  // out_name is a *new* name assigned by the node; it is not part of the
  // parameter key (a parent reads the column by its ordinal).
  out->push_back(static_cast<char>(fn));
  arg->AppendKey(out, input);
}

TypeId AggResultType(AggFunc fn, TypeId input) {
  switch (fn) {
    case AggFunc::kSum:
      return input == TypeId::kDouble ? TypeId::kDouble : TypeId::kInt64;
    case AggFunc::kCount:
      return TypeId::kInt64;
    case AggFunc::kAvg:
      return TypeId::kDouble;
    case AggFunc::kMin:
    case AggFunc::kMax:
      return input;
  }
  RDB_UNREACHABLE("bad agg func");
}

int FindAggregate(const std::vector<AggItem>& items, const Schema* input,
                  AggFunc fn, const std::string& arg_key) {
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i].fn == fn && items[i].arg->Key(input) == arg_key) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

std::vector<AggItem> DecomposeAggregate(const AggItem& item,
                                        const std::string& prefix,
                                        std::set<std::string>* taken) {
  if (item.fn != AggFunc::kAvg) {
    return {{item.fn, item.arg, FreshName(prefix + "_p0", taken)}};
  }
  return {{AggFunc::kSum, item.arg, FreshName(prefix + "_psum", taken)},
          {AggFunc::kCount, item.arg, FreshName(prefix + "_pcnt", taken)}};
}

namespace {

/// The rule's lookup for one wanted item: the partial it reads (its own
/// function's; for AVG the SUM's) and, for AVG only, the COUNT's, each
/// of the same argument key; indices into the partials, -1 when absent.
struct Sources {
  int first = -1;
  int count = -1;

  bool found(AggFunc fn) const {
    return first >= 0 && (fn != AggFunc::kAvg || count >= 0);
  }
};

Sources FindSources(const AggItem& w, const Schema* wanted_input,
                    const std::vector<AggItem>& partials,
                    const Schema* partial_input) {
  const std::string key = w.arg->Key(wanted_input);
  const bool avg = w.fn == AggFunc::kAvg;
  Sources s;
  s.first = FindAggregate(partials, partial_input,
                          avg ? AggFunc::kSum : w.fn, key);
  if (avg) {
    s.count = FindAggregate(partials, partial_input, AggFunc::kCount, key);
  }
  return s;
}

}  // namespace

bool Derivable(const std::vector<AggItem>& wanted, const Schema* wanted_input,
               const std::vector<AggItem>& partials,
               const Schema* partial_input) {
  for (const AggItem& w : wanted) {
    if (!FindSources(w, wanted_input, partials, partial_input).found(w.fn)) {
      return false;
    }
  }
  return true;
}

std::optional<Reaggregation> Reaggregate(
    const std::vector<AggItem>& wanted, const Schema* wanted_input,
    const std::vector<AggItem>& partials, const Schema* partial_input,
    const std::vector<std::string>& groups, const std::string& temp_prefix,
    std::set<std::string> scope) {
  scope.insert(groups.begin(), groups.end());
  for (const AggItem& p : partials) scope.insert(p.out_name);
  for (const AggItem& w : wanted) scope.insert(w.out_name);
  Reaggregation out;
  for (const std::string& g : groups) out.final.push_back({Expr::Column(g), g});
  // The outer column merging partial j: SUM for a COUNT, else the
  // partial's own function. Each partial is re-aggregated once.
  std::vector<std::string> temps(partials.size());
  auto merged = [&](int j) {
    std::string& temp = temps[static_cast<size_t>(j)];
    if (temp.empty()) {
      temp = FreshName(temp_prefix + std::to_string(j), &scope);
      const AggFunc fn = partials[j].fn;
      out.outer.push_back({fn == AggFunc::kCount ? AggFunc::kSum : fn,
                           Expr::Column(partials[j].out_name), temp});
    }
    return Expr::Column(temp);
  };
  for (const AggItem& w : wanted) {
    const Sources s = FindSources(w, wanted_input, partials, partial_input);
    if (!s.found(w.fn)) return std::nullopt;
    ExprPtr value = merged(s.first);
    if (w.fn == AggFunc::kAvg) {
      // Multiply by 1.0 so the division is floating-point even when the
      // merged sum is integral.
      value = Expr::Arith(ArithOp::kDiv,
                          Expr::Arith(ArithOp::kMul, value, Expr::Literal(1.0)),
                          merged(s.count));
    }
    out.final.push_back({std::move(value), w.out_name});
  }
  return out;
}

}  // namespace recycledb
