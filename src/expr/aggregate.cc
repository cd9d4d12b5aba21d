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

AggDecomposition DecomposeAggregate(const AggItem& item,
                                    const std::string& partial_prefix) {
  AggDecomposition out;
  switch (item.fn) {
    case AggFunc::kSum:
    case AggFunc::kMin:
    case AggFunc::kMax: {
      AggItem partial = item;
      partial.out_name = partial_prefix + "_p0";
      out.partials = {partial};
      out.reaggs = {item.fn == AggFunc::kSum ? AggFunc::kSum : item.fn};
      out.final_expr = nullptr;
      return out;
    }
    case AggFunc::kCount: {
      AggItem partial = item;
      partial.out_name = partial_prefix + "_p0";
      out.partials = {partial};
      out.reaggs = {AggFunc::kSum};  // count of union = sum of counts
      out.final_expr = nullptr;
      return out;
    }
    case AggFunc::kAvg: {
      AggItem psum{AggFunc::kSum, item.arg, partial_prefix + "_psum"};
      AggItem pcnt{AggFunc::kCount, item.arg, partial_prefix + "_pcnt"};
      out.partials = {psum, pcnt};
      out.reaggs = {AggFunc::kSum, AggFunc::kSum};
      // Multiply by 1.0 so the division is floating-point even when the
      // partial sum is integral.
      out.final_expr = Expr::Arith(
          ArithOp::kDiv,
          Expr::Arith(ArithOp::kMul, Expr::Column(psum.out_name),
                      Expr::Literal(1.0)),
          Expr::Column(pcnt.out_name));
      return out;
    }
  }
  RDB_UNREACHABLE("bad agg func");
}

}  // namespace recycledb
