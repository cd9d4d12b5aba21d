#include "expr/expression.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "storage/wire_format.h"

namespace recycledb {

ExprPtr Expr::Column(std::string name) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kColumnRef;
  e->name_ = std::move(name);
  return e;
}

ExprPtr Expr::Literal(Datum value) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kLiteral;
  e->literal_ = std::move(value);
  return e;
}

ExprPtr Expr::Param(std::string name) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kParam;
  e->name_ = std::move(name);
  return e;
}

ExprPtr Expr::Compare(CompareOp op, ExprPtr l, ExprPtr r) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kCompare;
  e->compare_op_ = op;
  e->children_ = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::And(ExprPtr l, ExprPtr r) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kLogical;
  e->logical_op_ = LogicalOp::kAnd;
  e->children_ = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::Or(ExprPtr l, ExprPtr r) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kLogical;
  e->logical_op_ = LogicalOp::kOr;
  e->children_ = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::Not(ExprPtr c) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kLogical;
  e->logical_op_ = LogicalOp::kNot;
  e->children_ = {std::move(c)};
  return e;
}

ExprPtr Expr::Arith(ArithOp op, ExprPtr l, ExprPtr r) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kArith;
  e->arith_op_ = op;
  e->children_ = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::Func(std::string name, std::vector<ExprPtr> args) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kFunc;
  e->name_ = std::move(name);
  e->children_ = std::move(args);
  return e;
}

ExprPtr Expr::Case(ExprPtr cond, ExprPtr then_e, ExprPtr else_e) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kCase;
  e->children_ = {std::move(cond), std::move(then_e), std::move(else_e)};
  return e;
}

ExprPtr Expr::In(ExprPtr v, std::vector<Datum> values) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kInList;
  e->in_values_ = std::move(values);
  e->children_ = {std::move(v)};
  return e;
}

ExprPtr Expr::Like(LikeKind kind, ExprPtr v, std::string pattern) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kLike;
  e->like_kind_ = kind;
  e->name_ = std::move(pattern);
  e->children_ = {std::move(v)};
  return e;
}

namespace {

// The type arithmetic over `l` and `r` yields, and a CASE over branches
// of two different numeric types.
TypeId NumericResultType(TypeId l, TypeId r) {
  if (l == TypeId::kDouble || r == TypeId::kDouble) return TypeId::kDouble;
  if (l == TypeId::kInt64 || r == TypeId::kInt64) return TypeId::kInt64;
  return TypeId::kInt32;
}

Status ExprError(const Expr& expr, const std::string& what) {
  return Status::InvalidArgument(what + " in expression " +
                                 expr.DisplayString());
}

}  // namespace

Status Expr::CheckType(const Schema& input, TypeId* out) const {
  auto ok = [out](TypeId t) {
    if (out != nullptr) *out = t;
    return Status::OK();
  };
  TypeId l, r;
  switch (kind_) {
    case ExprKind::kColumnRef: {
      int idx = input.IndexOf(name_);
      if (idx < 0) return Status::InvalidArgument("unknown column: " + name_);
      return ok(input.field(idx).type);
    }
    case ExprKind::kLiteral:
      if (std::holds_alternative<std::monostate>(literal_)) {
        return ExprError(*this, "null literal (engine is NULL-free)");
      }
      return ok(DatumType(literal_));
    case ExprKind::kParam:
      return Status::InvalidArgument("unbound parameter: $" + name_);
    case ExprKind::kCompare:
      RDB_RETURN_NOT_OK(children_[0]->CheckType(input, &l));
      RDB_RETURN_NOT_OK(children_[1]->CheckType(input, &r));
      if ((l == TypeId::kString) != (r == TypeId::kString)) {
        return ExprError(*this,
                         StrFormat("type mismatch: cannot compare %s to %s",
                                   TypeName(l), TypeName(r)));
      }
      return ok(TypeId::kBool);
    case ExprKind::kLogical:
      for (const auto& c : children_) {
        RDB_RETURN_NOT_OK(c->CheckType(input, &l));
        if (l != TypeId::kBool) {
          return ExprError(*this, "logical operand is not boolean");
        }
      }
      return ok(TypeId::kBool);
    case ExprKind::kArith:
      RDB_RETURN_NOT_OK(children_[0]->CheckType(input, &l));
      RDB_RETURN_NOT_OK(children_[1]->CheckType(input, &r));
      if (!IsNumeric(l) || !IsNumeric(r)) {
        return ExprError(*this, "arithmetic on non-numeric operand");
      }
      return ok(NumericResultType(l, r));
    case ExprKind::kFunc:
      if (name_ == "year" || name_ == "month") {
        if (children_.size() != 1) {
          return ExprError(*this, name_ + " takes one argument");
        }
        RDB_RETURN_NOT_OK(children_[0]->CheckType(input, &l));
        if (l != TypeId::kDate && l != TypeId::kInt32) {
          return ExprError(*this, name_ + " argument must be a date");
        }
        return ok(TypeId::kInt32);
      }
      if (name_ == "bin") {
        if (children_.size() != 2) {
          return ExprError(*this, "bin takes (value, width)");
        }
        RDB_RETURN_NOT_OK(children_[0]->CheckType(input, &l));
        if (!IsNumeric(l)) {
          return ExprError(*this, "bin value must be numeric");
        }
        const Expr& width = *children_[1];
        if (width.kind_ != ExprKind::kLiteral ||
            !(std::holds_alternative<int32_t>(width.literal_) ||
              std::holds_alternative<int64_t>(width.literal_)) ||
            DatumAsInt64(width.literal_) <= 0) {
          return ExprError(*this, "bin width must be a positive integer");
        }
        return ok(TypeId::kInt64);
      }
      return ExprError(*this, "unknown function: " + name_);
    case ExprKind::kCase:
      RDB_RETURN_NOT_OK(children_[0]->CheckType(input, &l));
      if (l != TypeId::kBool) {
        return ExprError(*this, "CASE condition is not boolean");
      }
      RDB_RETURN_NOT_OK(children_[1]->CheckType(input, &l));
      RDB_RETURN_NOT_OK(children_[2]->CheckType(input, &r));
      if (l == r) return ok(l);
      if (!IsNumeric(l) || !IsNumeric(r)) {
        return ExprError(*this, "CASE branch type mismatch");
      }
      return ok(NumericResultType(l, r));
    case ExprKind::kInList:
      RDB_RETURN_NOT_OK(children_[0]->CheckType(input, &l));
      for (const auto& v : in_values_) {
        if (std::holds_alternative<std::monostate>(v) ||
            (DatumType(v) == TypeId::kString) != (l == TypeId::kString)) {
          return ExprError(*this, "IN list value type mismatch");
        }
      }
      return ok(TypeId::kBool);
    case ExprKind::kLike:
      RDB_RETURN_NOT_OK(children_[0]->CheckType(input, &l));
      if (l != TypeId::kString) {
        return ExprError(*this, "LIKE operand must be a string");
      }
      return ok(TypeId::kBool);
  }
  return Status::Internal("bad expression kind");
}

void Expr::CollectColumns(std::set<std::string>* out) const {
  if (kind_ == ExprKind::kColumnRef) {
    out->insert(name_);
    return;
  }
  for (const auto& c : children_) c->CollectColumns(out);
}

void Expr::CollectParams(std::set<std::string>* out) const {
  if (kind_ == ExprKind::kParam) {
    out->insert(name_);
    return;
  }
  for (const auto& c : children_) c->CollectParams(out);
}

bool Expr::HasParams() const {
  if (kind_ == ExprKind::kParam) return true;
  for (const auto& c : children_) {
    if (c->HasParams()) return true;
  }
  return false;
}

ExprPtr Expr::SubstituteParams(const ParamMap& params,
                               std::vector<std::string>* missing) const {
  if (kind_ == ExprKind::kParam) {
    auto it = params.find(name_);
    if (it == params.end()) {
      if (missing != nullptr) missing->push_back(name_);
      return shared_from_this();
    }
    return Literal(it->second);
  }
  if (!HasParams()) return shared_from_this();
  auto e = std::shared_ptr<Expr>(new Expr(*this));
  for (auto& c : e->children_) c = c->SubstituteParams(params, missing);
  return e;
}

std::string OrdinalName(int ordinal) {
  return "#" + std::to_string(ordinal);
}

std::string FreshName(const std::string& preferred,
                      std::set<std::string>* taken) {
  std::string name = preferred;
  for (int n = 1; taken->count(name) > 0; ++n) {
    name = preferred + "_" + std::to_string(n);
  }
  taken->insert(name);
  return name;
}

std::string Expr::Key(const Schema* input) const {
  std::string out;
  AppendKey(&out, input);
  return out;
}

void AppendColumnKey(const std::string& name, const Schema* input,
                     std::string* out) {
  if (input != nullptr) {
    wire::PutU32(out, static_cast<uint32_t>(input->IndexOfChecked(name)));
  } else {
    wire::PutString(out, name);
  }
}

void AppendTypedDatum(const Datum& d, std::string* out) {
  out->push_back(static_cast<char>(d.index()));
  if (const auto* b = std::get_if<bool>(&d)) {
    out->push_back(*b ? 1 : 0);
  } else if (const auto* i = std::get_if<int32_t>(&d)) {
    wire::PutU32(out, static_cast<uint32_t>(*i));
  } else if (const auto* l = std::get_if<int64_t>(&d)) {
    wire::PutU64(out, static_cast<uint64_t>(*l));
  } else if (const auto* v = std::get_if<double>(&d)) {
    wire::PutDouble(out, *v);
  } else if (const auto* s = std::get_if<std::string>(&d)) {
    wire::PutString(out, *s);
  }
}

void Expr::AppendKey(std::string* out, const Schema* input) const {
  out->push_back(static_cast<char>(kind_));
  switch (kind_) {
    case ExprKind::kColumnRef:
      AppendColumnKey(name_, input, out);
      return;
    case ExprKind::kLiteral:
      AppendTypedDatum(literal_, out);
      return;
    case ExprKind::kParam:
      wire::PutString(out, name_);
      return;
    case ExprKind::kCompare:
      out->push_back(static_cast<char>(compare_op_));
      break;
    case ExprKind::kLogical:
      out->push_back(static_cast<char>(logical_op_));
      break;
    case ExprKind::kArith:
      out->push_back(static_cast<char>(arith_op_));
      break;
    case ExprKind::kLike:
      out->push_back(static_cast<char>(like_kind_));
      wire::PutString(out, name_);
      break;
    case ExprKind::kFunc:
      wire::PutString(out, name_);
      break;
    case ExprKind::kInList:
      wire::PutU32(out, static_cast<uint32_t>(in_values_.size()));
      for (const Datum& v : in_values_) AppendTypedDatum(v, out);
      break;
    case ExprKind::kCase:
      break;
  }
  wire::PutU32(out, static_cast<uint32_t>(children_.size()));
  for (const ExprPtr& c : children_) c->AppendKey(out, input);
}

ExprPtr Expr::Positional(const Schema& input) const {
  auto e = std::shared_ptr<Expr>(new Expr(*this));
  if (kind_ == ExprKind::kColumnRef) {
    e->name_ = OrdinalName(input.IndexOfChecked(name_));
    return e;
  }
  for (auto& c : e->children_) c = c->Positional(input);
  return e;
}

ExprPtr Expr::Rename(const NameMap& mapping) const {
  auto e = std::shared_ptr<Expr>(new Expr(*this));
  if (kind_ == ExprKind::kColumnRef) {
    auto it = mapping.find(name_);
    if (it != mapping.end()) e->name_ = it->second;
    return e;
  }
  for (auto& c : e->children_) c = c->Rename(mapping);
  return e;
}

std::string Expr::DisplayString() const {
  switch (kind_) {
    case ExprKind::kColumnRef:
      return name_;
    case ExprKind::kLiteral:
      return DatumToString(literal_);
    case ExprKind::kParam:
      return "$" + name_;
    case ExprKind::kCompare: {
      static const char* names[] = {"=", "!=", "<", "<=", ">", ">="};
      return StrFormat("(%s %s %s)", children_[0]->DisplayString().c_str(),
                       names[static_cast<int>(compare_op_)],
                       children_[1]->DisplayString().c_str());
    }
    case ExprKind::kLogical: {
      if (logical_op_ == LogicalOp::kNot) {
        return "(NOT " + children_[0]->DisplayString() + ")";
      }
      const char* op = logical_op_ == LogicalOp::kAnd ? " AND " : " OR ";
      return "(" + children_[0]->DisplayString() + op +
             children_[1]->DisplayString() + ")";
    }
    case ExprKind::kArith: {
      static const char* names[] = {"+", "-", "*", "/"};
      return StrFormat("(%s %s %s)", children_[0]->DisplayString().c_str(),
                       names[static_cast<int>(arith_op_)],
                       children_[1]->DisplayString().c_str());
    }
    case ExprKind::kFunc: {
      std::string out = name_ + "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += ", ";
        out += children_[i]->DisplayString();
      }
      return out + ")";
    }
    case ExprKind::kCase:
      return "CASE WHEN " + children_[0]->DisplayString() + " THEN " +
             children_[1]->DisplayString() + " ELSE " +
             children_[2]->DisplayString() + " END";
    case ExprKind::kInList: {
      std::string out = children_[0]->DisplayString() + " IN (";
      for (size_t i = 0; i < in_values_.size(); ++i) {
        if (i > 0) out += ", ";
        out += DatumToString(in_values_[i]);
      }
      return out + ")";
    }
    case ExprKind::kLike: {
      switch (like_kind_) {
        case LikeKind::kContains:
          return children_[0]->DisplayString() + " LIKE '%" + name_ + "%'";
        case LikeKind::kPrefix:
          return children_[0]->DisplayString() + " LIKE '" + name_ + "%'";
        case LikeKind::kSuffix:
          return children_[0]->DisplayString() + " LIKE '%" + name_ + "'";
        case LikeKind::kNotContains:
          return children_[0]->DisplayString() + " NOT LIKE '%" + name_ +
                 "%'";
      }
      RDB_UNREACHABLE("bad like kind");
    }
  }
  RDB_UNREACHABLE("bad expr kind");
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

namespace {

// Reads row r of `col` as double (numeric types only). The span accessors
// resolve views, so the interpreter is oblivious to view vs. owned storage.
inline double AsDouble(const ColumnVector& col, int64_t r) {
  switch (col.type()) {
    case TypeId::kBool:
      return col.Raw<uint8_t>()[r];
    case TypeId::kInt32:
    case TypeId::kDate:
      return col.Raw<int32_t>()[r];
    case TypeId::kInt64:
      return static_cast<double>(col.Raw<int64_t>()[r]);
    case TypeId::kDouble:
      return col.Raw<double>()[r];
    default:
      RDB_UNREACHABLE("AsDouble on string");
  }
}

inline int64_t AsInt64(const ColumnVector& col, int64_t r) {
  switch (col.type()) {
    case TypeId::kBool:
      return col.Raw<uint8_t>()[r];
    case TypeId::kInt32:
    case TypeId::kDate:
      return col.Raw<int32_t>()[r];
    case TypeId::kInt64:
      return col.Raw<int64_t>()[r];
    case TypeId::kDouble:
      return static_cast<int64_t>(col.Raw<double>()[r]);
    default:
      RDB_UNREACHABLE("AsInt64 on string");
  }
}

}  // namespace

ColumnPtr Expr::Eval(const Batch& batch, const Schema& input) const {
  const int64_t n = batch.num_rows;
  switch (kind_) {
    case ExprKind::kColumnRef: {
      int idx = input.IndexOf(name_);
      RDB_CHECK_MSG(idx >= 0, ("unbound column: " + name_).c_str());
      return batch.columns[idx];
    }
    case ExprKind::kLiteral: {
      auto out = MakeColumn(DatumType(literal_));
      out->Reserve(n);
      for (int64_t i = 0; i < n; ++i) out->Append(literal_);
      return out;
    }
    case ExprKind::kParam:
      RDB_UNREACHABLE(("unbound parameter: $" + name_).c_str());
    case ExprKind::kCompare: {
      ColumnPtr l = children_[0]->Eval(batch, input);
      ColumnPtr r = children_[1]->Eval(batch, input);
      auto out = MakeColumn(TypeId::kBool);
      auto& o = out->Data<uint8_t>();
      o.resize(n);
      const CompareOp op = compare_op_;
      if (l->type() == TypeId::kString || r->type() == TypeId::kString) {
        RDB_CHECK(l->type() == TypeId::kString &&
                  r->type() == TypeId::kString);
        const std::string* ls = l->Raw<std::string>();
        const std::string* rs = r->Raw<std::string>();
        for (int64_t i = 0; i < n; ++i) {
          o[i] = CompareHolds(op, ls[i].compare(rs[i]));
        }
        return out;
      }
      // One loop per type class, each under the value order.
      const bool ld = l->type() == TypeId::kDouble;
      const bool rd = r->type() == TypeId::kDouble;
      if (!ld && !rd) {
        for (int64_t i = 0; i < n; ++i) {
          o[i] = OrderHolds(op, AsInt64(*l, i), AsInt64(*r, i));
        }
      } else if (l->type() == TypeId::kInt64 || r->type() == TypeId::kInt64) {
        // An int64 meets a double: the exact mixed compare.
        for (int64_t i = 0; i < n; ++i) {
          const int c =
              ld ? CompareValues(l->Raw<double>()[i], r->Raw<int64_t>()[i])
                 : CompareValues(l->Raw<int64_t>()[i], r->Raw<double>()[i]);
          o[i] = CompareHolds(op, c);
        }
      } else {
        // A double meets a double, int32, date or bool, all exact in double.
        for (int64_t i = 0; i < n; ++i) {
          o[i] = OrderHolds(op, AsDouble(*l, i), AsDouble(*r, i));
        }
      }
      return out;
    }
    case ExprKind::kLogical: {
      auto out = MakeColumn(TypeId::kBool);
      auto& o = out->Data<uint8_t>();
      o.resize(n);
      if (logical_op_ == LogicalOp::kNot) {
        ColumnPtr c = children_[0]->Eval(batch, input);
        const uint8_t* cv = c->Raw<uint8_t>();
        for (int64_t i = 0; i < n; ++i) o[i] = !cv[i];
        return out;
      }
      ColumnPtr l = children_[0]->Eval(batch, input);
      ColumnPtr r = children_[1]->Eval(batch, input);
      const uint8_t* lv = l->Raw<uint8_t>();
      const uint8_t* rv = r->Raw<uint8_t>();
      if (logical_op_ == LogicalOp::kAnd) {
        for (int64_t i = 0; i < n; ++i) o[i] = lv[i] & rv[i];
      } else {
        for (int64_t i = 0; i < n; ++i) o[i] = lv[i] | rv[i];
      }
      return out;
    }
    case ExprKind::kArith: {
      ColumnPtr l = children_[0]->Eval(batch, input);
      ColumnPtr r = children_[1]->Eval(batch, input);
      const TypeId out_type = NumericResultType(l->type(), r->type());
      auto out = MakeColumn(out_type);
      if (out_type == TypeId::kDouble) {
        auto& o = out->Data<double>();
        o.resize(n);
        for (int64_t i = 0; i < n; ++i) {
          double a = AsDouble(*l, i), b = AsDouble(*r, i);
          switch (arith_op_) {
            case ArithOp::kAdd: o[i] = a + b; break;
            case ArithOp::kSub: o[i] = a - b; break;
            case ArithOp::kMul: o[i] = a * b; break;
            case ArithOp::kDiv: o[i] = b == 0 ? 0 : a / b; break;
          }
        }
      } else if (out_type == TypeId::kInt64) {
        auto& o = out->Data<int64_t>();
        o.resize(n);
        for (int64_t i = 0; i < n; ++i) {
          int64_t a = AsInt64(*l, i), b = AsInt64(*r, i);
          switch (arith_op_) {
            case ArithOp::kAdd: o[i] = a + b; break;
            case ArithOp::kSub: o[i] = a - b; break;
            case ArithOp::kMul: o[i] = a * b; break;
            case ArithOp::kDiv: o[i] = b == 0 ? 0 : a / b; break;
          }
        }
      } else {
        auto& o = out->Data<int32_t>();
        o.resize(n);
        for (int64_t i = 0; i < n; ++i) {
          int32_t a = static_cast<int32_t>(AsInt64(*l, i));
          int32_t b = static_cast<int32_t>(AsInt64(*r, i));
          switch (arith_op_) {
            case ArithOp::kAdd: o[i] = a + b; break;
            case ArithOp::kSub: o[i] = a - b; break;
            case ArithOp::kMul: o[i] = a * b; break;
            case ArithOp::kDiv: o[i] = b == 0 ? 0 : a / b; break;
          }
        }
      }
      return out;
    }
    case ExprKind::kFunc: {
      if (name_ == "year" || name_ == "month") {
        ColumnPtr arg = children_[0]->Eval(batch, input);
        RDB_CHECK(arg->type() == TypeId::kDate ||
                  arg->type() == TypeId::kInt32);
        auto out = MakeColumn(TypeId::kInt32);
        auto& o = out->Data<int32_t>();
        o.resize(n);
        const int32_t* a = arg->Raw<int32_t>();
        if (name_ == "year") {
          for (int64_t i = 0; i < n; ++i) o[i] = DateYear(a[i]);
        } else {
          for (int64_t i = 0; i < n; ++i) o[i] = DateMonth(a[i]);
        }
        return out;
      }
      if (name_ == "bin") {
        // bin(value, width): floor(value / width); width is a positive
        // integer literal (CheckType). A double value floors as a double.
        ColumnPtr arg = children_[0]->Eval(batch, input);
        const int64_t width = DatumAsInt64(children_[1]->literal());
        RDB_CHECK(width > 0);
        auto out = MakeColumn(TypeId::kInt64);
        auto& o = out->Data<int64_t>();
        o.resize(n);
        if (arg->type() == TypeId::kDouble) {
          const double* v = arg->Raw<double>();
          const double w = static_cast<double>(width);
          for (int64_t i = 0; i < n; ++i) {
            o[i] = static_cast<int64_t>(std::floor(v[i] / w));
          }
          return out;
        }
        for (int64_t i = 0; i < n; ++i) {
          int64_t v = AsInt64(*arg, i);
          int64_t q = v / width;
          if (v < 0 && v % width != 0) --q;  // floor division
          o[i] = q;
        }
        return out;
      }
      RDB_UNREACHABLE(("unknown function: " + name_).c_str());
    }
    case ExprKind::kCase: {
      ColumnPtr cond = children_[0]->Eval(batch, input);
      ColumnPtr t = children_[1]->Eval(batch, input);
      ColumnPtr e = children_[2]->Eval(batch, input);
      const TypeId out_type = t->type() == e->type()
                                  ? t->type()
                                  : NumericResultType(t->type(), e->type());
      auto out = MakeColumn(out_type);
      const uint8_t* cv = cond->Raw<uint8_t>();
      // Writes row i as the THEN or ELSE column's value, read by `get`.
      auto fill = [&](auto& o, auto get) {
        o.resize(n);
        for (int64_t i = 0; i < n; ++i) o[i] = cv[i] ? get(*t, i) : get(*e, i);
      };
      switch (out_type) {
        case TypeId::kString:
          fill(out->Data<std::string>(),
               [](const ColumnVector& c, int64_t i) -> const std::string& {
                 return c.Raw<std::string>()[i];
               });
          break;
        case TypeId::kDouble:
          fill(out->Data<double>(), AsDouble);
          break;
        case TypeId::kInt64:
          fill(out->Data<int64_t>(), AsInt64);
          break;
        case TypeId::kBool:
          fill(out->Data<uint8_t>(), [](const ColumnVector& c, int64_t i) {
            return c.Raw<uint8_t>()[i];
          });
          break;
        default:  // kInt32, kDate
          fill(out->Data<int32_t>(), [](const ColumnVector& c, int64_t i) {
            return static_cast<int32_t>(AsInt64(c, i));
          });
          break;
      }
      return out;
    }
    case ExprKind::kInList: {
      ColumnPtr v = children_[0]->Eval(batch, input);
      auto out = MakeColumn(TypeId::kBool);
      auto& o = out->Data<uint8_t>();
      o.resize(n);
      // Membership under the value order: a binary search of the list.
      std::vector<Datum> list = in_values_;
      std::sort(list.begin(), list.end(), [](const Datum& a, const Datum& b) {
        return DatumCompare(a, b) < 0;
      });
      auto fill = [&](const auto* values) {
        for (int64_t i = 0; i < n; ++i) {
          auto it = std::lower_bound(
              list.begin(), list.end(), values[i],
              [](const Datum& d, const auto& x) {
                return CompareToDatum(x, d) > 0;
              });
          o[i] = it != list.end() && CompareToDatum(values[i], *it) == 0;
        }
      };
      v->VisitValues(fill);
      return out;
    }
    case ExprKind::kLike: {
      ColumnPtr v = children_[0]->Eval(batch, input);
      RDB_CHECK(v->type() == TypeId::kString);
      auto out = MakeColumn(TypeId::kBool);
      auto& o = out->Data<uint8_t>();
      o.resize(n);
      const std::string* sv = v->Raw<std::string>();
      for (int64_t i = 0; i < n; ++i) {
        bool m = false;
        switch (like_kind_) {
          case LikeKind::kContains: m = Contains(sv[i], name_); break;
          case LikeKind::kPrefix: m = StartsWith(sv[i], name_); break;
          case LikeKind::kSuffix: m = EndsWith(sv[i], name_); break;
          case LikeKind::kNotContains: m = !Contains(sv[i], name_); break;
        }
        o[i] = m;
      }
      return out;
    }
  }
  RDB_UNREACHABLE("bad expr kind");
}

std::vector<int32_t> Expr::EvalSelection(const Batch& batch,
                                         const Schema& input) const {
  ColumnPtr mask = Eval(batch, input);
  RDB_CHECK_MSG(mask->type() == TypeId::kBool, "predicate must be boolean");
  const uint8_t* m = mask->Raw<uint8_t>();
  const int64_t n = mask->size();
  std::vector<int32_t> sel;
  sel.reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    if (m[i]) sel.push_back(static_cast<int32_t>(i));
  }
  return sel;
}

std::vector<ExprPtr> SplitConjuncts(const ExprPtr& pred) {
  std::vector<ExprPtr> out;
  if (pred == nullptr) return out;
  if (pred->kind() == ExprKind::kLogical &&
      pred->logical_op() == LogicalOp::kAnd) {
    for (const auto& c : pred->children()) {
      auto sub = SplitConjuncts(c);
      out.insert(out.end(), sub.begin(), sub.end());
    }
    return out;
  }
  out.push_back(pred);
  return out;
}

ExprPtr AndAll(const std::vector<ExprPtr>& conjuncts) {
  if (conjuncts.empty()) return nullptr;
  ExprPtr acc = conjuncts[0];
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    acc = Expr::And(acc, conjuncts[i]);
  }
  return acc;
}

namespace {

bool GetDatum(wire::Cursor* c, Datum* d) {
  uint8_t index = 0;
  if (!c->GetU8(&index)) return false;
  switch (index) {
    case 0:
      *d = std::monostate{};
      return true;
    case 1: {
      uint8_t b = 0;
      if (!c->GetU8(&b) || b > 1) return false;
      *d = b == 1;
      return true;
    }
    case 2: {
      uint32_t v = 0;
      if (!c->GetU32(&v)) return false;
      *d = static_cast<int32_t>(v);
      return true;
    }
    case 3: {
      uint64_t v = 0;
      if (!c->GetU64(&v)) return false;
      *d = static_cast<int64_t>(v);
      return true;
    }
    case 4: {
      double v = 0;
      if (!c->GetDouble(&v)) return false;
      *d = v;
      return true;
    }
    case 5: {
      std::string s;
      if (!c->GetString(&s)) return false;
      *d = std::move(s);
      return true;
    }
    default:
      return false;
  }
}

/// Nesting bound for decoding: a crafted image must not exhaust the
/// stack. Planner-built predicates stay far below it.
constexpr int kMaxDecodeDepth = 1000;

ExprPtr DecodeNode(wire::Cursor* c, const std::vector<std::string>& names,
                   int depth) {
  uint8_t kind = 0;
  if (depth > kMaxDecodeDepth || !c->GetU8(&kind) ||
      kind > static_cast<uint8_t>(ExprKind::kLike)) {
    return nullptr;
  }
  const ExprKind k = static_cast<ExprKind>(kind);
  if (k == ExprKind::kColumnRef) {
    uint32_t ordinal = 0;
    if (!c->GetU32(&ordinal) || ordinal >= names.size()) return nullptr;
    return Expr::Column(names[ordinal]);
  }
  if (k == ExprKind::kLiteral) {
    Datum d;
    return GetDatum(c, &d) ? Expr::Literal(std::move(d)) : nullptr;
  }
  if (k == ExprKind::kParam) {
    std::string name;
    return c->GetString(&name) ? Expr::Param(std::move(name)) : nullptr;
  }
  uint8_t op = 0;
  std::string text;
  std::vector<Datum> values;
  switch (k) {
    case ExprKind::kCompare:
    case ExprKind::kLogical:
    case ExprKind::kArith:
      if (!c->GetU8(&op)) return nullptr;
      break;
    case ExprKind::kLike:
      if (!c->GetU8(&op) || !c->GetString(&text)) return nullptr;
      break;
    case ExprKind::kFunc:
      if (!c->GetString(&text)) return nullptr;
      break;
    case ExprKind::kInList: {
      uint32_t n = 0;
      if (!c->GetU32(&n) || n > c->remaining()) return nullptr;
      values.resize(n);
      for (Datum& v : values) {
        if (!GetDatum(c, &v)) return nullptr;
      }
      break;
    }
    default:
      break;
  }
  uint32_t n = 0;
  if (!c->GetU32(&n) || n > c->remaining()) return nullptr;
  std::vector<ExprPtr> kids;
  for (uint32_t i = 0; i < n; ++i) {
    kids.push_back(DecodeNode(c, names, depth + 1));
    if (kids.back() == nullptr) return nullptr;
  }
  auto arity = [&](size_t want) { return kids.size() == want; };
  switch (k) {
    case ExprKind::kCompare:
      if (!arity(2) || op > static_cast<uint8_t>(CompareOp::kGe)) break;
      return Expr::Compare(static_cast<CompareOp>(op), kids[0], kids[1]);
    case ExprKind::kLogical:
      if (op == static_cast<uint8_t>(LogicalOp::kNot) && arity(1)) {
        return Expr::Not(kids[0]);
      }
      if (op == static_cast<uint8_t>(LogicalOp::kAnd) && arity(2)) {
        return Expr::And(kids[0], kids[1]);
      }
      if (op == static_cast<uint8_t>(LogicalOp::kOr) && arity(2)) {
        return Expr::Or(kids[0], kids[1]);
      }
      break;
    case ExprKind::kArith:
      if (!arity(2) || op > static_cast<uint8_t>(ArithOp::kDiv)) break;
      return Expr::Arith(static_cast<ArithOp>(op), kids[0], kids[1]);
    case ExprKind::kFunc:
      return Expr::Func(std::move(text), std::move(kids));
    case ExprKind::kCase:
      if (!arity(3)) break;
      return Expr::Case(kids[0], kids[1], kids[2]);
    case ExprKind::kInList:
      if (!arity(1)) break;
      return Expr::In(kids[0], std::move(values));
    case ExprKind::kLike:
      if (!arity(1) || op > static_cast<uint8_t>(LikeKind::kNotContains)) {
        break;
      }
      return Expr::Like(static_cast<LikeKind>(op), kids[0], std::move(text));
    default:
      break;
  }
  return nullptr;
}

}  // namespace

ExprPtr DecodeExprOrdinal(const std::string& bytes,
                          const std::vector<std::string>& input_names) {
  wire::Cursor c{reinterpret_cast<const unsigned char*>(bytes.data()),
                 bytes.size()};
  ExprPtr e = DecodeNode(&c, input_names, 0);
  return c.remaining() == 0 ? e : nullptr;
}

}  // namespace recycledb
