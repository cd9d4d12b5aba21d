// Unit tests for src/expr: evaluation, type deduction, keys,
// renaming, conjunct splitting, aggregate decomposition, and the compare
// kernel and IN lists under the value order.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "expr/aggregate.h"
#include "expr/expression.h"

namespace recycledb {
namespace {

Schema TestSchema() {
  return Schema({{"a", TypeId::kInt32},
                 {"b", TypeId::kDouble},
                 {"s", TypeId::kString},
                 {"d", TypeId::kDate}});
}

Batch TestBatch() {
  Batch batch;
  batch.columns = {MakeColumn(TypeId::kInt32), MakeColumn(TypeId::kDouble),
                   MakeColumn(TypeId::kString), MakeColumn(TypeId::kDate)};
  auto add = [&](int32_t a, double b, const char* s, int32_t d) {
    batch.columns[0]->Append(Datum(a));
    batch.columns[1]->Append(Datum(b));
    batch.columns[2]->Append(Datum(std::string(s)));
    batch.columns[3]->Append(Datum(d));
    ++batch.num_rows;
  };
  add(1, 1.5, "apple pie", MakeDate(1995, 3, 15));
  add(2, 2.5, "banana", MakeDate(1996, 7, 1));
  add(3, 3.5, "apple tart", MakeDate(1997, 1, 20));
  return batch;
}

TEST(ExprEvalTest, ColumnRef) {
  Batch b = TestBatch();
  ColumnPtr c = Expr::Column("a")->Eval(b, TestSchema());
  EXPECT_EQ(c->Raw<int32_t>()[2], 3);
}

TEST(ExprEvalTest, Arithmetic) {
  Batch b = TestBatch();
  // a * 2 + b  -> double
  ExprPtr e = Expr::Arith(
      ArithOp::kAdd,
      Expr::Arith(ArithOp::kMul, Expr::Column("a"), Expr::Literal(int64_t{2})),
      Expr::Column("b"));
  TypeId t;
  ASSERT_TRUE(e->CheckType(TestSchema(), &t).ok());
  EXPECT_EQ(t, TypeId::kDouble);
  ColumnPtr c = e->Eval(b, TestSchema());
  EXPECT_DOUBLE_EQ(c->Raw<double>()[1], 6.5);
}

TEST(ExprEvalTest, IntegerDivisionAndZeroGuard) {
  Batch b = TestBatch();
  ExprPtr e = Expr::Arith(ArithOp::kDiv, Expr::Literal(int64_t{10}),
                          Expr::Literal(int64_t{0}));
  ColumnPtr c = e->Eval(b, TestSchema());
  EXPECT_EQ(c->Raw<int64_t>()[0], 0);  // div-by-zero yields 0, not UB
}

TEST(ExprEvalTest, ComparisonsNumericAndString) {
  Batch b = TestBatch();
  auto sel1 = Expr::Gt(Expr::Column("a"), Expr::Literal(int64_t{1}))
                  ->EvalSelection(b, TestSchema());
  EXPECT_EQ(sel1, (std::vector<int32_t>{1, 2}));
  auto sel2 = Expr::Eq(Expr::Column("s"), Expr::Literal(std::string("banana")))
                  ->EvalSelection(b, TestSchema());
  EXPECT_EQ(sel2, (std::vector<int32_t>{1}));
}

TEST(ExprEvalTest, LogicalOps) {
  Batch b = TestBatch();
  ExprPtr both = Expr::And(Expr::Ge(Expr::Column("a"), Expr::Literal(int64_t{2})),
                           Expr::Lt(Expr::Column("b"), Expr::Literal(3.0)));
  EXPECT_EQ(both->EvalSelection(b, TestSchema()), (std::vector<int32_t>{1}));
  ExprPtr either = Expr::Or(Expr::Eq(Expr::Column("a"), Expr::Literal(int64_t{1})),
                            Expr::Eq(Expr::Column("a"), Expr::Literal(int64_t{3})));
  EXPECT_EQ(either->EvalSelection(b, TestSchema()),
            (std::vector<int32_t>{0, 2}));
  ExprPtr neither = Expr::Not(either);
  EXPECT_EQ(neither->EvalSelection(b, TestSchema()), (std::vector<int32_t>{1}));
}

TEST(ExprEvalTest, DateYearMonthFunctions) {
  Batch b = TestBatch();
  ColumnPtr y = Expr::Func("year", {Expr::Column("d")})->Eval(b, TestSchema());
  EXPECT_EQ(y->Raw<int32_t>()[0], 1995);
  EXPECT_EQ(y->Raw<int32_t>()[2], 1997);
  ColumnPtr m = Expr::Func("month", {Expr::Column("d")})->Eval(b, TestSchema());
  EXPECT_EQ(m->Raw<int32_t>()[1], 7);
}

TEST(ExprEvalTest, BinFunctionFloorDivision) {
  Batch b = TestBatch();
  ExprPtr e = Expr::Func("bin", {Expr::Column("a"), Expr::Literal(int64_t{2})});
  ColumnPtr c = e->Eval(b, TestSchema());
  EXPECT_EQ(c->Raw<int64_t>()[0], 0);  // 1/2
  EXPECT_EQ(c->Raw<int64_t>()[1], 1);  // 2/2
  EXPECT_EQ(c->Raw<int64_t>()[2], 1);  // 3/2
  // A double value floors as a double, not truncated to an integer first.
  Schema vs({{"v", TypeId::kDouble}});
  Batch vb;
  vb.columns = {MakeColumn(TypeId::kDouble)};
  for (double v : {-4.5, -2.5, 3.0}) vb.columns[0]->Append(Datum(v));
  vb.num_rows = 3;
  c = Expr::Func("bin", {Expr::Column("v"), Expr::Literal(int64_t{2})})
          ->Eval(vb, vs);
  EXPECT_EQ(c->Raw<int64_t>()[0], -3);  // floor(-2.25)
  EXPECT_EQ(c->Raw<int64_t>()[1], -2);  // floor(-1.25)
  EXPECT_EQ(c->Raw<int64_t>()[2], 1);   // floor(1.5)
  // The width is a positive integer literal: bin(2, 2.9) is not 1, nor
  // bin(3, 1.5) 3; neither is accepted.
  for (const Datum& width :
       {Datum(2.9), Datum(1.5), Datum(int64_t{0}), Datum(int32_t{-2})}) {
    Status st = Expr::Func("bin", {Expr::Column("a"), Expr::Literal(width)})
                    ->CheckType(TestSchema(), nullptr);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << DatumToString(width);
  }
  TypeId t;
  ASSERT_TRUE(e->CheckType(TestSchema(), &t).ok());
  EXPECT_EQ(t, TypeId::kInt64);
}

TEST(ExprEvalTest, CaseWhen) {
  Batch b = TestBatch();
  ExprPtr e = Expr::Case(Expr::Gt(Expr::Column("a"), Expr::Literal(int64_t{1})),
                         Expr::Column("b"), Expr::Literal(0.0));
  ColumnPtr c = e->Eval(b, TestSchema());
  EXPECT_DOUBLE_EQ(c->Raw<double>()[0], 0.0);
  EXPECT_DOUBLE_EQ(c->Raw<double>()[2], 3.5);
  // Branches of one non-double type, and an INT32/DATE pair, give a
  // column of the type CheckType gives.
  ExprPtr gt1 = Expr::Gt(Expr::Column("a"), Expr::Literal(int64_t{1}));
  struct {
    ExprPtr then_e, else_e;
    Datum row2;
  } cases[] = {{Expr::Column("a"), Expr::Column("a"), Datum(int32_t{3})},
               {Expr::Column("a"), Expr::Column("d"), Datum(int32_t{3})},
               {gt1, gt1, Datum(true)}};
  for (const auto& k : cases) {
    ExprPtr ce = Expr::Case(gt1, k.then_e, k.else_e);
    TypeId t;
    ASSERT_TRUE(ce->CheckType(TestSchema(), &t).ok());
    c = ce->Eval(b, TestSchema());
    EXPECT_EQ(c->type(), t);
    EXPECT_EQ(c->GetDatum(2), k.row2);
  }
}

TEST(ExprEvalTest, InList) {
  Batch b = TestBatch();
  ExprPtr e = Expr::In(Expr::Column("s"),
                       {std::string("banana"), std::string("cherry")});
  EXPECT_EQ(e->EvalSelection(b, TestSchema()), (std::vector<int32_t>{1}));
}

// ---------------------------------------------------------------------------
// The value order in the compare kernel and IN lists
// ---------------------------------------------------------------------------

/// A batch of one column `x` holding `values`, all of one alternative.
Batch OneColumn(const std::vector<Datum>& values, Schema* schema) {
  const TypeId type = DatumType(values.front());
  *schema = Schema({{"x", type}});
  Batch batch;
  batch.columns = {MakeColumn(type)};
  for (const Datum& v : values) batch.columns[0]->Append(v);
  batch.num_rows = static_cast<int64_t>(values.size());
  return batch;
}

int64_t CountWhere(const std::vector<Datum>& values, const ExprPtr& pred) {
  Schema schema;
  Batch batch = OneColumn(values, &schema);
  return static_cast<int64_t>(pred->EvalSelection(batch, schema).size());
}

TEST(ValueOrderTest, IntegersBeyondTwoToThe53CompareExactly) {
  constexpr int64_t k53 = int64_t{1} << 53;
  std::vector<Datum> xs;
  for (int64_t i = 0; i < 8; ++i) xs.push_back(Datum(k53 + i));
  ExprPtr x = Expr::Column("x");
  const double k53d = static_cast<double>(k53);
  EXPECT_EQ(CountWhere(xs, Expr::Gt(x, Expr::Literal(k53))), 7);
  EXPECT_EQ(CountWhere(xs, Expr::Gt(x, Expr::Literal(k53d))), 7);
  EXPECT_EQ(CountWhere(xs, Expr::Eq(x, Expr::Literal(k53 + 1))), 1);
  EXPECT_EQ(CountWhere(xs, Expr::Le(x, Expr::Literal(k53 + 6))), 7);
}

TEST(ValueOrderTest, InListMatchesExactly) {
  ExprPtr x = Expr::Column("x");
  EXPECT_EQ(CountWhere({Datum(1.2), Datum(1.5), Datum(1.9)},
                       Expr::In(x, {Datum(1.5)})),
            1);
  EXPECT_EQ(CountWhere({Datum(int32_t{1}), Datum(int32_t{2})},
                       Expr::In(x, {Datum(1.5)})),
            0);
  EXPECT_EQ(CountWhere({Datum(int32_t{1}), Datum(int32_t{2})},
                       Expr::In(x, {Datum(2.0), Datum(int64_t{7})})),
            1);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(CountWhere({Datum(nan), Datum(-0.0), Datum(3.0)},
                       Expr::In(x, {Datum(nan), Datum(0.0)})),
            2);
}

/// The adversarial domain: NaN, both infinities and zeros, subnormals,
/// the integers around 2^53 and the ends of int64, as int64 and double.
std::vector<Datum> EdgeValues() {
  constexpr int64_t k53 = int64_t{1} << 53;
  const double inf = std::numeric_limits<double>::infinity();
  const double den = std::numeric_limits<double>::denorm_min();
  std::vector<Datum> out = {
      Datum(std::numeric_limits<double>::quiet_NaN()),
      Datum(-std::numeric_limits<double>::quiet_NaN()),
      Datum(inf), Datum(-inf), Datum(0.0), Datum(-0.0), Datum(den),
      Datum(-den), Datum(1.5), Datum(std::ldexp(1.0, 63)),
      Datum(-std::ldexp(1.0, 63)), Datum(int32_t{0}), Datum(int32_t{-1}),
      Datum(int64_t{0}), Datum(std::numeric_limits<int64_t>::min()),
      Datum(std::numeric_limits<int64_t>::max())};
  for (int64_t d = -1; d <= 1; ++d) {
    out.push_back(Datum(k53 + d));
    out.push_back(Datum(static_cast<double>(k53 + d)));
    out.push_back(Datum(-k53 + d));
  }
  return out;
}

TEST(ValueOrderProperty, KernelAgreesWithDatumCompareOnAStrictWeakOrder) {
  const std::vector<Datum> pool = EdgeValues();
  const int64_t last = static_cast<int64_t>(pool.size()) - 1;
  Rng rng(2009);
  auto draw = [&] { return pool[rng.Uniform(0, last)]; };
  const Schema empty;
  for (int i = 0; i < 2000; ++i) {
    const Datum a = draw(), b = draw();
    Batch batch;
    batch.num_rows = 1;
    for (int op = 0; op <= static_cast<int>(CompareOp::kGe); ++op) {
      ExprPtr e = Expr::Compare(static_cast<CompareOp>(op), Expr::Literal(a),
                                Expr::Literal(b));
      const bool got = e->Eval(batch, empty)->Raw<uint8_t>()[0] != 0;
      EXPECT_EQ(got, CompareHolds(static_cast<CompareOp>(op),
                                  DatumCompare(a, b)))
          << DatumToKeyString(a) << " op " << op << " "
          << DatumToKeyString(b);
    }
    EXPECT_EQ(DatumCompare(a, b), -DatumCompare(b, a));
    const Datum c = draw();
    const bool lt_ab = DatumCompare(a, b) < 0, lt_bc = DatumCompare(b, c) < 0;
    const bool eq_ab = DatumCompare(a, b) == 0, eq_bc = DatumCompare(b, c) == 0;
    // Irreflexive, transitive, and equivalence is transitive.
    const std::string abc = DatumToKeyString(a) + " " + DatumToKeyString(b) +
                            " " + DatumToKeyString(c);
    EXPECT_EQ(DatumCompare(a, a), 0) << abc;
    EXPECT_TRUE(!(lt_ab && lt_bc) || DatumCompare(a, c) < 0) << abc;
    EXPECT_TRUE(!(eq_ab && eq_bc) || DatumCompare(a, c) == 0) << abc;
    EXPECT_TRUE(!((lt_ab && eq_bc) || (eq_ab && lt_bc)) ||
                DatumCompare(a, c) < 0)
        << abc;
  }
}

TEST(ExprEvalTest, LikeVariants) {
  Batch b = TestBatch();
  EXPECT_EQ(Expr::Like(LikeKind::kContains, Expr::Column("s"), "apple")
                ->EvalSelection(b, TestSchema()),
            (std::vector<int32_t>{0, 2}));
  EXPECT_EQ(Expr::Like(LikeKind::kPrefix, Expr::Column("s"), "ban")
                ->EvalSelection(b, TestSchema()),
            (std::vector<int32_t>{1}));
  EXPECT_EQ(Expr::Like(LikeKind::kSuffix, Expr::Column("s"), "pie")
                ->EvalSelection(b, TestSchema()),
            (std::vector<int32_t>{0}));
  EXPECT_EQ(Expr::Like(LikeKind::kNotContains, Expr::Column("s"), "apple")
                ->EvalSelection(b, TestSchema()),
            (std::vector<int32_t>{1}));
}

TEST(ExprKeyTest, StructuralIdentity) {
  ExprPtr a = Expr::Gt(Expr::Column("x"), Expr::Literal(int64_t{5}));
  ExprPtr b = Expr::Gt(Expr::Column("x"), Expr::Literal(int64_t{5}));
  ExprPtr c = Expr::Gt(Expr::Column("x"), Expr::Literal(int64_t{6}));
  EXPECT_EQ(a->Key(nullptr), b->Key(nullptr));
  EXPECT_NE(a->Key(nullptr), c->Key(nullptr));
}

TEST(ExprKeyTest, InputKeysColumnsAsOrdinals) {
  ExprPtr e = Expr::Gt(Expr::Column("x"), Expr::Literal(int64_t{5}));
  const Schema input({{"w", TypeId::kInt64}, {"x", TypeId::kInt64}});
  EXPECT_NE(e->Key(&input), e->Key(nullptr));
  // The positional copy keys alike over the ordinal-named input.
  const Schema ordinals({{"#0", TypeId::kInt64}, {"#1", TypeId::kInt64}});
  EXPECT_EQ(e->Positional(input)->Key(&ordinals), e->Key(&input));
  // Another name at the same ordinal is the same column; another ordinal
  // is not.
  const Schema renamed({{"w", TypeId::kInt64}, {"y", TypeId::kInt64}});
  EXPECT_EQ(Expr::Gt(Expr::Column("y"), Expr::Literal(int64_t{5}))
                ->Key(&renamed),
            e->Key(&input));
  EXPECT_NE(Expr::Gt(Expr::Column("w"), Expr::Literal(int64_t{5}))
                ->Key(&input),
            e->Key(&input));
}

TEST(ExprKeyTest, LiteralsThatPrintAlikeKeyApart) {
  auto key = [](Datum d) { return Expr::Literal(std::move(d))->Key(nullptr); };
  EXPECT_NE(key(int32_t{1}), key(int64_t{1}));
  EXPECT_NE(key(int64_t{1}), key(1.0));
  EXPECT_NE(key(-0.0), key(0.0));
  EXPECT_NE(key(std::string("a")), key(std::string("a'")));
  // A string equal to another literal's text.
  EXPECT_NE(key(std::string("1")), key(int32_t{1}));
}

TEST(ExprRenameTest, RenamesAllReferences) {
  ExprPtr e = Expr::And(Expr::Gt(Expr::Column("x"), Expr::Column("y")),
                        Expr::Eq(Expr::Column("x"), Expr::Literal(int64_t{1})));
  ExprPtr r = e->Rename({{"x", "u"}});
  std::set<std::string> cols;
  r->CollectColumns(&cols);
  EXPECT_EQ(cols, (std::set<std::string>{"u", "y"}));
}

TEST(ExprConjunctsTest, SplitAndRebuild) {
  ExprPtr a = Expr::Gt(Expr::Column("x"), Expr::Literal(int64_t{1}));
  ExprPtr b = Expr::Lt(Expr::Column("y"), Expr::Literal(int64_t{2}));
  ExprPtr c = Expr::Eq(Expr::Column("z"), Expr::Literal(int64_t{3}));
  ExprPtr all = Expr::And(Expr::And(a, b), c);
  auto parts = SplitConjuncts(all);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0]->Key(nullptr), a->Key(nullptr));
  ExprPtr rebuilt = AndAll(parts);
  EXPECT_EQ(rebuilt->Key(nullptr), all->Key(nullptr));
  // OR is not split.
  EXPECT_EQ(SplitConjuncts(Expr::Or(a, b)).size(), 1u);
  EXPECT_EQ(AndAll({}), nullptr);
}

TEST(AggregateTest, ResultTypes) {
  EXPECT_EQ(AggResultType(AggFunc::kSum, TypeId::kInt32), TypeId::kInt64);
  EXPECT_EQ(AggResultType(AggFunc::kSum, TypeId::kDouble), TypeId::kDouble);
  EXPECT_EQ(AggResultType(AggFunc::kCount, TypeId::kString), TypeId::kInt64);
  EXPECT_EQ(AggResultType(AggFunc::kAvg, TypeId::kInt32), TypeId::kDouble);
  EXPECT_EQ(AggResultType(AggFunc::kMin, TypeId::kDate), TypeId::kDate);
}

TEST(AggregateTest, DecomposeSumCountMinMax) {
  // Each of these is its own partial, named fresh against the scope.
  std::set<std::string> taken = {"p_p0"};
  for (AggFunc fn : {AggFunc::kSum, AggFunc::kCount, AggFunc::kMin}) {
    AggItem item{fn, Expr::Column("v"), "x"};
    std::vector<AggItem> partials = DecomposeAggregate(item, "p", &taken);
    ASSERT_EQ(partials.size(), 1u);
    EXPECT_EQ(partials[0].fn, fn);
    EXPECT_EQ(partials[0].arg->Key(nullptr), item.arg->Key(nullptr));
    EXPECT_NE(partials[0].out_name, "p_p0");
  }
  EXPECT_EQ(taken.size(), 4u);

  // Re-aggregation: COUNT merges by SUM, the others by themselves.
  std::vector<AggItem> items = {{AggFunc::kSum, Expr::Column("v"), "s"},
                                {AggFunc::kCount, Expr::Literal(int64_t{1}),
                                 "c"},
                                {AggFunc::kMin, Expr::Column("v"), "m"}};
  std::optional<Reaggregation> r =
      Reaggregate(items, nullptr, items, nullptr, {"g"}, "t", {});
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(r->outer.size(), 3u);
  EXPECT_EQ(r->outer[0].fn, AggFunc::kSum);
  EXPECT_EQ(r->outer[1].fn, AggFunc::kSum);  // count of union = sum of counts
  EXPECT_EQ(r->outer[2].fn, AggFunc::kMin);
  EXPECT_EQ(r->outer[1].arg->column_name(), "c");
  ASSERT_EQ(r->final.size(), 4u);
  EXPECT_EQ(r->final[0].out_name, "g");
  EXPECT_EQ(r->final[2].out_name, "c");
  EXPECT_EQ(r->final[2].expr->column_name(), r->outer[1].out_name);
}

TEST(AggregateTest, DecomposeAvgNeedsSumAndCount) {
  std::set<std::string> taken;
  AggItem avg{AggFunc::kAvg, Expr::Column("v"), "a"};
  std::vector<AggItem> partials = DecomposeAggregate(avg, "p", &taken);
  ASSERT_EQ(partials.size(), 2u);
  EXPECT_EQ(partials[0].fn, AggFunc::kSum);
  EXPECT_EQ(partials[1].fn, AggFunc::kCount);

  // AVG re-aggregates from its SUM and COUNT partials...
  std::optional<Reaggregation> r =
      Reaggregate({avg}, nullptr, partials, nullptr, {}, "t", {});
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(r->outer.size(), 2u);
  ASSERT_EQ(r->final.size(), 1u);
  EXPECT_EQ(r->final[0].expr->kind(), ExprKind::kArith);
  // ... and from nothing less, as MIN does not from SUM and COUNT.
  EXPECT_FALSE(Reaggregate({avg}, nullptr, {partials[0]}, nullptr, {}, "t", {})
                   .has_value());
  AggItem min{AggFunc::kMin, Expr::Column("v"), "m"};
  EXPECT_FALSE(
      Reaggregate({min}, nullptr, partials, nullptr, {}, "t", {}).has_value());
  // Derivable answers the same without building anything.
  EXPECT_TRUE(Derivable({avg}, nullptr, partials, nullptr));
  EXPECT_FALSE(Derivable({avg}, nullptr, {partials[0]}, nullptr));
  EXPECT_FALSE(Derivable({min}, nullptr, partials, nullptr));
}

TEST(AggregateTest, ReaggregateTemporariesAvoidEveryName) {
  // Group "t0" and output "t1" take the temporaries' preferred names.
  std::vector<AggItem> items = {{AggFunc::kSum, Expr::Column("v"), "x"},
                                {AggFunc::kMax, Expr::Column("v"), "t1"}};
  std::optional<Reaggregation> r =
      Reaggregate(items, nullptr, items, nullptr, {"t0"}, "t", {"x_scope"});
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(r->outer.size(), 2u);
  EXPECT_EQ(r->outer[0].out_name, "t0_1");
  EXPECT_EQ(r->outer[1].out_name, "t1_1");

  std::set<std::string> taken = {"a", "a_1"};
  EXPECT_EQ(FreshName("b", &taken), "b");
  EXPECT_EQ(FreshName("a", &taken), "a_2");
  EXPECT_EQ(FreshName("a", &taken), "a_3");
}

}  // namespace
}  // namespace recycledb
