// Tests for the canonicalizing rewrite pass: expression rules (constant
// folding that mirrors Eval, comparison normalization, NOT elimination,
// AND/OR flattening with deterministic ordering, per-column range
// merging, IN-list normalization), plan rules (Select merging and
// pushdown, identity-Project elimination, Limit collapsing), idempotence
// and pointer stability, result-preserving equivalence of syntactic
// variants, the cache-sharing ablation, and the CachedScan cache-key
// (cold-tier identity) surfaced through Explain.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "plan/canonicalize.h"
#include "recycledb/recycledb.h"
#include "test_util.h"

namespace recycledb {
namespace {

using recycledb::testing::RowMultiset;

std::string KeyOf(const ExprPtr& e) { return e->Key(nullptr); }
std::string CanonKey(const ExprPtr& e) { return KeyOf(CanonicalizeExpr(e)); }

ExprPtr Col(const char* name) { return Expr::Column(name); }

// ---------------------------------------------------------------------------
// Expression rules
// ---------------------------------------------------------------------------

TEST(CanonicalizeExprTest, FlipsLiteralToTheRight) {
  // `5 < x` -> `x > 5`; `5 >= x` -> `x <= 5`; `5 = x` -> `x = 5`.
  EXPECT_EQ(CanonKey(Expr::Lt(Expr::Literal(5), Col("x"))),
            KeyOf(Expr::Gt(Col("x"), Expr::Literal(5))));
  EXPECT_EQ(CanonKey(Expr::Ge(Expr::Literal(5), Col("x"))),
            KeyOf(Expr::Le(Col("x"), Expr::Literal(5))));
  EXPECT_EQ(CanonKey(Expr::Eq(Expr::Literal(5), Col("x"))),
            KeyOf(Expr::Eq(Col("x"), Expr::Literal(5))));
}

TEST(CanonicalizeExprTest, FoldsArithmeticLikeEval) {
  // int32 + int32 stays int32.
  EXPECT_EQ(CanonKey(Expr::Arith(ArithOp::kAdd, Expr::Literal(2000),
                                Expr::Literal(10))),
            KeyOf(Expr::Literal(2010)));
  // Division by zero yields 0 in every numeric type (Eval's rule).
  EXPECT_EQ(CanonKey(Expr::Arith(ArithOp::kDiv, Expr::Literal(7.0),
                                Expr::Literal(0.0))),
            KeyOf(Expr::Literal(0.0)));
  EXPECT_EQ(CanonKey(Expr::Arith(ArithOp::kDiv, Expr::Literal(int64_t{7}),
                                Expr::Literal(int64_t{0}))),
            KeyOf(Expr::Literal(int64_t{0})));
  // Mixed int/double promotes to double.
  EXPECT_EQ(CanonKey(Expr::Arith(ArithOp::kMul, Expr::Literal(2),
                                Expr::Literal(1.5))),
            KeyOf(Expr::Literal(3.0)));
  // Nested constant subtrees fold bottom-up: (2000 + 5) + 5 -> 2010.
  EXPECT_EQ(CanonKey(Expr::Arith(
                ArithOp::kAdd,
                Expr::Arith(ArithOp::kAdd, Expr::Literal(2000),
                            Expr::Literal(5)),
                Expr::Literal(5))),
            KeyOf(Expr::Literal(2010)));
}

TEST(CanonicalizeExprTest, FoldsComparisonsUnderTheValueOrder) {
  EXPECT_EQ(CanonKey(Expr::Lt(Expr::Literal(1), Expr::Literal(2))),
            KeyOf(Expr::Literal(true)));
  // Numeric comparison crosses int/double exactly as Eval does.
  EXPECT_EQ(CanonKey(Expr::Eq(Expr::Literal(2), Expr::Literal(2.0))),
            KeyOf(Expr::Literal(true)));
  constexpr int64_t k53 = int64_t{1} << 53;
  EXPECT_EQ(CanonKey(Expr::Eq(Expr::Literal(k53 + 1),
                              Expr::Literal(static_cast<double>(k53)))),
            KeyOf(Expr::Literal(false)));
  // NaN equals NaN and lies above every number; -0.0 equals 0.0.
  const double nan = std::nan("");
  EXPECT_EQ(CanonKey(Expr::Eq(Expr::Literal(nan), Expr::Literal(nan))),
            KeyOf(Expr::Literal(true)));
  EXPECT_EQ(CanonKey(Expr::Lt(Expr::Literal(1e300), Expr::Literal(nan))),
            KeyOf(Expr::Literal(true)));
  EXPECT_EQ(CanonKey(Expr::Eq(Expr::Literal(-0.0), Expr::Literal(0.0))),
            KeyOf(Expr::Literal(true)));
  EXPECT_EQ(CanonKey(Expr::Eq(Expr::Literal(std::string("a")),
                             Expr::Literal(std::string("b")))),
            KeyOf(Expr::Literal(false)));
}

TEST(CanonicalizeExprTest, EliminatesNotOverComparisons) {
  // NULL-free engine under a total order: NOT(a < b) is exactly a >= b.
  EXPECT_EQ(CanonKey(Expr::Not(Expr::Lt(Col("x"), Expr::Literal(5)))),
            KeyOf(Expr::Ge(Col("x"), Expr::Literal(5))));
  // Double negation disappears; NOT over LIKE flips the match kind.
  ExprPtr like = Expr::Like(LikeKind::kContains, Col("city"), "bur");
  ExprPtr once = CanonicalizeExpr(Expr::Not(like));
  ASSERT_EQ(once->kind(), ExprKind::kLike);
  EXPECT_EQ(once->like_kind(), LikeKind::kNotContains);
  EXPECT_EQ(CanonKey(Expr::Not(Expr::Not(like))), KeyOf(like));
}

TEST(CanonicalizeExprTest, ConjunctOrderIsDeterministic) {
  // Non-range conjuncts (no column-vs-literal interval shape) keep their
  // identity but land in one key-sorted order.
  ExprPtr p1 = Expr::Like(LikeKind::kContains, Col("city"), "bur");
  ExprPtr p2 = Expr::Eq(Col("a"), Col("b"));
  ExprPtr p3 = Expr::In(Col("g"), {Datum{1}, Datum{2}});
  std::string fp = CanonKey(Expr::And(p1, Expr::And(p2, p3)));
  EXPECT_EQ(CanonKey(Expr::And(Expr::And(p3, p1), p2)), fp);
  EXPECT_EQ(CanonKey(Expr::And(p2, Expr::And(p3, p1))), fp);
}

TEST(CanonicalizeExprTest, DeduplicatesConjuncts) {
  ExprPtr p = Expr::Like(LikeKind::kPrefix, Col("city"), "Ed");
  EXPECT_EQ(CanonKey(Expr::And(p, p)), KeyOf(p));
}

TEST(CanonicalizeExprTest, BoolIdentityAndAbsorbingElements) {
  ExprPtr p = Expr::Eq(Col("a"), Col("b"));
  EXPECT_EQ(CanonKey(Expr::And(p, Expr::Literal(true))), KeyOf(p));
  EXPECT_EQ(CanonKey(Expr::And(p, Expr::Literal(false))),
            KeyOf(Expr::Literal(false)));
  EXPECT_EQ(CanonKey(Expr::Or(p, Expr::Literal(false))), KeyOf(p));
  EXPECT_EQ(CanonKey(Expr::Or(p, Expr::Literal(true))),
            KeyOf(Expr::Literal(true)));
}

TEST(CanonicalizeExprTest, MergesPerColumnRanges) {
  // `x > 1 AND x > 2` -> `x > 2`.
  EXPECT_EQ(CanonKey(Expr::And(Expr::Gt(Col("x"), Expr::Literal(1.0)),
                              Expr::Gt(Col("x"), Expr::Literal(2.0)))),
            KeyOf(Expr::Gt(Col("x"), Expr::Literal(2.0))));
  // `x >= 5 AND x <= 5` -> `x = 5`.
  EXPECT_EQ(CanonKey(Expr::And(Expr::Ge(Col("x"), Expr::Literal(5)),
                              Expr::Le(Col("x"), Expr::Literal(5)))),
            KeyOf(Expr::Eq(Col("x"), Expr::Literal(5))));
  // Contradiction -> FALSE.
  EXPECT_EQ(CanonKey(Expr::And(Expr::Gt(Col("x"), Expr::Literal(9)),
                              Expr::Lt(Col("x"), Expr::Literal(1)))),
            KeyOf(Expr::Literal(false)));
  // Ranges on different columns merge independently.
  EXPECT_EQ(CanonKey(Expr::And(
                Expr::And(Expr::Gt(Col("x"), Expr::Literal(1.0)),
                          Expr::Lt(Col("y"), Expr::Literal(9.0))),
                Expr::Gt(Col("x"), Expr::Literal(4.0)))),
            CanonKey(Expr::And(Expr::Gt(Col("x"), Expr::Literal(4.0)),
                              Expr::Lt(Col("y"), Expr::Literal(9.0)))));
}

TEST(CanonicalizeExprTest, SortsAndDedupsInLists) {
  EXPECT_EQ(CanonKey(Expr::In(Col("g"), {Datum{3}, Datum{1}, Datum{3},
                                        Datum{2}})),
            KeyOf(Expr::In(Col("g"), {Datum{1}, Datum{2}, Datum{3}})));
}

TEST(CanonicalizeExprTest, IdempotentAndPointerStable) {
  std::vector<ExprPtr> exprs = {
      Expr::And(Expr::Gt(Col("x"), Expr::Literal(1.0)),
                Expr::Gt(Col("x"), Expr::Literal(2.0))),
      Expr::Not(Expr::Lt(Col("x"), Expr::Literal(5))),
      Expr::Lt(Expr::Literal(5), Col("x")),
      Expr::In(Col("g"), {Datum{3}, Datum{1}}),
  };
  for (const ExprPtr& e : exprs) {
    ExprPtr c = CanonicalizeExpr(e);
    // Second pass is the identity, by pointer.
    EXPECT_EQ(CanonicalizeExpr(c), c);
  }
  // An already-canonical input comes back as the same pointer.
  ExprPtr canonical = Expr::Gt(Col("x"), Expr::Literal(5));
  EXPECT_EQ(CanonicalizeExpr(canonical), canonical);
}

/// Joins `parts` under `op` in one of four spellings: left-deep,
/// right-deep, balanced, or left-deep over a shuffled order.
ExprPtr Spell(LogicalOp op, std::vector<ExprPtr> parts, int spelling,
              Rng* rng) {
  auto join = [op](ExprPtr a, ExprPtr b) {
    return op == LogicalOp::kAnd ? Expr::And(std::move(a), std::move(b))
                                 : Expr::Or(std::move(a), std::move(b));
  };
  if (spelling == 3) {
    for (size_t i = parts.size(); i > 1; --i) {
      std::swap(parts[i - 1], parts[rng->Uniform(0, i - 1)]);
    }
  }
  if (spelling == 1) {
    ExprPtr acc = parts.back();
    for (size_t i = parts.size() - 1; i-- > 0;) acc = join(parts[i], acc);
    return acc;
  }
  if (spelling == 2) {
    while (parts.size() > 1) {
      std::vector<ExprPtr> next;
      for (size_t i = 0; i + 1 < parts.size(); i += 2) {
        next.push_back(join(parts[i], parts[i + 1]));
      }
      if (parts.size() % 2 == 1) next.push_back(parts.back());
      parts = std::move(next);
    }
    return parts[0];
  }
  ExprPtr acc = parts[0];
  for (size_t i = 1; i < parts.size(); ++i) acc = join(acc, parts[i]);
  return acc;
}

/// A random operand: a range or equality term over x or y, a LIKE, an
/// IN list, or a short chain under the other operator.
ExprPtr RandomOperand(LogicalOp op, Rng* rng, int depth) {
  ExprPtr col = Col(rng->Uniform(0, 1) == 0 ? "x" : "y");
  const int32_t v = static_cast<int32_t>(rng->Uniform(0, 9));
  switch (rng->Uniform(0, depth > 0 ? 5 : 4)) {
    case 0:
      return Expr::Gt(col, Expr::Literal(v));
    case 1:
      return Expr::Le(col, Expr::Literal(v));
    case 2:
      return Expr::Eq(col, Expr::Literal(v));
    case 3:
      return Expr::Like(LikeKind::kContains, Col("s"),
                        std::string(1, static_cast<char>('a' + v % 4)));
    case 4:
      return Expr::In(
          col, {Datum{v}, Datum{static_cast<int32_t>(rng->Uniform(0, 9))}});
    default: {
      const LogicalOp other =
          op == LogicalOp::kAnd ? LogicalOp::kOr : LogicalOp::kAnd;
      std::vector<ExprPtr> kids;
      for (int64_t i = rng->Uniform(2, 3); i > 0; --i) {
        kids.push_back(RandomOperand(other, rng, depth - 1));
      }
      return Spell(other, std::move(kids), 0, rng);
    }
  }
}

TEST(CanonicalizeExprTest, ChainSpellingsShareOneKey) {
  Rng rng(42);
  for (int trial = 0; trial < 300; ++trial) {
    const LogicalOp op = trial % 2 == 0 ? LogicalOp::kAnd : LogicalOp::kOr;
    std::vector<ExprPtr> parts;
    for (int64_t i = rng.Uniform(2, 12); i > 0; --i) {
      parts.push_back(RandomOperand(op, &rng, 1));
    }
    const std::string key = CanonKey(Spell(op, parts, 0, &rng));
    for (int spelling = 1; spelling < 4; ++spelling) {
      EXPECT_EQ(CanonKey(Spell(op, parts, spelling, &rng)), key)
          << "trial " << trial << ", spelling " << spelling;
    }
  }
}

TEST(CanonicalizeExprTest, TenThousandTermChainsCanonicalizeWithinASecond) {
  // A left-deep chain, as the parser builds it: every OR term distinct,
  // and AND terms that no range folds away.
  constexpr int kTerms = 10000;
  std::vector<ExprPtr> ors, ands;
  for (int i = 0; i < kTerms; ++i) {
    ors.push_back(Expr::Eq(Col("x"), Expr::Literal(kTerms - i)));
    ands.push_back(Expr::Ne(Col("x"), Expr::Literal(kTerms - i)));
  }
  Rng rng(7);
  for (auto& [op, parts] : {std::make_pair(LogicalOp::kOr, ors),
                            std::make_pair(LogicalOp::kAnd, ands)}) {
    const ExprPtr chain = Spell(op, parts, 0, &rng);
    const auto start = std::chrono::steady_clock::now();
    const ExprPtr canonical = CanonicalizeExpr(chain);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    EXPECT_LT(seconds, 1.0);
    // Every term is distinct, so all of them stay: the canonical chain
    // is left-deep over kTerms operands.
    int operands = 1;
    for (const Expr* e = canonical.get(); e->kind() == ExprKind::kLogical;
         e = e->children()[0].get()) {
      ++operands;
    }
    EXPECT_EQ(operands, kTerms);
  }
}

// ---------------------------------------------------------------------------
// Plan rules
// ---------------------------------------------------------------------------

PlanPtr TScan() { return PlanNode::Scan("t", {"a", "g", "v"}); }

std::string PlanCanonFp(const PlanPtr& p) {
  return CanonicalizePlan(p)->TemplateFingerprint();
}

TEST(CanonicalizePlanTest, MergesSelectChains) {
  ExprPtr p1 = Expr::Gt(Col("v"), Expr::Literal(10.0));
  ExprPtr p2 = Expr::Like(LikeKind::kContains, Col("g"), "x");
  EXPECT_EQ(PlanCanonFp(PlanNode::Select(PlanNode::Select(TScan(), p1), p2)),
            PlanCanonFp(PlanNode::Select(TScan(), Expr::And(p1, p2))));
}

TEST(CanonicalizePlanTest, DropsTautologicalSelect) {
  PlanPtr scan = TScan();
  PlanPtr canon = CanonicalizePlan(PlanNode::Select(scan, Expr::Literal(true)));
  EXPECT_EQ(canon, scan);  // the child itself, shared
}

TEST(CanonicalizePlanTest, PushesSelectBelowStableSort) {
  ExprPtr pred = Expr::Gt(Col("v"), Expr::Literal(10.0));
  std::vector<SortKey> keys{{"v", true}};
  EXPECT_EQ(
      PlanCanonFp(PlanNode::Select(PlanNode::OrderBy(TScan(), keys), pred)),
      PlanCanonFp(PlanNode::OrderBy(PlanNode::Select(TScan(), pred), keys)));
}

TEST(CanonicalizePlanTest, PushesSelectBelowRenameProject) {
  std::vector<ProjItem> items{{Col("v"), "val"}, {Col("g"), "grp"}};
  PlanPtr above = PlanNode::Select(PlanNode::Project(TScan(), items),
                                   Expr::Gt(Col("val"), Expr::Literal(3.0)));
  PlanPtr below = PlanNode::Project(
      PlanNode::Select(TScan(), Expr::Gt(Col("v"), Expr::Literal(3.0))),
      items);
  EXPECT_EQ(PlanCanonFp(above), PlanCanonFp(below));
}

TEST(CanonicalizePlanTest, EliminatesIdentityProject) {
  std::vector<ProjItem> identity{{Col("a"), "a"}, {Col("g"), "g"},
                                 {Col("v"), "v"}};
  EXPECT_EQ(PlanCanonFp(PlanNode::Project(TScan(), identity)),
            PlanCanonFp(TScan()));
}

TEST(CanonicalizePlanTest, ComposesRenameChains) {
  PlanPtr inner = PlanNode::Project(TScan(), {{Col("a"), "x"}});
  PlanPtr outer = PlanNode::Project(inner, {{Col("x"), "y"}});
  EXPECT_EQ(PlanCanonFp(outer),
            PlanCanonFp(PlanNode::Project(TScan(), {{Col("a"), "y"}})));
}

TEST(CanonicalizePlanTest, CollapsesNestedLimits) {
  EXPECT_EQ(PlanCanonFp(PlanNode::Limit(PlanNode::Limit(TScan(), 10), 5)),
            PlanCanonFp(PlanNode::Limit(TScan(), 5)));
  EXPECT_EQ(PlanCanonFp(PlanNode::Limit(PlanNode::Limit(TScan(), 5), 10)),
            PlanCanonFp(PlanNode::Limit(TScan(), 5)));
}

TEST(CanonicalizePlanTest, KeepsLimitOverOrderByAsIs) {
  // Limit(OrderBy) and TopN may surface different ties at the cut
  // boundary; the bit-identity contract forbids rewriting one into the
  // other.
  PlanPtr plan = PlanNode::Limit(PlanNode::OrderBy(TScan(), {{"v", true}}), 5);
  EXPECT_EQ(CanonicalizePlan(plan)->type(), OpType::kLimit);
}

TEST(CanonicalizePlanTest, IdempotentAndPointerStable) {
  PlanPtr noisy = PlanNode::Select(
      PlanNode::Select(PlanNode::Project(TScan(), {{Col("v"), "val"}}),
                       Expr::Lt(Expr::Literal(3.0), Col("val"))),
      Expr::Gt(Col("val"), Expr::Literal(1.0)));
  PlanPtr canon = CanonicalizePlan(noisy);
  EXPECT_EQ(CanonicalizePlan(canon), canon);
  // An untouched plan passes through by pointer (sharing preserved).
  PlanPtr clean = PlanNode::Select(TScan(),
                                   Expr::Gt(Col("v"), Expr::Literal(1.0)));
  EXPECT_EQ(CanonicalizePlan(clean), clean);
}

// ---------------------------------------------------------------------------
// Result-preserving equivalence + cache sharing (the paper's recycler
// sees one template where the text layer saw many spellings)
// ---------------------------------------------------------------------------

class EquivalenceTest : public ::testing::Test {
 protected:
  static TablePtr MakeT() {
    Schema s({{"a", TypeId::kInt32},
              {"g", TypeId::kInt32},
              {"v", TypeId::kDouble}});
    TablePtr t = MakeTable(s);
    for (int i = 0; i < 20000; ++i) {
      t->AppendRow({int32_t{i % 97}, int32_t{i % 7},
                    static_cast<double>(i % 331)});
    }
    return t;
  }

  static std::unique_ptr<Database> OpenDb(bool canonicalize) {
    DatabaseOptions options;
    options.recycler.mode = RecyclerMode::kSpeculation;
    options.canonicalize_plans = canonicalize;
    std::unique_ptr<Database> db = Database::OpenOrDie(options);
    EXPECT_TRUE(db->CreateTable("t", MakeT()).ok());
    return db;
  }
};

TEST_F(EquivalenceTest, VariantsShareOneCacheEntryAndResults) {
  auto db = OpenDb(/*canonicalize=*/true);
  ExprPtr base_pred = Expr::And(Expr::Ge(Col("v"), Expr::Literal(50.0)),
                                Expr::Lt(Col("v"), Expr::Literal(200.0)));
  std::vector<ExprPtr> variants = {
      base_pred,
      // Reordered + flipped.
      Expr::And(Expr::Lt(Col("v"), Expr::Literal(200.0)),
                Expr::Le(Expr::Literal(50.0), Col("v"))),
      // Folded arithmetic bounds.
      Expr::And(Expr::Ge(Col("v"), Expr::Arith(ArithOp::kMul,
                                               Expr::Literal(25.0),
                                               Expr::Literal(2.0))),
                Expr::Lt(Col("v"), Expr::Literal(200.0))),
      // NOT-eliminated lower bound.
      Expr::And(Expr::Not(Expr::Lt(Col("v"), Expr::Literal(50.0))),
                Expr::Lt(Col("v"), Expr::Literal(200.0))),
      // Redundant conjunct.
      Expr::And(base_pred, Expr::Ge(Col("v"), Expr::Literal(10.0))),
      // Tautological conjunct.
      Expr::And(base_pred, Expr::Literal(true)),
  };
  Result baseline;
  for (size_t i = 0; i < variants.size(); ++i) {
    Query q = Query::FromPlan(PlanNode::Select(TScan(), variants[i]));
    // Identical canonical identity...
    EXPECT_EQ(CanonicalizePlan(q.plan())->TemplateFingerprint(),
              CanonicalizePlan(PlanNode::Select(TScan(), base_pred))
                  ->TemplateFingerprint())
        << "variant " << i;
    // ...and identical rows through the engine, with every variant after
    // the first answered from the first one's cache entry.
    Result r = db->Execute(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (i == 0) {
      baseline = r;
      continue;
    }
    EXPECT_TRUE(r.recycled()) << "variant " << i;
    ASSERT_EQ(r.num_rows(), baseline.num_rows());
    EXPECT_EQ(RowMultiset(*r.table()), RowMultiset(*baseline.table()));
  }
}

TEST_F(EquivalenceTest, AblationCanonicalizationOffMissesNoisyVariants) {
  // The same pair of semantically equal queries, on both arms. The
  // variant hides its constant behind arithmetic, which defeats exact
  // fingerprint matching AND range-spec extraction when the
  // canonicalizer is off.
  ExprPtr plain = Expr::Ge(Col("v"), Expr::Literal(100.0));
  auto variant = [] {
    return Expr::Ge(Col("v"), Expr::Arith(ArithOp::kAdd, Expr::Literal(60.0),
                                          Expr::Literal(40.0)));
  };
  for (bool canonicalize : {true, false}) {
    auto db = OpenDb(canonicalize);
    Result first = db->Execute(Query::FromPlan(PlanNode::Select(TScan(),
                                                                plain)));
    ASSERT_TRUE(first.ok());
    Result second =
        db->Execute(Query::FromPlan(PlanNode::Select(TScan(), variant())));
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second.recycled(), canonicalize);
    // Correctness does not depend on the flag.
    EXPECT_EQ(RowMultiset(*second.table()), RowMultiset(*first.table()));
  }
}

/// Rows of `SELECT v FROM n WHERE pred` on a fresh database over n(v),
/// with the canonicalizer on or off.
int64_t CountNanRows(const std::vector<double>& values, const ExprPtr& pred,
                     bool canonicalize) {
  DatabaseOptions options;
  options.canonicalize_plans = canonicalize;
  auto db = Database::OpenOrDie(options);
  TablePtr t = MakeTable(Schema({{"v", TypeId::kDouble}}));
  for (double v : values) t->AppendRow({v});
  EXPECT_TRUE(db->CreateTable("n", t).ok());
  Result r = db->Execute(PlanNode::Select(PlanNode::Scan("n", {"v"}), pred));
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.num_rows();
}

TEST(ValueOrderCanonicalTest, NanBoundMergesTheSameInEitherConjunctOrder) {
  // -46 ... 53, then 50 NaNs: `v < 5.0` holds for 51 rows, `v < NaN` for
  // every number.
  std::vector<double> values;
  for (int i = -46; i <= 53; ++i) values.push_back(i);
  for (int i = 0; i < 50; ++i) values.push_back(std::nan(""));
  ExprPtr below_nan = Expr::Lt(Col("v"), Expr::Literal(std::nan("")));
  ExprPtr below_5 = Expr::Lt(Col("v"), Expr::Literal(5.0));
  for (bool canonicalize : {true, false}) {
    SCOPED_TRACE(canonicalize ? "canonical" : "raw");
    EXPECT_EQ(CountNanRows(values, Expr::And(below_nan, below_5), canonicalize),
              51);
    EXPECT_EQ(CountNanRows(values, Expr::And(below_5, below_nan), canonicalize),
              51);
    EXPECT_EQ(CountNanRows(values, below_nan, canonicalize), 100);
  }
}

TEST(ValueOrderCanonicalTest, NotEliminationKeepsTheNanRow) {
  // NaN lies above 50, so NOT (v < 50) and v >= 50 both hold for it.
  const std::vector<double> values = {std::nan(""), 100, 10};
  ExprPtr pred = Expr::Not(Expr::Lt(Col("v"), Expr::Literal(50)));
  EXPECT_EQ(CountNanRows(values, pred, false), 2);
  EXPECT_EQ(CountNanRows(values, pred, true), 2);
}

TEST_F(EquivalenceTest, SessionExplainShowsPreAndPostCanonicalization) {
  auto db = OpenDb(/*canonicalize=*/true);
  auto session = db->Connect({});
  Query noisy = Query::FromPlan(PlanNode::Select(
      TScan(), Expr::Lt(Expr::Literal(100.0), Col("v"))));
  std::string explain = session->Explain(noisy);
  EXPECT_NE(explain.find("plan "), std::string::npos) << explain;
  EXPECT_NE(explain.find("canonical "), std::string::npos) << explain;
  EXPECT_EQ(explain.find("(already canonical)"), std::string::npos);

  Query clean = Query::FromPlan(PlanNode::Select(
      TScan(), Expr::Gt(Col("v"), Expr::Literal(100.0))));
  EXPECT_NE(session->Explain(clean).find("(already canonical)"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// CachedScan cache keys: Explain prints the canonical subtree key (the
// cold-tier identity) for every reuse flavor, and the key is
// restart-stable (two engines over the same data print the same key)
// ---------------------------------------------------------------------------

class CacheKeyTest : public EquivalenceTest {
 protected:
  static PlanPtr RangeQuery(double lo, double hi) {
    return PlanNode::Select(
        TScan(),
        Expr::And(Expr::Gt(Col("v"), Expr::Literal(lo)),
                  Expr::Lt(Col("v"), Expr::Literal(hi))));
  }

  /// All `key=` values in an Explain rendering, in print order.
  static std::vector<std::string> ExtractKeys(const std::string& explain) {
    std::vector<std::string> keys;
    size_t pos = 0;
    while ((pos = explain.find(" key=", pos)) != std::string::npos) {
      pos += 5;
      size_t end = explain.find('\n', pos);
      keys.push_back(explain.substr(
          pos, end == std::string::npos ? std::string::npos : end - pos));
    }
    return keys;
  }

  /// Warms the cache with `warm`, then returns the Explain of the
  /// recycler's rewritten plan for `probe` (white-box: the facade only
  /// surfaces the rewritten plan through Recycler::Prepare). Plans are
  /// canonicalized first, as Session would before handing them down.
  static std::string RewrittenExplain(Database& db, const PlanPtr& warm,
                                      const PlanPtr& probe) {
    EXPECT_TRUE(db.Execute(CanonicalizePlan(warm)).ok());
    auto prepared = db.recycler().Prepare(CanonicalizePlan(probe));
    return prepared->plan()->Explain();
  }
};

TEST_F(CacheKeyTest, ExactReuseExplainPrintsTheSubtreeKey) {
  auto db = OpenDb(/*canonicalize=*/true);
  std::string explain =
      RewrittenExplain(*db, RangeQuery(10, 50), RangeQuery(10, 50));
  EXPECT_NE(explain.find("CachedScan"), std::string::npos) << explain;
  std::vector<std::string> keys = ExtractKeys(explain);
  ASSERT_EQ(keys.size(), 1u) << explain;
  EXPECT_FALSE(keys[0].empty());

  // Restart-stable: a second engine over identical data prints the same
  // key (the property that makes the key a valid cold-tier identity).
  auto db2 = OpenDb(/*canonicalize=*/true);
  std::vector<std::string> keys2 = ExtractKeys(
      RewrittenExplain(*db2, RangeQuery(10, 50), RangeQuery(10, 50)));
  ASSERT_EQ(keys2.size(), 1u);
  EXPECT_EQ(keys2[0], keys[0]);
}

TEST_F(CacheKeyTest, SubsumptionDerivedScanPrintsTheSubsumerKey) {
  auto db = OpenDb(/*canonicalize=*/true);
  // The probe's range sits strictly inside the cached one: the rewrite
  // derives a CachedScan from the superset entry plus a residual filter.
  std::string explain =
      RewrittenExplain(*db, RangeQuery(10, 80), RangeQuery(20, 30));
  EXPECT_NE(explain.find("CachedScan"), std::string::npos) << explain;
  std::vector<std::string> keys = ExtractKeys(explain);
  ASSERT_GE(keys.size(), 1u) << explain;
  for (const std::string& k : keys) EXPECT_FALSE(k.empty());
}

TEST_F(CacheKeyTest, StitchedPlanPrintsAKeyPerReusedSlice) {
  DatabaseOptions options;
  options.recycler.mode = RecyclerMode::kSpeculation;
  options.recycler.enable_subsumption = true;
  options.recycler.enable_partial_reuse = true;
  auto db = Database::OpenOrDie(options);
  ASSERT_TRUE(db->CreateTable("t", MakeT()).ok());
  // Overlapping (not containing) ranges force the stitched path: the
  // cached [10,50] slice is clipped and unioned with a delta scan.
  std::string explain =
      RewrittenExplain(*db, RangeQuery(10, 50), RangeQuery(30, 80));
  EXPECT_NE(explain.find("CachedScan"), std::string::npos) << explain;
  std::vector<std::string> keys = ExtractKeys(explain);
  ASSERT_GE(keys.size(), 1u) << explain;
  for (const std::string& k : keys) EXPECT_FALSE(k.empty());
}

}  // namespace
}  // namespace recycledb
