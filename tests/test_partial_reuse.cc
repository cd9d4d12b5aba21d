// Tests for partial-reuse subsumption (range stitching): interval math,
// predicate decomposition, the interval index, stitched-plan correctness
// against cold execution (bit-identical row multisets), boundary-equality
// dedup, open-ended intervals, full cover via multiple slices, stitched
// result admission/widening, invalidation, concurrent stitching, and the
// derived-reuse prefilter (it agrees with TrySubsumption and the stitch
// eligibility rule on random conjunct sets; cold candidates still load).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>

#include "common/rng.h"
#include "plan/table_function.h"
#include "recycler/interval_index.h"
#include "recycler/recycler.h"
#include "recycler/subsumption.h"
#include "recycledb/recycledb.h"
#include "test_util.h"

namespace recycledb {
namespace {

using recycledb::testing::RowMultiset;
using recycledb::testing::TempSpillDir;

RangeBound Lo(double v, bool inclusive) { return {false, Datum{v}, inclusive}; }
RangeBound Hi(double v, bool inclusive) { return {false, Datum{v}, inclusive}; }
const RangeBound kUnbounded;

// ---------------------------------------------------------------------------
// Interval math
// ---------------------------------------------------------------------------

TEST(IntervalMath, TighterBounds) {
  EXPECT_TRUE(LoTighter(Lo(5, true), Lo(4, true)));
  EXPECT_FALSE(LoTighter(Lo(4, true), Lo(5, true)));
  EXPECT_TRUE(LoTighter(Lo(5, false), Lo(5, true)));   // exclusive starts later
  EXPECT_FALSE(LoTighter(Lo(5, true), Lo(5, false)));
  EXPECT_TRUE(LoTighter(Lo(5, true), kUnbounded));
  EXPECT_FALSE(LoTighter(kUnbounded, Lo(5, true)));

  EXPECT_TRUE(HiTighter(Hi(4, true), Hi(5, true)));
  EXPECT_TRUE(HiTighter(Hi(5, false), Hi(5, true)));   // exclusive ends earlier
  EXPECT_TRUE(HiTighter(Hi(5, true), kUnbounded));
}

TEST(IntervalMath, EmptyAndOverlap) {
  EXPECT_TRUE(IntervalEmpty({Lo(5, true), Hi(4, true)}));
  EXPECT_FALSE(IntervalEmpty({Lo(5, true), Hi(5, true)}));   // point
  EXPECT_TRUE(IntervalEmpty({Lo(5, false), Hi(5, true)}));
  EXPECT_TRUE(IntervalEmpty({Lo(5, true), Hi(5, false)}));
  EXPECT_FALSE(IntervalEmpty({kUnbounded, Hi(5, false)}));
  EXPECT_FALSE(IntervalEmpty({Lo(5, false), kUnbounded}));

  ColumnInterval a{Lo(0, true), Hi(10, true)};
  EXPECT_TRUE(Overlaps(a, {Lo(10, true), Hi(20, true)}));  // closed boundary
  EXPECT_FALSE(Overlaps(a, {Lo(10, false), Hi(20, true)}));
  EXPECT_TRUE(Overlaps(a, {kUnbounded, Hi(0, true)}));
}

TEST(IntervalMath, Complements) {
  RangeBound hi = ComplementHi(Lo(5, false));  // values up to and incl. 5
  EXPECT_TRUE(hi.inclusive);
  RangeBound lo = ComplementLo(Hi(5, true));   // values strictly above 5
  EXPECT_FALSE(lo.inclusive);
}

// ---------------------------------------------------------------------------
// Predicate decomposition
// ---------------------------------------------------------------------------

TEST(ExtractRangeSpecs, SingleColumnWithOthers) {
  ExprPtr pred = Expr::And(
      Expr::And(Expr::Gt(Expr::Column("x"), Expr::Literal(10.0)),
                Expr::Lt(Expr::Column("x"), Expr::Literal(50.0))),
      Expr::Eq(Expr::Column("g"), Expr::Literal(int64_t{3})));
  auto specs = ExtractRangeSpecs(pred, nullptr);
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].column, "x");
  EXPECT_FALSE(specs[0].range.lo.inclusive);
  EXPECT_EQ(DatumAsDouble(specs[0].range.lo.value), 10.0);
  EXPECT_EQ(DatumAsDouble(specs[0].range.hi.value), 50.0);
  ASSERT_EQ(specs[0].others.size(), 1u);
  EXPECT_EQ(specs[0].other_keys.size(), 1u);
  EXPECT_EQ(specs[0].ordinal, -1);

  // Over an input, the column resolves to its ordinal and the other
  // conjuncts key by ordinal; `others` keep their names.
  const Schema input({{"g", TypeId::kInt64}, {"x", TypeId::kDouble}});
  specs = ExtractRangeSpecs(pred, &input);
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].column, "x");
  EXPECT_EQ(specs[0].ordinal, 1);
  EXPECT_EQ(specs[0].other_keys,
            ConjunctSet({Expr::Eq(Expr::Column("g"), Expr::Literal(int64_t{3}))
                             ->Key(&input)}));
  EXPECT_EQ(specs[0].others[0]->children()[0]->column_name(), "g");
}

TEST(ExtractRangeSpecs, TwoRangedColumnsYieldTwoSpecs) {
  // Each spec treats the OTHER column's range conjuncts as plain
  // fingerprint-matched conjuncts.
  ExprPtr pred = Expr::And(
      Expr::Ge(Expr::Column("x"), Expr::Literal(1.0)),
      Expr::Le(Expr::Column("y"), Expr::Literal(2.0)));
  auto specs = ExtractRangeSpecs(pred, nullptr);
  ASSERT_EQ(specs.size(), 2u);
  for (const auto& s : specs) {
    EXPECT_EQ(s.others.size(), 1u);
    EXPECT_EQ(s.other_keys.size(), 1u);
  }
}

TEST(ExtractRangeSpecs, MirroredLiteralAndContradiction) {
  // `5 < x` is a lower bound on x.
  auto specs = ExtractRangeSpecs(
      Expr::Lt(Expr::Literal(5.0), Expr::Column("x")), nullptr);
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_FALSE(specs[0].range.lo.unbounded);
  EXPECT_TRUE(specs[0].range.hi.unbounded);

  // Contradictory range (x > 9 AND x < 1) produces no spec.
  specs = ExtractRangeSpecs(
      Expr::And(Expr::Gt(Expr::Column("x"), Expr::Literal(9.0)),
                Expr::Lt(Expr::Column("x"), Expr::Literal(1.0))),
      nullptr);
  EXPECT_TRUE(specs.empty());
}

// ---------------------------------------------------------------------------
// Conjunct sets
// ---------------------------------------------------------------------------

/// A key `set` lacks whose signature bit `set` already has.
std::string SignatureCollider(const ConjunctSet& set) {
  for (int i = 0;; ++i) {
    std::string key = "k" + std::to_string(i);
    if ((ConjunctSet::Bit(key) & set.sig()) != 0 && !set.Contains(key)) {
      return key;
    }
  }
}

TEST(ConjunctSetTest, SignatureOnlyRejects) {
  const ConjunctSet query({"b", "a", "c", "a"});
  EXPECT_EQ(query.keys(), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(query.sig(), ConjunctSet::Bit("a") | ConjunctSet::Bit("b") |
                             ConjunctSet::Bit("c"));
  ConjunctSet inserted;
  for (const char* k : {"c", "a", "b", "b"}) inserted.Insert(k);
  EXPECT_EQ(inserted, query);
  EXPECT_EQ(inserted.sig(), query.sig());

  // Subsets are implied, the empty set by everything.
  EXPECT_TRUE(ConjunctsImplied(ConjunctSet({"a", "c"}), query));
  EXPECT_TRUE(ConjunctsImplied(query, query));
  EXPECT_TRUE(ConjunctsImplied(ConjunctSet(), query));
  EXPECT_FALSE(ConjunctsImplied(query, ConjunctSet({"a", "c"})));

  // A key whose bit is already in the query's signature passes the
  // signature test; the key comparison still rejects it.
  const std::string collider = SignatureCollider(query);
  const ConjunctSet cached({"a", collider});
  EXPECT_EQ(cached.sig() & ~query.sig(), 0u);
  EXPECT_FALSE(ConjunctsImplied(cached, query));
  ConjunctSet widened = query;
  widened.Insert(collider);
  EXPECT_EQ(widened.sig(), query.sig());
  EXPECT_TRUE(ConjunctsImplied(cached, widened));
}

// ---------------------------------------------------------------------------
// Interval index
// ---------------------------------------------------------------------------

TEST(IntervalIndexTest, OverlapLookupAndRemove) {
  // Standalone index over dummy nodes: only ids, children, range specs and
  // mat_state are read. n1..n3 slice child 7's `v`, n4 is a parent of 7
  // without slices, n5 slices child 8.
  RGNode c7, c8, n1, n2, n3, n4, n5;
  c7.id = 7;
  c8.id = 8;
  auto slice = [](RGNode* n, int64_t id, RGNode* child,
                  ColumnInterval range) {
    n->id = id;
    n->children = {child};
    RangeSpec spec;
    spec.column = "v";
    spec.ordinal = 1;
    spec.range = range;
    n->range_specs.push_back(spec);
  };
  slice(&n1, 11, &c7, {Lo(10, false), Hi(50, false)});
  slice(&n2, 12, &c7, {Lo(40, false), Hi(90, false)});
  slice(&n3, 13, &c7, {Lo(95, false), Hi(99, false)});
  n4.id = 14;
  n4.children = {&c7};
  slice(&n5, 15, &c8, {Lo(0, false), Hi(1, false)});
  IntervalIndex index;
  for (RGNode* n : {&n4, &n3, &n1, &n5, &n2, &n1}) index.Insert(n);
  EXPECT_EQ(index.num_entries(), 4);
  EXPECT_EQ(index.Parents(7), (std::vector<RGNode*>{&n1, &n2, &n3, &n4}));
  EXPECT_EQ(index.Parents(8), (std::vector<RGNode*>{&n5}));
  EXPECT_TRUE(index.Parents(9).empty());

  RangeSpec query;
  query.column = "v";
  query.ordinal = 1;
  query.range = {Lo(30, false), Hi(80, false)};
  auto overlapping = [&](int64_t child_id, const RangeSpec& q) {
    std::vector<RGNode*> nodes;
    std::vector<IntervalIndex::Entry> hits;
    index.Overlapping(child_id, q, &hits);
    for (const IntervalIndex::Entry& e : hits) nodes.push_back(e.node);
    return nodes;
  };
  // Ascending by lower bound.
  EXPECT_EQ(overlapping(7, query), (std::vector<RGNode*>{&n1, &n2}));
  RangeSpec other_column = query;
  other_column.ordinal = 2;
  EXPECT_TRUE(overlapping(7, other_column).empty());
  EXPECT_TRUE(overlapping(9, query).empty());

  // A slice with a conjunct the query lacks can never stitch, so the
  // lookup leaves it out, hot or cold (a cold one is read only if used).
  n2.range_specs[0].other_keys = ConjunctSet({"g = 1"});
  n2.mat_state.store(MatState::kCached);
  EXPECT_EQ(overlapping(7, query), (std::vector<RGNode*>{&n1}));
  query.other_keys = ConjunctSet({"g = 1"});
  EXPECT_EQ(overlapping(7, query), (std::vector<RGNode*>{&n1, &n2}));
  // A slice key whose signature bit the query's keys already set, but
  // which no query key equals, passes the signature and still fails.
  query.other_keys = ConjunctSet({"g = 1", "h = 2"});
  const std::string collider = SignatureCollider(query.other_keys);
  n2.range_specs[0].other_keys = ConjunctSet({collider});
  EXPECT_EQ(n2.range_specs[0].other_keys.sig() & ~query.other_keys.sig(), 0u);
  EXPECT_EQ(overlapping(7, query), (std::vector<RGNode*>{&n1}));
  n2.range_specs[0].other_keys = ConjunctSet({"g = 1"});
  query.other_keys = ConjunctSet();
  n2.mat_state.store(MatState::kCold);
  EXPECT_EQ(overlapping(7, query), (std::vector<RGNode*>{&n1}));
  n2.range_specs[0].other_keys = ConjunctSet();

  index.Remove(&n1);
  index.Remove(&n4);
  index.Remove(&n4);  // no-op
  EXPECT_EQ(index.num_entries(), 3);
  EXPECT_EQ(index.Parents(7), (std::vector<RGNode*>{&n2, &n3}));
  EXPECT_EQ(overlapping(7, query), (std::vector<RGNode*>{&n2}));
}

// ---------------------------------------------------------------------------
// Engine-level stitching
// ---------------------------------------------------------------------------

class PartialReuseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema s({{"a", TypeId::kInt32},
              {"g", TypeId::kInt32},
              {"v", TypeId::kDouble}});
    TablePtr t = MakeTable(s);
    for (int i = 0; i < 20000; ++i) {
      t->AppendRow({int32_t{i % 97}, int32_t{i % 7},
                    static_cast<double>(i % 331)});
    }
    ASSERT_TRUE(catalog_.RegisterTable("t", t).ok());
  }

  Recycler MakeRecycler(bool partial = true) {
    RecyclerConfig cfg;
    cfg.mode = RecyclerMode::kSpeculation;
    cfg.enable_subsumption = true;
    cfg.enable_partial_reuse = partial;
    return Recycler(&catalog_, cfg);
  }

  static PlanPtr RangeQuery(double lo, double hi) {
    return PlanNode::Select(
        PlanNode::Scan("t", {"a", "g", "v"}),
        Expr::And(Expr::Gt(Expr::Column("v"), Expr::Literal(lo)),
                  Expr::Lt(Expr::Column("v"), Expr::Literal(hi))));
  }

  std::multiset<std::string> RunOff(const PlanPtr& plan) {
    RecyclerConfig cfg;
    cfg.mode = RecyclerMode::kOff;
    Recycler off(&catalog_, cfg);
    return RowMultiset(*off.Execute(plan).table);
  }

  Catalog catalog_;
};

TEST_F(PartialReuseTest, StitchedRangeEqualsColdExecution) {
  Recycler rec = MakeRecycler();
  rec.Execute(RangeQuery(10, 50));  // cached slice
  ASSERT_GE(rec.graph().Stats().num_cached, 1);
  ASSERT_GE(rec.interval_index_entries(), 1);

  QueryTrace trace;
  ExecResult r = rec.Execute(RangeQuery(30, 80), &trace);
  EXPECT_EQ(trace.num_partial_reuses, 1);
  EXPECT_EQ(trace.num_reuses, 1);
  EXPECT_EQ(rec.counters().partial_reuses.load(), 1);
  EXPECT_EQ(RowMultiset(*r.table), RunOff(RangeQuery(30, 80)));
}

TEST_F(PartialReuseTest, CachedNanBoundServesANumericBoundCorrectly) {
  // NaN lies above every number, so a cached `v < NaN` holds every
  // numeric row and `v < 5.0` is derived from it by a filter.
  TablePtr t = MakeTable(Schema({{"v", TypeId::kDouble}}));
  for (int i = -46; i <= 53; ++i) {
    t->AppendRow({static_cast<double>(i)});
    if (i % 2 == 0) t->AppendRow({std::nan("")});
  }
  ASSERT_TRUE(catalog_.RegisterTable("n", t).ok());
  auto below = [](double hi) {
    return PlanNode::Select(PlanNode::Scan("n", {"v"}),
                            Expr::Lt(Expr::Column("v"), Expr::Literal(hi)));
  };
  Recycler rec = MakeRecycler();
  EXPECT_EQ(rec.Execute(below(std::nan(""))).table->num_rows(), 100);
  QueryTrace trace;
  ExecResult r = rec.Execute(below(5.0), &trace);
  EXPECT_EQ(trace.num_reuses, 1);
  EXPECT_EQ(r.table->num_rows(), 51);
  EXPECT_EQ(RowMultiset(*r.table), RunOff(below(5.0)));
}

TEST_F(PartialReuseTest, NanWideQueryIntervalSplitsStitchCreditEvenly) {
  // [0, NaN] has no finite width, so no piece's share of it can be
  // measured: the two slices that tile it split the credit evenly, and
  // their credits sum to 1.
  const PlanPtr child = PlanNode::Scan("t", {"a", "g", "v"});
  const double nan = std::nan("");
  auto range = [](double lo, double hi, bool hi_closed) {
    ExprPtr upper = hi_closed ? Expr::Le(Expr::Column("v"), Expr::Literal(hi))
                              : Expr::Lt(Expr::Column("v"), Expr::Literal(hi));
    return Expr::And(Expr::Ge(Expr::Column("v"), Expr::Literal(lo)), upper);
  };
  PlanPtr query = PlanNode::Select(child, range(0.0, nan, true));
  query->Bind(catalog_);
  const Schema& input = child->output_schema();
  const std::vector<RangeSpec> qspecs =
      ExtractRangeSpecs(query->predicate(), &input);
  ASSERT_EQ(qspecs.size(), 1u);
  const std::vector<RangeSpec> low =
      ExtractRangeSpecs(range(0.0, 50.0, false), &input);
  const std::vector<RangeSpec> high =
      ExtractRangeSpecs(range(50.0, nan, true), &input);
  ASSERT_EQ(low.size(), 1u);
  ASSERT_EQ(high.size(), 1u);
  RGNode low_node, high_node;
  low_node.id = 1;
  high_node.id = 2;
  const TablePtr rows = MakeTable(query->output_schema());
  const std::vector<IntervalCandidate> slices = {
      {&low_node, rows, &low[0]}, {&high_node, rows, &high[0]}};
  const StitchLayout layout = PlanPartialStitch(*query, qspecs[0], slices);
  ASSERT_EQ(layout.uses.size(), 2u);
  EXPECT_TRUE(layout.gaps.empty());
  EXPECT_DOUBLE_EQ(layout.covered_fraction, 1.0);
  std::vector<TablePtr> tables;
  for (const StitchLayout::Use& use : layout.uses) {
    tables.push_back(use.source->cached);
  }
  const PartialPlan stitched =
      BuildPartialStitch(*query, child, qspecs[0], layout, tables);
  ASSERT_EQ(stitched.reuse_pieces.size(), 2u);
  double credit = 0;
  for (const PartialPiece& piece : stitched.reuse_pieces) {
    EXPECT_DOUBLE_EQ(piece.fraction, 0.5);
    credit += piece.fraction;
  }
  EXPECT_DOUBLE_EQ(credit, 1.0);
}

TEST_F(PartialReuseTest, DisabledFlagFallsBackToColdExecution) {
  Recycler rec = MakeRecycler(/*partial=*/false);
  rec.Execute(RangeQuery(10, 50));
  QueryTrace trace;
  ExecResult r = rec.Execute(RangeQuery(30, 80), &trace);
  EXPECT_EQ(trace.num_partial_reuses, 0);
  EXPECT_EQ(RowMultiset(*r.table), RunOff(RangeQuery(30, 80)));
}

TEST_F(PartialReuseTest, WorksWithSubsumptionDisabled) {
  // Partial stitching is gated by its own flag, independent of the
  // single-superset subsumption flag.
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kSpeculation;
  cfg.enable_subsumption = false;
  cfg.enable_partial_reuse = true;
  Recycler rec(&catalog_, cfg);
  rec.Execute(RangeQuery(10, 50));
  QueryTrace trace;
  ExecResult r = rec.Execute(RangeQuery(30, 80), &trace);
  EXPECT_EQ(trace.num_partial_reuses, 1);
  EXPECT_EQ(trace.num_subsumption_reuses, 0);
  EXPECT_EQ(RowMultiset(*r.table), RunOff(RangeQuery(30, 80)));
}

TEST_F(PartialReuseTest, SubsumptionOutranksStitching) {
  // (10, 50) AND g = 3: the cached (10, 50) selection subsumes it, and
  // the overlapping cached slices (10, 50) and (40, 90) could stitch it.
  auto query = [] {
    return PlanNode::Select(
        PlanNode::Scan("t", {"a", "g", "v"}),
        Expr::And(Expr::And(Expr::Gt(Expr::Column("v"), Expr::Literal(10.0)),
                            Expr::Lt(Expr::Column("v"), Expr::Literal(50.0))),
                  Expr::Eq(Expr::Column("g"), Expr::Literal(int64_t{3}))));
  };

  // Control: without subsumption, the slices stitch it.
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kSpeculation;
  cfg.enable_subsumption = false;
  Recycler control(&catalog_, cfg);
  control.Execute(RangeQuery(10, 50));
  control.Execute(RangeQuery(40, 90));
  QueryTrace trace;
  control.Execute(query(), &trace);
  ASSERT_EQ(trace.num_partial_reuses, 1);

  Recycler rec = MakeRecycler();
  rec.Execute(RangeQuery(10, 50));
  rec.Execute(RangeQuery(40, 90));
  ExecResult r = rec.Execute(query(), &trace);
  EXPECT_EQ(trace.num_subsumption_reuses, 1);
  EXPECT_EQ(trace.num_partial_reuses, 0);
  EXPECT_EQ(RowMultiset(*r.table), RunOff(query()));
}

TEST_F(PartialReuseTest, LimitOverStitchedSelectReturnsValidRows) {
  // A stitched union is a BAG: branch order differs from cold execution
  // (cached slices stream before delta scans), so an order-sensitive
  // parent without a sort — Limit without OrderBy — may surface
  // different, equally valid, qualifying rows. This pins the contract:
  // right row count, every row drawn from the selection's result.
  Recycler rec = MakeRecycler();
  rec.Execute(RangeQuery(10, 50));

  PlanPtr q = PlanNode::Limit(RangeQuery(30, 80), 5);
  QueryTrace trace;
  ExecResult r = rec.Execute(q, &trace);
  EXPECT_EQ(trace.num_partial_reuses, 1);
  ASSERT_EQ(r.table->num_rows(), 5);
  std::multiset<std::string> all = RunOff(RangeQuery(30, 80));
  for (int64_t i = 0; i < r.table->num_rows(); ++i) {
    EXPECT_TRUE(all.count(recycledb::testing::RowKey(*r.table, i)) > 0);
  }
}

TEST_F(PartialReuseTest, DeltaScanReusesCachedChildResult) {
  // When the stitched node's child is itself cached, the delta scans
  // must read the cached child instead of re-executing the child
  // subtree (stitching must not preempt the reuse the plain miss path
  // would have gotten).
  static std::atomic<int64_t> calls{0};
  static const Schema kFnSchema({{"a", TypeId::kInt32},
                                 {"g", TypeId::kInt32},
                                 {"v", TypeId::kDouble}});
  TableFunction fn;
  fn.name = "counting_rows_delta";
  fn.schema_fn = [](const std::vector<Datum>&) { return kFnSchema; };
  fn.base_tables = {"t"};
  fn.eval_fn = [](const Catalog& catalog, const std::vector<Datum>&) {
    calls.fetch_add(1);
    TablePtr src = catalog.GetTable("t");
    TablePtr out = MakeTable(kFnSchema);
    for (int64_t i = 0; i < src->num_rows(); ++i) {
      out->AppendRow({src->Get(i, 0), src->Get(i, 1), src->Get(i, 2)});
    }
    return out;
  };
  TableFunctionRegistry::Global().Register(fn);

  auto fn_range = [](ExprPtr pred) {
    return PlanNode::Select(
        PlanNode::FunctionScan("counting_rows_delta", {}), std::move(pred));
  };
  ExprPtr qpred =
      Expr::And(Expr::Gt(Expr::Column("v"), Expr::Literal(10.0)),
                Expr::Lt(Expr::Column("v"), Expr::Literal(90.0)));
  std::multiset<std::string> expect;
  {
    RecyclerConfig cfg;
    cfg.mode = RecyclerMode::kOff;
    Recycler off(&catalog_, cfg);
    expect = RowMultiset(*off.Execute(fn_range(qpred)).table);
  }

  Recycler rec = MakeRecycler();
  // Seeds the slice (10, 40) AND caches the function-scan child itself
  // (function scans are speculation targets).
  rec.Execute(fn_range(Expr::And(
      Expr::Gt(Expr::Column("v"), Expr::Literal(10.0)),
      Expr::Lt(Expr::Column("v"), Expr::Literal(40.0)))));

  int64_t calls_before = calls.load();
  QueryTrace trace;
  ExecResult r = rec.Execute(fn_range(qpred), &trace);
  EXPECT_EQ(trace.num_partial_reuses, 1);
  EXPECT_EQ(trace.num_reuses, 2);  // the stitch + the child in the delta
  EXPECT_EQ(calls.load(), calls_before);  // delta read the cached child
  EXPECT_EQ(RowMultiset(*r.table), expect);
}

TEST_F(PartialReuseTest, MultiGapRemainderExecutesChildOnce) {
  // A cached middle slice leaves gaps on BOTH sides; the gaps must merge
  // into one delta scan (a disjunction of ranges), so an uncached child
  // executes exactly once, not once per gap.
  static std::atomic<int64_t> calls{0};
  static const Schema kFnSchema({{"a", TypeId::kInt32},
                                 {"g", TypeId::kInt32},
                                 {"v", TypeId::kDouble}});
  TableFunction fn;
  fn.name = "counting_rows_gaps";
  fn.schema_fn = [](const std::vector<Datum>&) { return kFnSchema; };
  fn.base_tables = {"t"};
  fn.eval_fn = [](const Catalog& catalog, const std::vector<Datum>&) {
    calls.fetch_add(1);
    TablePtr src = catalog.GetTable("t");
    TablePtr out = MakeTable(kFnSchema);
    for (int64_t i = 0; i < src->num_rows(); ++i) {
      out->AppendRow({src->Get(i, 0), src->Get(i, 1), src->Get(i, 2)});
    }
    return out;
  };
  TableFunctionRegistry::Global().Register(fn);

  auto fn_range = [](double lo, double hi) {
    return PlanNode::Select(
        PlanNode::FunctionScan("counting_rows_gaps", {}),
        Expr::And(Expr::Gt(Expr::Column("v"), Expr::Literal(lo)),
                  Expr::Lt(Expr::Column("v"), Expr::Literal(hi))));
  };
  std::multiset<std::string> expect;
  {
    RecyclerConfig cfg;
    cfg.mode = RecyclerMode::kOff;
    Recycler off(&catalog_, cfg);
    expect = RowMultiset(*off.Execute(fn_range(10, 90)).table);
  }

  // HIST mode: no speculation, so the function-scan child itself never
  // gets cached; the second seed run caches only the middle slice.
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kHistory;
  Recycler rec(&catalog_, cfg);
  rec.Execute(fn_range(40, 60));
  rec.Execute(fn_range(40, 60));
  ASSERT_GE(rec.interval_index_entries(), 1);

  int64_t calls_before = calls.load();
  QueryTrace trace;
  ExecResult r = rec.Execute(fn_range(10, 90), &trace);
  EXPECT_EQ(trace.num_partial_reuses, 1);
  EXPECT_EQ(calls.load(), calls_before + 1);  // one delta, two gaps
  EXPECT_EQ(RowMultiset(*r.table), expect);
}

TEST_F(PartialReuseTest, BoundaryEqualityDedup) {
  // Two cached slices that share the boundary value 50 (both closed at
  // it): stitching must emit rows with v == 50 exactly once.
  Recycler rec = MakeRecycler();
  rec.Execute(PlanNode::Select(
      PlanNode::Scan("t", {"a", "g", "v"}),
      Expr::Le(Expr::Column("v"), Expr::Literal(50.0))));
  rec.Execute(PlanNode::Select(
      PlanNode::Scan("t", {"a", "g", "v"}),
      Expr::Ge(Expr::Column("v"), Expr::Literal(50.0))));
  ASSERT_GE(rec.interval_index_entries(), 2);

  QueryTrace trace;
  ExecResult r = rec.Execute(RangeQuery(30, 80), &trace);
  EXPECT_EQ(trace.num_partial_reuses, 1);
  EXPECT_EQ(RowMultiset(*r.table), RunOff(RangeQuery(30, 80)));
}

TEST_F(PartialReuseTest, OpenEndedIntervals) {
  // Cached one-sided slice v > 50 fully covers the query 60 < v <= 90.
  Recycler rec = MakeRecycler();
  rec.Execute(PlanNode::Select(
      PlanNode::Scan("t", {"a", "g", "v"}),
      Expr::Gt(Expr::Column("v"), Expr::Literal(50.0))));

  PlanPtr q = PlanNode::Select(
      PlanNode::Scan("t", {"a", "g", "v"}),
      Expr::And(Expr::Gt(Expr::Column("v"), Expr::Literal(60.0)),
                Expr::Le(Expr::Column("v"), Expr::Literal(90.0))));
  PlanPtr q2 = PlanNode::Select(
      PlanNode::Scan("t", {"a", "g", "v"}),
      Expr::And(Expr::Gt(Expr::Column("v"), Expr::Literal(60.0)),
                Expr::Le(Expr::Column("v"), Expr::Literal(90.0))));
  QueryTrace trace;
  ExecResult r = rec.Execute(q, &trace);
  EXPECT_EQ(trace.num_partial_reuses, 1);
  EXPECT_EQ(RowMultiset(*r.table), RunOff(q2));

  // Open-ended query over the open-ended slice (v > 55 from v > 50).
  PlanPtr open = PlanNode::Select(
      PlanNode::Scan("t", {"a", "g", "v"}),
      Expr::Gt(Expr::Column("v"), Expr::Literal(55.0)));
  PlanPtr open2 = PlanNode::Select(
      PlanNode::Scan("t", {"a", "g", "v"}),
      Expr::Gt(Expr::Column("v"), Expr::Literal(55.0)));
  r = rec.Execute(open, &trace);
  EXPECT_EQ(trace.num_partial_reuses, 1);
  EXPECT_EQ(RowMultiset(*r.table), RunOff(open2));
}

TEST_F(PartialReuseTest, ResidualConjunctCompensation) {
  // The cached slice lacks the query's g = 3 filter; the stitcher must
  // apply it as compensation on the reused piece.
  Recycler rec = MakeRecycler();
  rec.Execute(RangeQuery(10, 90));

  PlanPtr q = PlanNode::Select(
      PlanNode::Scan("t", {"a", "g", "v"}),
      Expr::And(Expr::And(Expr::Gt(Expr::Column("v"), Expr::Literal(30.0)),
                          Expr::Lt(Expr::Column("v"), Expr::Literal(80.0))),
                Expr::Eq(Expr::Column("g"), Expr::Literal(int64_t{3}))));
  PlanPtr q2 = PlanNode::Select(
      PlanNode::Scan("t", {"a", "g", "v"}),
      Expr::And(Expr::And(Expr::Gt(Expr::Column("v"), Expr::Literal(30.0)),
                          Expr::Lt(Expr::Column("v"), Expr::Literal(80.0))),
                Expr::Eq(Expr::Column("g"), Expr::Literal(int64_t{3}))));
  QueryTrace trace;
  ExecResult r = rec.Execute(q, &trace);
  EXPECT_EQ(trace.num_partial_reuses, 1);
  EXPECT_EQ(RowMultiset(*r.table), RunOff(q2));
}

TEST_F(PartialReuseTest, FullCoverByTwoSlicesSkipsChildExecution) {
  // Child is a counting table function: when the union of two cached
  // slices covers the query range completely (empty remainder), the
  // stitched plan has no delta scan and the child must not run.
  static std::atomic<int64_t> calls{0};
  static const Schema kFnSchema({{"a", TypeId::kInt32},
                                 {"g", TypeId::kInt32},
                                 {"v", TypeId::kDouble}});
  TableFunction fn;
  fn.name = "counting_rows";
  fn.schema_fn = [](const std::vector<Datum>&) { return kFnSchema; };
  fn.base_tables = {"t"};
  fn.eval_fn = [](const Catalog& catalog, const std::vector<Datum>&) {
    calls.fetch_add(1);
    TablePtr src = catalog.GetTable("t");
    TablePtr out = MakeTable(kFnSchema);
    for (int64_t i = 0; i < src->num_rows(); ++i) {
      out->AppendRow({src->Get(i, 0), src->Get(i, 1), src->Get(i, 2)});
    }
    return out;
  };
  TableFunctionRegistry::Global().Register(fn);

  auto fn_range = [](ExprPtr pred) {
    return PlanNode::Select(PlanNode::FunctionScan("counting_rows", {}),
                            std::move(pred));
  };

  Recycler rec = MakeRecycler();
  rec.Execute(fn_range(Expr::Lt(Expr::Column("v"), Expr::Literal(40.0))));
  rec.Execute(fn_range(Expr::Ge(Expr::Column("v"), Expr::Literal(40.0))));
  ASSERT_GE(rec.interval_index_entries(), 2);

  ExprPtr qpred =
      Expr::And(Expr::Gt(Expr::Column("v"), Expr::Literal(10.0)),
                Expr::Lt(Expr::Column("v"), Expr::Literal(90.0)));
  std::multiset<std::string> expect;
  {
    RecyclerConfig cfg;
    cfg.mode = RecyclerMode::kOff;
    Recycler off(&catalog_, cfg);
    expect = RowMultiset(*off.Execute(fn_range(qpred)).table);
  }

  int64_t calls_before = calls.load();
  QueryTrace trace;
  ExecResult r = rec.Execute(fn_range(qpred), &trace);
  EXPECT_EQ(trace.num_partial_reuses, 1);
  EXPECT_EQ(calls.load(), calls_before);  // empty remainder: no delta scan
  EXPECT_EQ(RowMultiset(*r.table), expect);
}

TEST_F(PartialReuseTest, StitchedResultIsAdmittedAndWidensCoverage) {
  Recycler rec = MakeRecycler();
  rec.Execute(RangeQuery(10, 50));
  int64_t cached_before = rec.graph().Stats().num_cached;

  // Stitched query: reuse piece (30, 50) + delta scan [50, 80). Its own
  // result is admitted (stitched-admission policy)...
  QueryTrace trace;
  rec.Execute(RangeQuery(30, 80), &trace);
  ASSERT_EQ(trace.num_partial_reuses, 1);
  EXPECT_GT(rec.graph().Stats().num_cached, cached_before);

  // ...so a third query inside (30, 80) is now fully covered by the
  // stitched result: partial reuse again, with no delta remainder.
  PlanPtr q = RangeQuery(35, 75);
  PlanPtr q2 = RangeQuery(35, 75);
  ExecResult r = rec.Execute(q, &trace);
  EXPECT_EQ(trace.num_partial_reuses, 1);
  EXPECT_EQ(RowMultiset(*r.table), RunOff(q2));
}

TEST_F(PartialReuseTest, InvalidateTableEvictsStitchedAndSlices) {
  Recycler rec = MakeRecycler();
  rec.Execute(RangeQuery(10, 50));
  QueryTrace trace;
  rec.Execute(RangeQuery(30, 80), &trace);
  ASSERT_EQ(trace.num_partial_reuses, 1);
  ASSERT_GE(rec.interval_index_entries(), 1);

  rec.InvalidateTable("t");
  EXPECT_EQ(rec.interval_index_entries(), 0);
  EXPECT_EQ(rec.graph().Stats().num_cached, 0);

  // Nothing left to stitch from: the rerun is a cold execution and must
  // still be correct.
  PlanPtr q = RangeQuery(30, 80);
  PlanPtr q2 = RangeQuery(30, 80);
  ExecResult r = rec.Execute(q, &trace);
  EXPECT_EQ(trace.num_reuses, 0);
  EXPECT_EQ(RowMultiset(*r.table), RunOff(q2));
}

TEST_F(PartialReuseTest, ApiSurfacesPartialHitStats) {
  DatabaseOptions options;
  options.recycler.mode = RecyclerMode::kSpeculation;
  std::unique_ptr<Database> db = Database::OpenOrDie(options);
  ASSERT_TRUE(db->CreateTable("t", catalog_.GetTable("t")).ok());
  auto session = db->Connect({});

  Status st;
  Query q = db->Scan("t", {"a", "g", "v"})
                .Filter(Expr::And(
                    Expr::Gt(Expr::Column("v"), Expr::Param("lo")),
                    Expr::Lt(Expr::Column("v"), Expr::Param("hi"))));
  auto stmt = session->Prepare(q, &st);
  ASSERT_TRUE(st.ok());

  Result seed = stmt->Execute({{"lo", 10.0}, {"hi", 50.0}});
  ASSERT_TRUE(seed.ok());
  Result hit = stmt->Execute({{"lo", 30.0}, {"hi", 80.0}});
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit.trace().num_partial_reuses, 1);
  EXPECT_TRUE(hit.recycled());

  EXPECT_EQ(session->stats().num_partial_reuses, 1);
  TemplateStats ts = db->StatsForTemplate(stmt->template_hash());
  EXPECT_EQ(ts.num_partial_reuses, 1);
}

// ---------------------------------------------------------------------------
// Derived-reuse prefilter
// ---------------------------------------------------------------------------

/// Random Select predicates over the child Project(t: a AS x, g AS y,
/// v AS w). Each carries a range on w plus conjuncts on x and y drawn
/// from a small pool, listed in random order with some repeated.
class SelectPredicateGenerator {
 public:
  explicit SelectPredicateGenerator(uint64_t seed) : rng_(seed) {}

  static PlanPtr Child() {
    return PlanNode::Project(PlanNode::Scan("t", {"a", "g", "v"}),
                             {{Expr::Column("a"), "x"},
                              {Expr::Column("g"), "y"},
                              {Expr::Column("v"), "w"}});
  }

  /// Pool indices: each pool conjunct with probability 1/2, drawn from
  /// `from` when given (a candidate built from a query's conjuncts).
  std::vector<int> PickPool(const std::vector<int>* from) {
    std::vector<int> all;
    for (int i = 0; i < kPoolSize; ++i) all.push_back(i);
    std::vector<int> picked;
    for (int i : from != nullptr ? *from : all) {
      if (rng_.Uniform(0, 1) == 0) picked.push_back(i);
    }
    return picked;
  }

  /// Range `range` on w (0: [20, 200), 1: (10, 100), 2: [150, 300], all
  /// overlapping range 0) AND the pool conjuncts, shuffled, with up to two
  /// repeated.
  ExprPtr Predicate(int range, const std::vector<int>& pool) {
    static const double kLo[] = {20, 10, 150};
    static const double kHi[] = {200, 100, 300};
    ExprPtr w = Expr::Column("w");
    std::vector<ExprPtr> conj = {
        range == 1 ? Expr::Gt(w, Expr::Literal(kLo[range]))
                   : Expr::Ge(w, Expr::Literal(kLo[range])),
        range == 2 ? Expr::Le(w, Expr::Literal(kHi[range]))
                   : Expr::Lt(w, Expr::Literal(kHi[range]))};
    for (int i : pool) conj.push_back(PoolConjunct(i));
    const auto last = [&conj] { return static_cast<int64_t>(conj.size()) - 1; };
    for (int64_t n = rng_.Uniform(0, 2); n > 0; --n) {
      conj.push_back(conj[rng_.Uniform(0, last())]);
    }
    for (int64_t i = last(); i > 0; --i) {
      std::swap(conj[i], conj[rng_.Uniform(0, i)]);
    }
    return AndAll(conj);
  }

  int64_t Uniform(int64_t lo, int64_t hi) { return rng_.Uniform(lo, hi); }

 private:
  static constexpr int kPoolSize = 8;

  static ExprPtr PoolConjunct(int i) {
    ExprPtr x = Expr::Column("x");
    ExprPtr y = Expr::Column("y");
    switch (i) {
      case 0: return Expr::Gt(x, Expr::Literal(int64_t{10}));
      case 1: return Expr::Lt(x, Expr::Literal(int64_t{80}));
      case 2: return Expr::Eq(y, Expr::Literal(int64_t{3}));
      case 3: return Expr::Ne(y, Expr::Literal(int64_t{5}));
      case 4: return Expr::Ge(x, Expr::Literal(int64_t{20}));
      case 5: return Expr::Lt(y, Expr::Literal(int64_t{6}));
      case 6: return Expr::Ne(x, Expr::Literal(int64_t{42}));
      default: return Expr::Gt(y, Expr::Literal(int64_t{1}));
    }
  }

  Rng rng_;
};

const RangeSpec* SpecOn(const std::vector<RangeSpec>& specs, int ordinal) {
  for (const RangeSpec& s : specs) {
    if (s.ordinal == ordinal) return &s;
  }
  return nullptr;
}

TEST_F(PartialReuseTest, PrefilterAcceptsExactlyTheDerivableCandidates) {
  // The graph holds the candidate's parameters positionally; the query
  // names its child's columns.
  PlanPtr child = SelectPredicateGenerator::Child();
  child->Bind(catalog_);
  const Schema& input = child->output_schema();
  RGNode child_node;
  for (const Field& f : input.fields()) {
    child_node.output_types.push_back(f.type);
  }
  const Schema positional = PositionalInput(child_node);
  const int w = input.IndexOfChecked("w");
  SelectPredicateGenerator gen(8675309);
  int derivable = 0, stitchable = 0, sig_rejected = 0;
  constexpr int kTrials = 400;
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::vector<int> qpool = gen.PickPool(nullptr);
    const std::vector<int> cpool =
        gen.PickPool(gen.Uniform(0, 1) == 0 ? &qpool : nullptr);
    const int crange = static_cast<int>(gen.Uniform(0, 2));
    ExprPtr qpred = gen.Predicate(0, qpool);
    ExprPtr cpred = gen.Predicate(crange, cpool);

    PlanPtr query = PlanNode::Select(child, qpred);
    query->Bind(catalog_);
    // The candidate as the recycler inserts it: positional parameters
    // over the child node, conjunct keys taken from them once.
    PlanPtr cand_plan = PlanNode::Select(child, cpred);
    cand_plan->Bind(catalog_);
    RGNode cand;
    cand.id = 1;
    cand.type = OpType::kSelect;
    cand.children = {&child_node};
    cand.param_node = cand_plan->PositionalParams();
    cand.conjunct_keys =
        ConjunctKeys(cand.param_node->predicate(), &positional);
    TablePtr cached = MakeTable(query->output_schema());

    // Subsumption: the prefilter sees the query's keys computed
    // once over the child's output, as RewriteForReuse computes them.
    // The signature alone never rejects a candidate that derives.
    const bool derives = TrySubsumption(*query, cand, cached).plan != nullptr;
    const ConjunctSet qkeys = ConjunctKeys(qpred, &input);
    EXPECT_EQ(MaySubsume(cand, OpType::kSelect, qkeys), derives)
        << "trial " << trial;
    const bool sig_rejects = (cand.conjunct_keys.sig() & ~qkeys.sig()) != 0;
    EXPECT_FALSE(sig_rejects && derives) << "trial " << trial;
    // The index lookup, on its copies of type and signature, agrees.
    IntervalIndex index;
    index.Insert(&cand);
    std::vector<RGNode*> subsumers;
    index.Subsumers(child_node.id, OpType::kSelect, qkeys, &subsumers);
    EXPECT_EQ(subsumers.size(), derives ? 1u : 0u) << "trial " << trial;
    derivable += derives;
    sig_rejected += sig_rejects;

    // Stitching: the slice as the interval index registers it.
    std::vector<RangeSpec> qspecs = ExtractRangeSpecs(qpred, &input);
    std::vector<RangeSpec> cspecs =
        ExtractRangeSpecs(cand.param_node->predicate(), &positional);
    const RangeSpec* qspec = SpecOn(qspecs, w);
    const RangeSpec* cspec = SpecOn(cspecs, w);
    ASSERT_NE(qspec, nullptr);
    ASSERT_NE(cspec, nullptr);
    const std::vector<IntervalCandidate> slices = {{&cand, cached, cspec}};
    const bool stitches = !PlanPartialStitch(*query, *qspec, slices)
                               .uses.empty();
    EXPECT_EQ(ConjunctsImplied(cspec->other_keys, qspec->other_keys), stitches)
        << "trial " << trial;
    EXPECT_FALSE(
        (cspec->other_keys.sig() & ~qspec->other_keys.sig()) != 0 && stitches)
        << "trial " << trial;
    // Keyed once for subsumption and stitching alike, the query's specs
    // hold the keys ExtractRangeSpecs takes on its own.
    const std::vector<RangeSpec> shared =
        ExtractRangeSpecs(KeyConjuncts(qpred, &input), &input);
    ASSERT_EQ(shared.size(), qspecs.size());
    for (size_t i = 0; i < shared.size(); ++i) {
      EXPECT_EQ(shared[i].other_keys, qspecs[i].other_keys);
      EXPECT_EQ(shared[i].other_keys.sig(), qspecs[i].other_keys.sig());
    }
    stitchable += stitches;

    if (trial % 8 != 0) continue;
    // End to end: with the candidate hot, the recycler reuses it exactly
    // when it derives (stitching off, so no other path can serve).
    RecyclerConfig cfg;
    cfg.mode = RecyclerMode::kSpeculation;
    cfg.enable_partial_reuse = false;
    Recycler rec(&catalog_, cfg);
    rec.Execute(PlanNode::Select(SelectPredicateGenerator::Child(), cpred));
    ASSERT_EQ(rec.graph().Stats().num_cached, 1);
    QueryTrace trace;
    ExecResult r = rec.Execute(
        PlanNode::Select(SelectPredicateGenerator::Child(), qpred), &trace);
    EXPECT_EQ(trace.num_reuses > 0, derives) << "trial " << trial;
    EXPECT_EQ(RowMultiset(*r.table),
              RunOff(PlanNode::Select(SelectPredicateGenerator::Child(),
                                      qpred)));
  }
  // Both outcomes occur often enough for the equivalences to mean
  // something.
  EXPECT_GT(derivable, kTrials / 10);
  EXPECT_LT(derivable, kTrials * 9 / 10);
  EXPECT_GT(stitchable, kTrials / 10);
  EXPECT_LT(stitchable, kTrials * 9 / 10);
  // Most candidates that do not derive fall to the signature alone.
  EXPECT_GT(sig_rejected, (kTrials - derivable) / 2);

  // Another operator type never passes, whatever its parameters.
  RGNode project;
  project.type = OpType::kProject;
  project.param_node = child->PositionalParams();
  EXPECT_FALSE(MaySubsume(project, OpType::kSelect, {}));
}

TEST_F(PartialReuseTest, ConcurrentOverlappingRangesStayCorrect) {
  // Overlapping range streams against one recycler: every result must
  // equal its cold execution regardless of stitching/admission races.
  DatabaseOptions options;
  options.recycler.mode = RecyclerMode::kSpeculation;
  std::unique_ptr<Database> db = Database::OpenOrDie(options);
  ASSERT_TRUE(db->CreateTable("t", catalog_.GetTable("t")).ok());

  constexpr int kThreads = 4;
  constexpr int kQueries = 12;
  std::vector<std::multiset<std::string>> expected;
  std::vector<std::pair<double, double>> ranges;
  for (int i = 0; i < kQueries; ++i) {
    double lo = 5.0 * i;
    double hi = lo + 60.0;
    ranges.emplace_back(lo, hi);
    expected.push_back(RunOff(RangeQuery(lo, hi)));
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto session = db->Connect({});
      for (int i = 0; i < kQueries; ++i) {
        int pick = (i + t) % kQueries;
        Result r = session->Execute(
            RangeQuery(ranges[pick].first, ranges[pick].second));
        if (!r.ok() || RowMultiset(*r.table()) != expected[pick]) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace recycledb
