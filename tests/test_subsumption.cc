// Tests for subsumption-based reuse (§IV-A): column subsumption,
// tuple subsumption for selections / aggregates / top-N, edge maintenance.
#include <gtest/gtest.h>

#include "recycler/recycler.h"
#include "recycler/subsumption.h"
#include "test_util.h"

namespace recycledb {
namespace {

class SubsumptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema s({{"k", TypeId::kInt32},
              {"g", TypeId::kInt32},
              {"v", TypeId::kDouble}});
    TablePtr t = MakeTable(s);
    for (int i = 0; i < 10000; ++i) {
      t->AppendRow({int32_t{i % 97}, int32_t{i % 7},
                    static_cast<double>(i % 331)});
    }
    ASSERT_TRUE(catalog_.RegisterTable("t", t).ok());
  }

  Recycler MakeRecycler(bool subsumption = true) {
    RecyclerConfig cfg;
    cfg.mode = RecyclerMode::kSpeculation;
    cfg.enable_subsumption = subsumption;
    return Recycler(&catalog_, cfg);
  }

  std::multiset<std::string> RunOff(const PlanPtr& plan) {
    RecyclerConfig cfg;
    cfg.mode = RecyclerMode::kOff;
    Recycler off(&catalog_, cfg);
    return recycledb::testing::RowMultiset(*off.Execute(plan).table);
  }

  Catalog catalog_;
};

TEST_F(SubsumptionTest, SelectConjunctSubsetReused) {
  Recycler rec = MakeRecycler();
  ExprPtr base = Expr::Gt(Expr::Column("k"), Expr::Literal(int64_t{40}));
  // Query 1: the broader selection (k > 40); cache its result via an
  // aggregate on top (final result) — no: cache the SELECT itself by
  // making it the query root.
  PlanPtr broad = PlanNode::Select(PlanNode::Scan("t", {"k", "g", "v"}), base);
  rec.Execute(broad);
  ASSERT_GE(rec.graph().Stats().num_cached, 1);

  // Query 2: k > 40 AND g = 3 — derivable by re-filtering the cache.
  PlanPtr narrow = PlanNode::Select(
      PlanNode::Scan("t", {"k", "g", "v"}),
      Expr::And(base, Expr::Eq(Expr::Column("g"), Expr::Literal(int64_t{3}))));
  PlanPtr narrow_copy = PlanNode::Select(
      PlanNode::Scan("t", {"k", "g", "v"}),
      Expr::And(base, Expr::Eq(Expr::Column("g"), Expr::Literal(int64_t{3}))));
  QueryTrace trace;
  ExecResult r = rec.Execute(narrow, &trace);
  EXPECT_GE(trace.num_subsumption_reuses, 1);
  EXPECT_EQ(recycledb::testing::RowMultiset(*r.table), RunOff(narrow_copy));
}

TEST_F(SubsumptionTest, AggregateFinerGroupingReaggregated) {
  Recycler rec = MakeRecycler();
  // Query 1 caches the finer cube (g, k) with sum/count partials.
  PlanPtr fine = PlanNode::Aggregate(
      PlanNode::Scan("t", {"k", "g", "v"}), {"g", "k"},
      {{AggFunc::kSum, Expr::Column("v"), "sv"},
       {AggFunc::kCount, Expr::Column("v"), "cv"}});
  rec.Execute(fine);
  ASSERT_GE(rec.graph().Stats().num_cached, 1);

  // Query 2 wants the coarser grouping (g): derivable by re-aggregation,
  // including the avg from sum+count partials.
  auto coarse = [&] {
    return PlanNode::Aggregate(
        PlanNode::Scan("t", {"k", "g", "v"}), {"g"},
        {{AggFunc::kSum, Expr::Column("v"), "sv"},
         {AggFunc::kCount, Expr::Column("v"), "cv"},
         {AggFunc::kAvg, Expr::Column("v"), "av"}});
  };
  QueryTrace trace;
  ExecResult r = rec.Execute(coarse(), &trace);
  EXPECT_GE(trace.num_subsumption_reuses, 1);
  EXPECT_EQ(recycledb::testing::RowMultiset(*r.table), RunOff(coarse()));
}

TEST_F(SubsumptionTest, AggregateColumnSubsetProjected) {
  Recycler rec = MakeRecycler();
  // Query 1: sum + min over g.
  PlanPtr wide = PlanNode::Aggregate(
      PlanNode::Scan("t", {"g", "v"}), {"g"},
      {{AggFunc::kSum, Expr::Column("v"), "sv"},
       {AggFunc::kMin, Expr::Column("v"), "mn"}});
  rec.Execute(wide);
  // Query 2: only the sum — column subsumption (paper's F-example).
  auto narrow = [&] {
    return PlanNode::Aggregate(PlanNode::Scan("t", {"g", "v"}), {"g"},
                               {{AggFunc::kSum, Expr::Column("v"), "sv"}});
  };
  QueryTrace trace;
  ExecResult r = rec.Execute(narrow(), &trace);
  EXPECT_GE(trace.num_subsumption_reuses, 1);
  EXPECT_EQ(recycledb::testing::RowMultiset(*r.table), RunOff(narrow()));
}

TEST_F(SubsumptionTest, TopNPrefixOfCachedLargerTopN) {
  Recycler rec = MakeRecycler();
  PlanPtr big = PlanNode::TopN(PlanNode::Scan("t", {"k", "v"}),
                               {{"v", false}, {"k", true}}, 500);
  rec.Execute(big);
  auto small = [&] {
    return PlanNode::TopN(PlanNode::Scan("t", {"k", "v"}),
                          {{"v", false}, {"k", true}}, 10);
  };
  QueryTrace trace;
  ExecResult r = rec.Execute(small(), &trace);
  EXPECT_GE(trace.num_subsumption_reuses, 1);
  ASSERT_EQ(r.table->num_rows(), 10);
  EXPECT_EQ(recycledb::testing::RowMultiset(*r.table), RunOff(small()));
}

TEST_F(SubsumptionTest, TopNWithDifferentKeysNotSubsumed) {
  Recycler rec = MakeRecycler();
  rec.Execute(PlanNode::TopN(PlanNode::Scan("t", {"k", "v"}),
                             {{"v", false}}, 500));
  QueryTrace trace;
  rec.Execute(PlanNode::TopN(PlanNode::Scan("t", {"k", "v"}),
                             {{"k", false}}, 10),
              &trace);
  EXPECT_EQ(trace.num_subsumption_reuses, 0);
}

TEST_F(SubsumptionTest, DisabledSubsumptionFallsBackToComputing) {
  Recycler rec = MakeRecycler(/*subsumption=*/false);
  ExprPtr base = Expr::Gt(Expr::Column("k"), Expr::Literal(int64_t{40}));
  rec.Execute(PlanNode::Select(PlanNode::Scan("t", {"k", "g", "v"}), base));
  QueryTrace trace;
  PlanPtr narrow = PlanNode::Select(
      PlanNode::Scan("t", {"k", "g", "v"}),
      Expr::And(base, Expr::Eq(Expr::Column("g"), Expr::Literal(int64_t{3}))));
  ExecResult r = rec.Execute(narrow, &trace);
  EXPECT_EQ(trace.num_subsumption_reuses, 0);
  EXPECT_GT(r.table->num_rows(), 0);
}

TEST_F(SubsumptionTest, SubsumptionEdgeRecordedInGraph) {
  Recycler rec = MakeRecycler();
  ExprPtr base = Expr::Gt(Expr::Column("k"), Expr::Literal(int64_t{40}));
  rec.Execute(PlanNode::Select(PlanNode::Scan("t", {"k", "g", "v"}), base));
  PlanPtr narrow = PlanNode::Select(
      PlanNode::Scan("t", {"k", "g", "v"}),
      Expr::And(base, Expr::Eq(Expr::Column("g"), Expr::Literal(int64_t{3}))));
  rec.Execute(narrow);
  bool found_edge = false;
  std::shared_lock<std::shared_mutex> lock(rec.graph().mutex());
  for (const auto& n : rec.graph().nodes()) {
    if (!n->subsumes.empty()) found_edge = true;
  }
  EXPECT_TRUE(found_edge);
  EXPECT_GE(rec.counters().subsumption_reuses.load(), 1);
}

TEST_F(SubsumptionTest, ExactReuseOutranksSubsumption) {
  // The narrow selection sits under a fresh aggregate root, so the lookup
  // reaches it through the reuse rules rather than the exact-hit index.
  ExprPtr base = Expr::Gt(Expr::Column("k"), Expr::Literal(int64_t{40}));
  auto narrow = [&base] {
    return PlanNode::Select(
        PlanNode::Scan("t", {"k", "g", "v"}),
        Expr::And(base,
                  Expr::Eq(Expr::Column("g"), Expr::Literal(int64_t{3}))));
  };
  auto broad = [&base] {
    return PlanNode::Select(PlanNode::Scan("t", {"k", "g", "v"}), base);
  };
  auto rollup = [&narrow] {
    return PlanNode::Aggregate(narrow(), {"k"},
                               {{AggFunc::kCount, Expr::Column("v"), "n"}});
  };

  // Control: with only the superset cached, subsumption serves the narrow
  // selection.
  Recycler control = MakeRecycler();
  control.Execute(broad());
  QueryTrace trace;
  control.Execute(rollup(), &trace);
  ASSERT_EQ(trace.num_subsumption_reuses, 1);

  // With the narrow result cached too, its exact match wins.
  Recycler rec = MakeRecycler();
  rec.Execute(narrow());
  rec.Execute(broad());
  ExecResult r = rec.Execute(rollup(), &trace);
  EXPECT_EQ(trace.num_subsumption_reuses, 0);
  EXPECT_EQ(trace.num_reuses, 1);
  EXPECT_EQ(trace.reuse_mode, ReuseMode::kExact);
  EXPECT_EQ(recycledb::testing::RowMultiset(*r.table), RunOff(rollup()));
}

// ---- direct unit tests of the ParamsSubsume predicate --------------------

TEST(ParamsSubsumeTest, SelectConjuncts) {
  ExprPtr a = Expr::Gt(Expr::Column("x"), Expr::Literal(int64_t{1}));
  ExprPtr b = Expr::Lt(Expr::Column("y"), Expr::Literal(int64_t{2}));
  PlanPtr broad = PlanNode::Select(nullptr, a)->WithChildren({});
  PlanPtr narrow = PlanNode::Select(nullptr, Expr::And(a, b))
                       ->WithChildren({});
  EXPECT_TRUE(ParamsSubsume(*broad, *narrow));
  EXPECT_FALSE(ParamsSubsume(*narrow, *broad));
}

TEST(ParamsSubsumeTest, AggregateGroupsAndAvg) {
  PlanPtr fine = PlanNode::Aggregate(
      nullptr, {"a", "b"},
      {{AggFunc::kSum, Expr::Column("v"), "s"},
       {AggFunc::kCount, Expr::Column("v"), "c"}})->WithChildren({});
  PlanPtr coarse_avg = PlanNode::Aggregate(
      nullptr, {"a"}, {{AggFunc::kAvg, Expr::Column("v"), "av"}})
      ->WithChildren({});
  EXPECT_TRUE(ParamsSubsume(*fine, *coarse_avg));  // avg from sum+count
  PlanPtr coarse_min = PlanNode::Aggregate(
      nullptr, {"a"}, {{AggFunc::kMin, Expr::Column("v"), "m"}})
      ->WithChildren({});
  EXPECT_FALSE(ParamsSubsume(*fine, *coarse_min));  // min not derivable
}

TEST(ParamsSubsumeTest, TopNLimits) {
  PlanPtr big = PlanNode::TopN(nullptr, {{"v", false}}, 100)
                    ->WithChildren({});
  PlanPtr small = PlanNode::TopN(nullptr, {{"v", false}}, 10)
                      ->WithChildren({});
  EXPECT_TRUE(ParamsSubsume(*big, *small));
  EXPECT_FALSE(ParamsSubsume(*small, *big));
}

}  // namespace
}  // namespace recycledb
