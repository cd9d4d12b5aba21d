// Tests for recycler-graph truncation (§II: "the recycler graph has to be
// truncated periodically ... e.g. by periodically removing subtrees that
// have not been accessed for some time").
#include <gtest/gtest.h>

#include "recycler/recycler.h"
#include "test_util.h"

namespace recycledb {
namespace {

class TruncationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema s({{"k", TypeId::kInt32}, {"v", TypeId::kDouble}});
    TablePtr t = MakeTable(s);
    for (int i = 0; i < 5000; ++i) {
      t->AppendRow({int32_t{i % 40}, static_cast<double>(i)});
    }
    ASSERT_TRUE(catalog_.RegisterTable("t", t).ok());
  }

  PlanPtr AggPlan(int64_t threshold) {
    return PlanNode::Aggregate(
        PlanNode::Select(
            PlanNode::Scan("t", {"k", "v"}),
            Expr::Gt(Expr::Column("k"), Expr::Literal(threshold))),
        {"k"}, {{AggFunc::kSum, Expr::Column("v"), "sv"}});
  }

  Catalog catalog_;
};

TEST_F(TruncationTest, RemovesIdleSubtreesKeepsFresh) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kHistory;
  cfg.cache_bytes = 0;
  Recycler rec(&catalog_, cfg);
  rec.Execute(AggPlan(1));  // becomes stale
  // 10 fresh queries advance the epoch and keep their own nodes fresh.
  for (int i = 0; i < 10; ++i) rec.Execute(AggPlan(2));
  int64_t before = rec.graph().Stats().num_nodes;  // scan + 2x(sel+agg)
  EXPECT_EQ(before, 5);
  int64_t removed = rec.TruncateGraph(/*idle_epochs=*/5);
  // The stale select+agg chain goes; the shared scan stays (fresh parent).
  EXPECT_EQ(removed, 2);
  EXPECT_EQ(rec.graph().Stats().num_nodes, 3);
  EXPECT_EQ(rec.graph().num_nodes(), 3);  // the O(1) count follows removals
}

TEST_F(TruncationTest, SharedPrefixSurvivesWhileAnyParentIsFresh) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kHistory;
  cfg.cache_bytes = 0;
  Recycler rec(&catalog_, cfg);
  rec.Execute(AggPlan(1));
  for (int i = 0; i < 10; ++i) rec.Execute(AggPlan(2));
  rec.TruncateGraph(5);
  // The scan leaf must still match: re-running the stale query only
  // re-inserts its own chain.
  int64_t nodes = rec.graph().Stats().num_nodes;
  rec.Execute(AggPlan(1));
  EXPECT_EQ(rec.graph().Stats().num_nodes, nodes + 2);
}

TEST_F(TruncationTest, CachedNodesAreNeverTruncated) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kSpeculation;
  Recycler rec(&catalog_, cfg);
  rec.Execute(AggPlan(1));  // speculation caches the aggregate
  ASSERT_GE(rec.graph().Stats().num_cached, 1);
  for (int i = 0; i < 10; ++i) rec.Execute(AggPlan(2));
  rec.TruncateGraph(5);
  // The cached aggregate (and, through it, its subtree's scan) survive.
  EXPECT_GE(rec.graph().Stats().num_cached, 1);
  QueryTrace trace;
  rec.Execute(AggPlan(1), &trace);
  EXPECT_GE(trace.num_reuses, 1);  // still reusable after truncation
}

TEST_F(TruncationTest, MatchingStillCorrectAfterTruncation) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kSpeculation;
  Recycler rec(&catalog_, cfg);
  RecyclerConfig off_cfg;
  off_cfg.mode = RecyclerMode::kOff;
  Recycler off(&catalog_, off_cfg);
  for (int round = 0; round < 3; ++round) {
    for (int64_t p = 0; p < 6; ++p) {
      ExecResult a = rec.Execute(AggPlan(p));
      ExecResult b = off.Execute(AggPlan(p));
      EXPECT_EQ(recycledb::testing::RowMultiset(*a.table),
                recycledb::testing::RowMultiset(*b.table));
    }
    rec.TruncateGraph(3);
  }
}

TEST_F(TruncationTest, TruncateEverythingIdle) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kHistory;
  cfg.cache_bytes = 0;
  Recycler rec(&catalog_, cfg);
  for (int64_t p = 0; p < 5; ++p) rec.Execute(AggPlan(p));
  EXPECT_GT(rec.graph().Stats().num_nodes, 0);
  // Advance the epoch well past everything, then truncate with 0 idle.
  for (int i = 0; i < 3; ++i) rec.graph().AdvanceEpoch();
  int64_t removed = rec.TruncateGraph(1);
  EXPECT_EQ(rec.graph().Stats().num_nodes, 0);
  EXPECT_GT(removed, 0);
}

}  // namespace
}  // namespace recycledb
