// Tests for recycler-graph matching, insertion, positional parameters,
// importance (h_R) maintenance, aging, and the benefit metric (paper §III).
#include <gtest/gtest.h>

#include "common/string_util.h"
#include "recycler/recycler.h"

namespace recycledb {
namespace {

class GraphTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema s({{"k", TypeId::kInt32}, {"v", TypeId::kDouble}});
    TablePtr t = MakeTable(s);
    for (int i = 0; i < 2000; ++i) {
      t->AppendRow({int32_t{i % 50}, static_cast<double>(i)});
    }
    ASSERT_TRUE(catalog_.RegisterTable("t", t).ok());
  }

  PlanPtr SelectPlan(int64_t threshold) {
    return PlanNode::Select(
        PlanNode::Scan("t", {"k", "v"}),
        Expr::Gt(Expr::Column("k"), Expr::Literal(threshold)));
  }

  PlanPtr AggPlan(int64_t threshold, const std::string& out = "sv") {
    return PlanNode::Aggregate(SelectPlan(threshold), {"k"},
                               {{AggFunc::kSum, Expr::Column("v"), out}});
  }

  /// Finds the unique graph node of `type`.
  RGNode* FindNode(Recycler& rec, OpType type) {
    RGNode* found = nullptr;
    for (const auto& n : rec.graph().nodes()) {
      if (n->type == type) {
        EXPECT_EQ(found, nullptr) << "ambiguous node query: "
                                  << OpTypeName(type);
        found = n.get();
      }
    }
    return found;
  }

  Catalog catalog_;
};

TEST_F(GraphTest, IdenticalPlansShareAllNodes) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kHistory;
  Recycler rec(&catalog_, cfg);
  rec.Execute(SelectPlan(10));
  int64_t nodes_after_first = rec.graph().Stats().num_nodes;
  EXPECT_EQ(nodes_after_first, 2);  // scan + select
  rec.Execute(SelectPlan(10));
  EXPECT_EQ(rec.graph().Stats().num_nodes, nodes_after_first);
}

TEST_F(GraphTest, DifferentConstantsShareOnlyTheScan) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kHistory;
  Recycler rec(&catalog_, cfg);
  rec.Execute(SelectPlan(10));
  rec.Execute(SelectPlan(20));
  EXPECT_EQ(rec.graph().Stats().num_nodes, 3);  // 1 scan + 2 selects
  EXPECT_EQ(rec.graph().Stats().num_leaves, 1);
}

TEST_F(GraphTest, AliasDifferencesUnifyPositionally) {
  // The same aggregation under different output aliases is ONE graph node
  // (a node's parameters read columns by ordinal, never by name).
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kHistory;
  Recycler rec(&catalog_, cfg);
  rec.Execute(AggPlan(10, "total_a"));
  int64_t n1 = rec.graph().Stats().num_nodes;
  rec.Execute(AggPlan(10, "renamed_b"));
  EXPECT_EQ(rec.graph().Stats().num_nodes, n1);
}

TEST_F(GraphTest, IntraQuerySharingDetected) {
  // A self-join whose both sides are the same subtree: one graph chain.
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kHistory;
  Recycler rec(&catalog_, cfg);
  PlanPtr left = PlanNode::Aggregate(
      SelectPlan(5), {"k"}, {{AggFunc::kSum, Expr::Column("v"), "sv"}});
  PlanPtr right = PlanNode::Project(
      PlanNode::Aggregate(SelectPlan(5), {"k"},
                          {{AggFunc::kSum, Expr::Column("v"), "sv"}}),
      {{Expr::Column("k"), "k2"}, {Expr::Column("sv"), "sv2"}});
  PlanPtr join = PlanNode::HashJoin(left, right, JoinKind::kInner, {"k"},
                                    {"k2"});
  rec.Execute(join);
  // scan, select, agg shared; project + join on top = 5 nodes.
  EXPECT_EQ(rec.graph().Stats().num_nodes, 5);
}

TEST_F(GraphTest, ImportanceCountsReoccurrences) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kHistory;
  cfg.cache_bytes = 0;  // disable materialization so h is undisturbed
  Recycler rec(&catalog_, cfg);
  rec.Execute(SelectPlan(10));  // inserts: h stays 0
  RGNode* sel = FindNode(rec, OpType::kSelect);
  ASSERT_NE(sel, nullptr);
  EXPECT_DOUBLE_EQ(sel->h, 0.0);
  rec.Execute(SelectPlan(10));
  EXPECT_DOUBLE_EQ(sel->h, 1.0);
  rec.Execute(SelectPlan(10));
  EXPECT_DOUBLE_EQ(sel->h, 2.0);
}

TEST_F(GraphTest, AgingDecaysImportance) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kHistory;
  cfg.cache_bytes = 0;
  cfg.aging_alpha = 0.5;
  Recycler rec(&catalog_, cfg);
  rec.Execute(SelectPlan(10));
  rec.Execute(SelectPlan(10));  // h = 1 at epoch 2
  RGNode* sel = FindNode(rec, OpType::kSelect);
  ASSERT_NE(sel, nullptr);
  double h_now = rec.graph().AgedH(sel);
  EXPECT_DOUBLE_EQ(h_now, 1.0);
  // Unrelated queries advance the epoch; h decays by alpha each epoch.
  rec.Execute(SelectPlan(11));
  rec.Execute(SelectPlan(12));
  EXPECT_NEAR(rec.graph().AgedH(sel), 0.25, 1e-9);
}

TEST_F(GraphTest, BcostAnnotatedAfterExecution) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kHistory;
  Recycler rec(&catalog_, cfg);
  rec.Execute(AggPlan(10));
  RGNode* agg = FindNode(rec, OpType::kAggregate);
  ASSERT_NE(agg, nullptr);
  EXPECT_TRUE(agg->has_bcost);
  EXPECT_GE(agg->bcost_ms, 0.0);
  EXPECT_GT(agg->rows, 0);
  RGNode* scan = FindNode(rec, OpType::kScan);
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->rows, 2000);
  // Inclusive: the aggregate's base cost covers its whole subtree.
  EXPECT_GE(agg->bcost_ms, scan->bcost_ms - 1e-6);
}

TEST_F(GraphTest, TrueCostSubtractsDmd) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kSpeculation;
  Recycler rec(&catalog_, cfg);
  // First run: speculation materializes the aggregate (final result).
  rec.Execute(AggPlan(10));
  RGNode* agg = FindNode(rec, OpType::kAggregate);
  RGNode* sel = FindNode(rec, OpType::kSelect);
  ASSERT_NE(agg, nullptr);
  ASSERT_NE(sel, nullptr);
  ASSERT_EQ(agg->mat_state.load(), MatState::kCached);
  // A parent of agg would see agg as DMD; test via select: its true cost
  // has no materialized descendants, so equals bcost.
  std::shared_lock<std::shared_mutex> lock(rec.graph().mutex());
  EXPECT_DOUBLE_EQ(rec.TrueCost(sel), sel->bcost_ms);
  // And the cached aggregate's own true cost is still full (DMDs are
  // descendants, not the node itself).
  EXPECT_DOUBLE_EQ(rec.TrueCost(agg), agg->bcost_ms);
}

TEST_F(GraphTest, UpdateHrOnMaterializeReducesDescendants) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kHistory;
  Recycler rec(&catalog_, cfg);
  // Three occurrences: 1st inserts, 2nd materializes (HIST store), h of
  // descendants is then reduced by the aggregate's h (Eq. 3).
  rec.Execute(AggPlan(10));
  RGNode* sel = FindNode(rec, OpType::kSelect);
  RGNode* agg = FindNode(rec, OpType::kAggregate);
  ASSERT_NE(sel, nullptr);
  rec.Execute(AggPlan(10));  // h(agg)=h(sel)=1; store decision on agg
  ASSERT_EQ(agg->mat_state.load(), MatState::kCached);
  // Eq. 3: h(sel) = 1 - h(agg at materialization) = 0.
  EXPECT_DOUBLE_EQ(sel->h, 0.0);
}

TEST_F(GraphTest, UpdateHrOnEvictRestoresDescendants) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kHistory;
  Recycler rec(&catalog_, cfg);
  rec.Execute(AggPlan(10));
  rec.Execute(AggPlan(10));
  RGNode* sel = FindNode(rec, OpType::kSelect);
  RGNode* agg = FindNode(rec, OpType::kAggregate);
  ASSERT_EQ(agg->mat_state.load(), MatState::kCached);
  double h_agg = agg->h;
  double h_sel_before = sel->h;
  rec.FlushCache();  // evicts agg -> Eq. 4 gives h back to descendants
  EXPECT_EQ(agg->mat_state.load(), MatState::kNone);
  EXPECT_DOUBLE_EQ(sel->h, h_sel_before + h_agg);
}

TEST_F(GraphTest, NodesBelowCachedAncestorDoNotGainH) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kSpeculation;
  Recycler rec(&catalog_, cfg);
  rec.Execute(AggPlan(10));  // speculation caches the aggregate
  RGNode* agg = FindNode(rec, OpType::kAggregate);
  RGNode* sel = FindNode(rec, OpType::kSelect);
  ASSERT_EQ(agg->mat_state.load(), MatState::kCached);
  double h_sel = sel->h;
  double h_agg = agg->h;
  rec.Execute(AggPlan(10));  // answered by the cached aggregate
  EXPECT_DOUBLE_EQ(agg->h, h_agg + 1);  // the used node gains h
  EXPECT_DOUBLE_EQ(sel->h, h_sel);      // shadowed descendant does not
}

TEST_F(GraphTest, GraphStatsTrackCachedBytes) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kSpeculation;
  Recycler rec(&catalog_, cfg);
  rec.Execute(AggPlan(10));
  GraphStats s = rec.graph().Stats();
  EXPECT_GE(s.num_cached, 1);
  EXPECT_GT(s.cached_bytes, 0);
  rec.FlushCache();
  s = rec.graph().Stats();
  EXPECT_EQ(s.num_cached, 0);
  EXPECT_EQ(s.cached_bytes, 0);
}

}  // namespace
}  // namespace recycledb
