// Tests for the Recycler facade: mode semantics, reuse transparency,
// invalidation, speculation decisions, and stall coordination.
#include <gtest/gtest.h>

#include <thread>

#include "common/stopwatch.h"

#include "recycler/recycler.h"
#include "test_util.h"

namespace recycledb {
namespace {

class RecyclerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema s({{"k", TypeId::kInt32}, {"v", TypeId::kDouble}});
    TablePtr t = MakeTable(s);
    for (int i = 0; i < 20000; ++i) {
      t->AppendRow({int32_t{i % 100}, static_cast<double>(i % 977)});
    }
    ASSERT_TRUE(catalog_.RegisterTable("t", t).ok());
  }

  PlanPtr AggPlan(int64_t threshold, const std::string& alias = "sv") {
    return PlanNode::Aggregate(
        PlanNode::Select(
            PlanNode::Scan("t", {"k", "v"}),
            Expr::Gt(Expr::Column("k"), Expr::Literal(threshold))),
        {"k"}, {{AggFunc::kSum, Expr::Column("v"), alias}});
  }

  Catalog catalog_;
};

TEST_F(RecyclerTest, OffModeTouchesNothing) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kOff;
  Recycler rec(&catalog_, cfg);
  rec.Execute(AggPlan(10));
  rec.Execute(AggPlan(10));
  EXPECT_EQ(rec.graph().Stats().num_nodes, 0);
  EXPECT_EQ(rec.counters().reuses.load(), 0);
  EXPECT_EQ(rec.counters().materializations.load(), 0);
}

TEST_F(RecyclerTest, HistoryNeedsThreeOccurrencesToReuse) {
  // §V: "a result has to appear at least three times in a workload for
  // the [history] recycler to benefit from reusing it".
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kHistory;
  Recycler rec(&catalog_, cfg);
  QueryTrace t1, t2, t3;
  rec.Execute(AggPlan(10), &t1);
  EXPECT_EQ(t1.num_materialized, 0);  // unseen: history cannot decide
  rec.Execute(AggPlan(10), &t2);
  EXPECT_GE(t2.num_materialized, 1);  // now known: store
  EXPECT_EQ(t2.num_reuses, 0);        // but nothing to reuse yet
  rec.Execute(AggPlan(10), &t3);
  EXPECT_GE(t3.num_reuses, 1);        // third time: reuse
}

TEST_F(RecyclerTest, SpeculationReusesFromSecondOccurrence) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kSpeculation;
  Recycler rec(&catalog_, cfg);
  QueryTrace t1, t2;
  rec.Execute(AggPlan(10), &t1);
  EXPECT_GE(t1.num_materialized, 1);  // speculative store on first run
  rec.Execute(AggPlan(10), &t2);
  EXPECT_GE(t2.num_reuses, 1);
}

TEST_F(RecyclerTest, ReuseIsTransparentAcrossAliases) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kSpeculation;
  Recycler rec(&catalog_, cfg);
  ExecResult r1 = rec.Execute(AggPlan(10, "alpha"));
  QueryTrace t2;
  ExecResult r2 = rec.Execute(AggPlan(10, "beta"), &t2);
  EXPECT_GE(t2.num_reuses, 1);  // matched through the name mapping
  EXPECT_EQ(r2.table->schema().field(1).name, "beta");  // caller's alias
  EXPECT_EQ(recycledb::testing::RowMultiset(*r1.table),
            recycledb::testing::RowMultiset(*r2.table));
}

TEST_F(RecyclerTest, ZeroCacheMeansNoMaterialization) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kSpeculation;
  cfg.cache_bytes = 0;
  Recycler rec(&catalog_, cfg);
  QueryTrace t1, t2;
  rec.Execute(AggPlan(10), &t1);
  rec.Execute(AggPlan(10), &t2);
  EXPECT_EQ(t1.num_materialized + t2.num_materialized, 0);
  EXPECT_EQ(t2.num_reuses, 0);
}

TEST_F(RecyclerTest, BufferCapAbortsSpeculationOnHugeResults) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kSpeculation;
  cfg.speculation_buffer_cap = 1024;  // tiny: everything is "too big"
  Recycler rec(&catalog_, cfg);
  QueryTrace t;
  // The aggregate result (100 groups) is small, but the final result
  // store sees the same; use a selection with a big result instead.
  PlanPtr big = PlanNode::Select(
      PlanNode::Scan("t", {"k", "v"}),
      Expr::Ge(Expr::Column("k"), Expr::Literal(int64_t{0})));
  ExecResult r = rec.Execute(big, &t);
  EXPECT_EQ(r.table->num_rows(), 20000);  // result intact
  EXPECT_EQ(t.num_materialized, 0);
  EXPECT_GE(t.num_spec_aborted, 1);
}

TEST_F(RecyclerTest, InvalidateTableEvictsDependents) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kSpeculation;
  Recycler rec(&catalog_, cfg);
  rec.Execute(AggPlan(10));
  ASSERT_GE(rec.graph().Stats().num_cached, 1);
  rec.InvalidateTable("unrelated_table");
  EXPECT_GE(rec.graph().Stats().num_cached, 1);  // untouched
  rec.InvalidateTable("t");
  EXPECT_EQ(rec.graph().Stats().num_cached, 0);
  EXPECT_GE(rec.counters().invalidations.load(), 1);
  // And the next run recomputes correctly.
  QueryTrace t;
  ExecResult r = rec.Execute(AggPlan(10), &t);
  EXPECT_EQ(t.num_reuses, 0);
  EXPECT_GT(r.table->num_rows(), 0);
}

TEST_F(RecyclerTest, MatchCostRecordedAndSmall) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kHistory;
  Recycler rec(&catalog_, cfg);
  QueryTrace t;
  rec.Execute(AggPlan(10), &t);
  EXPECT_GT(t.graph_nodes_at_match, 0);
  EXPECT_EQ(t.graph_nodes_at_match, rec.graph().Stats().num_nodes);
  EXPECT_GE(t.match_ms, 0.0);
  EXPECT_LT(t.match_ms, 100.0);  // sanity: matching ≪ execution
}

TEST_F(RecyclerTest, PreparedStoresTargetExecutedPlanNodes) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kSpeculation;
  Recycler rec(&catalog_, cfg);
  auto prepared = rec.Prepare(AggPlan(10));
  // Every store key must be a node of the prepared (rewritten) plan.
  std::set<const PlanNode*> nodes;
  std::vector<const PlanNode*> stack{prepared->plan().get()};
  while (!stack.empty()) {
    const PlanNode* n = stack.back();
    stack.pop_back();
    nodes.insert(n);
    for (const auto& c : n->children()) stack.push_back(c.get());
  }
  for (const auto& [node, req] : prepared->stores()) {
    EXPECT_TRUE(nodes.count(node) > 0);
  }
  EXPECT_GE(prepared->stores().size(), 1u);
}

TEST_F(RecyclerTest, LimitAboveStoreDoesNotLeakInFlightState) {
  // Regression: a store under a Limit never sees its input exhausted; the
  // abort-on-close path must clear the node's in-flight state, or every
  // later query matching that node stalls until timeout.
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kSpeculation;
  cfg.stall_timeout_ms = 60000;  // a leak would hang the test visibly
  Recycler rec(&catalog_, cfg);
  auto plan = [&] {
    return PlanNode::Limit(
        PlanNode::HashJoin(
            PlanNode::Scan("t", {"k", "v"}),
            PlanNode::Project(AggPlan(10),
                              {{Expr::Column("k"), "k2"},
                               {Expr::Column("sv"), "sv"}}),
            JoinKind::kInner, {"k"}, {"k2"}),
        5);
  };
  rec.Execute(plan());
  rec.Execute(plan());  // builds history for HIST store decisions
  Stopwatch sw;
  QueryTrace t3;
  rec.Execute(plan(), &t3);
  EXPECT_LT(sw.ElapsedMs(), 5000.0) << "stalled on a leaked in-flight node";
  EXPECT_LT(t3.stall_ms, 1000.0);
  // No node may be left in-flight after all queries completed.
  std::shared_lock<std::shared_mutex> lock(rec.graph().mutex());
  for (const auto& n : rec.graph().nodes()) {
    EXPECT_NE(n->mat_state.load(), MatState::kInFlight) << n->param_fp;
  }
}

TEST_F(RecyclerTest, ConcurrentIdenticalQueriesAgree) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kSpeculation;
  Recycler rec(&catalog_, cfg);
  ExecResult reference = rec.Execute(AggPlan(10));
  auto expected = recycledb::testing::RowMultiset(*reference.table);

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  // Not vector<bool>: adjacent elements share a byte, which is a real
  // data race under concurrent writers (and a TSan finding).
  std::vector<char> ok(kThreads, 0);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      ExecResult r = rec.Execute(AggPlan(10));
      ok[i] = recycledb::testing::RowMultiset(*r.table) == expected;
    });
  }
  for (auto& th : threads) th.join();
  for (int i = 0; i < kThreads; ++i) EXPECT_TRUE(ok[i]) << "thread " << i;
}

TEST_F(RecyclerTest, ConcurrentDistinctQueriesKeepGraphConsistent) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kSpeculation;
  Recycler rec(&catalog_, cfg);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (int round = 0; round < 5; ++round) {
        rec.Execute(AggPlan(i % 4));  // 4 distinct plans, contended
      }
    });
  }
  for (auto& th : threads) th.join();
  // OCC invariant: no duplicate (type, fingerprint, children) nodes.
  std::set<std::string> identities;
  std::shared_lock<std::shared_mutex> lock(rec.graph().mutex());
  for (const auto& n : rec.graph().nodes()) {
    std::string id = n->param_fp;
    for (const RGNode* c : n->children) id += "@" + std::to_string(c->id);
    EXPECT_TRUE(identities.insert(id).second) << "duplicate node: " << id;
  }
  // 4 selects + 4 aggs + 1 scan.
  EXPECT_EQ(rec.graph().Stats().num_nodes, 9);
}

}  // namespace
}  // namespace recycledb
