// Tests for the synthetic SkyServer workload and its table function.
#include <gtest/gtest.h>

#include "baseline/keepall.h"
#include "recycler/recycler.h"
#include "skyserver/skyserver.h"
#include "test_util.h"

namespace recycledb {
namespace {

class SkyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    skyserver::Setup(20000, catalog_);
  }
  static Catalog* catalog_;
};
Catalog* SkyTest::catalog_ = nullptr;

TEST_F(SkyTest, ConeSearchReturnsOnlyObjectsWithinRadius) {
  PlanPtr fn = PlanNode::FunctionScan("fGetNearbyObjEq", {195.0, 2.5, 0.5});
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kOff;
  Recycler off(catalog_, cfg);
  ExecResult r = off.Execute(fn);
  ASSERT_GT(r.table->num_rows(), 0);
  const double* dist = r.table->ColumnByName("distance")->Raw<double>();
  for (int64_t i = 0; i < r.table->num_rows(); ++i) {
    EXPECT_GE(dist[i], 0.0);
    EXPECT_LE(dist[i], 0.5);
  }
}

TEST_F(SkyTest, ConeRadiusMonotone) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kOff;
  Recycler off(catalog_, cfg);
  auto count = [&](double radius) {
    return off.Execute(PlanNode::FunctionScan("fGetNearbyObjEq",
                                              {195.0, 2.5, radius}))
        .table->num_rows();
  };
  EXPECT_LE(count(0.2), count(0.5));
  EXPECT_LE(count(0.5), count(2.0));
}

TEST_F(SkyTest, WorkloadHasDominantPatternSharingFunctionCall) {
  Rng rng(5);
  auto workload = skyserver::GenerateWorkload(100, &rng);
  ASSERT_EQ(workload.size(), 100u);
  int dominant = 0;
  std::set<std::string> function_keys;
  for (const auto& q : workload) {
    if (q.dominant) ++dominant;
    // Find the FunctionScan leaf.
    const PlanNode* n = q.plan.get();
    while (n->num_children() > 0) n = n->child(0).get();
    ASSERT_EQ(n->type(), OpType::kFunctionScan);
    std::string key;
    n->AppendParamKey(&key, /*positional=*/false);
    function_keys.insert(std::move(key));
  }
  EXPECT_GT(dominant, 50);
  // Every query shares the same fGetNearbyObjEq(195, 2.5, 0.5) call.
  EXPECT_EQ(function_keys.size(), 1u);
}

TEST_F(SkyTest, RecyclerReusesFunctionCallAcrossVariants) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kSpeculation;
  Recycler rec(catalog_, cfg);
  Rng rng(5);
  auto workload = skyserver::GenerateWorkload(30, &rng);
  int64_t reuses_before = rec.counters().reuses.load();
  for (const auto& q : workload) rec.Execute(q.plan);
  EXPECT_GT(rec.counters().reuses.load(), reuses_before + 10);
  // The cache stays small (the paper: a few hundred KB fits everything).
  EXPECT_LT(rec.graph().Stats().cached_bytes, 4 << 20);
}

TEST_F(SkyTest, RecyclerAndOffAgreeOnWorkloadResults) {
  RecyclerConfig on_cfg;
  on_cfg.mode = RecyclerMode::kSpeculation;
  Recycler on(catalog_, on_cfg);
  RecyclerConfig off_cfg;
  off_cfg.mode = RecyclerMode::kOff;
  Recycler off(catalog_, off_cfg);
  Rng rng(11);
  auto workload = skyserver::GenerateWorkload(20, &rng);
  for (const auto& q : workload) {
    ExecResult r_on = on.Execute(q.plan);
    ExecResult r_off = off.Execute(q.plan);
    // LIMIT over a join is order-dependent but deterministic in this
    // engine, and reuse preserves the cached row order.
    EXPECT_EQ(recycledb::testing::RowMultiset(*r_on.table),
              recycledb::testing::RowMultiset(*r_off.table));
  }
}

TEST_F(SkyTest, KeepAllBaselineHandlesFunctionScan) {
  KeepAllEngine keepall(catalog_, {});
  Rng rng(5);
  auto workload = skyserver::GenerateWorkload(10, &rng);
  for (const auto& q : workload) {
    TablePtr r = keepall.Execute(q.plan);
    EXPECT_LE(r->num_rows(), 15);  // LIMIT bounded
  }
  EXPECT_GT(keepall.stats().node_hits, 0);
}

}  // namespace
}  // namespace recycledb
