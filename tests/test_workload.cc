// Tests for the multi-stream workload driver and the qgen parameter
// domains (the source of the throughput test's sharing potential).
#include <gtest/gtest.h>

#include <set>

#include "api/database.h"
#include "tpch/dbgen.h"
#include "tpch/qgen.h"
#include "workload/driver.h"

namespace recycledb {
namespace {

class WorkloadTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    tpch::Generate(0.003, catalog_);
  }
  /// A speculating Database over the suite's TPC-H tables.
  static std::unique_ptr<Database> OpenDatabase() {
    DatabaseOptions options;
    options.recycler.mode = RecyclerMode::kSpeculation;
    std::unique_ptr<Database> db = Database::OpenOrDie(options);
    for (const auto& name : catalog_->TableNames()) {
      RDB_CHECK(db->CreateTable(name, catalog_->GetTable(name)).ok());
    }
    return db;
  }
  static Catalog* catalog_;
};
Catalog* WorkloadTest::catalog_ = nullptr;

TEST_F(WorkloadTest, QgenDomainsAreBounded) {
  Rng rng(1);
  // Q6 quantity in {24, 25}; Q18 in [312, 315]; Q1 delta in [60, 120].
  std::set<int64_t> q6, q18;
  for (int i = 0; i < 200; ++i) {
    q6.insert(tpch::GenerateParams(6, &rng, 1).i1);
    q18.insert(tpch::GenerateParams(18, &rng, 1).i1);
    tpch::QueryParams p1 = tpch::GenerateParams(1, &rng, 1);
    int32_t delta = MakeDate(1998, 12, 1) - p1.date1;
    EXPECT_GE(delta, 60);
    EXPECT_LE(delta, 120);
  }
  EXPECT_LE(q6.size(), 2u);
  EXPECT_LE(q18.size(), 4u);
}

TEST_F(WorkloadTest, QgenDistinctPairParameters) {
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    tpch::QueryParams p7 = tpch::GenerateParams(7, &rng, 1);
    EXPECT_NE(p7.s1, p7.s2);
    tpch::QueryParams p12 = tpch::GenerateParams(12, &rng, 1);
    EXPECT_NE(p12.s1, p12.s2);
    tpch::QueryParams p16 = tpch::GenerateParams(16, &rng, 1);
    std::set<std::string> sizes(p16.strs.begin(), p16.strs.end());
    EXPECT_EQ(sizes.size(), 8u);
  }
}

TEST_F(WorkloadTest, StreamIsPermutationOfAllPatterns) {
  Rng rng(3);
  auto stream = tpch::GenerateStream(0, &rng, 1);
  ASSERT_EQ(stream.size(), 22u);
  std::set<int> patterns;
  for (const auto& q : stream) patterns.insert(q.query);
  EXPECT_EQ(patterns.size(), 22u);
}

TEST_F(WorkloadTest, ParameterCollisionsGrowWithStreams) {
  // The paper's sharing potential: with more streams, more parameter
  // collisions. Count distinct Q6 parameter triples across N streams.
  auto distinct_q6 = [&](int nstreams) {
    Rng rng(7);
    std::set<std::string> seen;
    for (int s = 0; s < nstreams; ++s) {
      tpch::QueryParams p = tpch::GenerateParams(6, &rng, 1);
      seen.insert(std::to_string(p.date1) + "/" + std::to_string(p.d1) + "/" +
                  std::to_string(p.i1));
    }
    return static_cast<int>(seen.size());
  };
  // Domain size is 5*8*2 = 80: by 256 streams most values repeat.
  EXPECT_EQ(distinct_q6(4), 4);       // few collisions at 4 streams
  EXPECT_LT(distinct_q6(256), 81);    // saturated at 256
}

TEST_F(WorkloadTest, DriverRunsAllQueriesAndAggregates) {
  auto db = OpenDatabase();
  std::vector<workload::StreamSpec> streams;
  Rng rng(9);
  for (int s = 0; s < 4; ++s) {
    workload::StreamSpec spec;
    for (int q : {1, 6, 13}) {
      tpch::QueryParams p = tpch::GenerateParams(q, &rng, 0.003);
      spec.labels.push_back("Q" + std::to_string(q));
      spec.plans.push_back(tpch::BuildQuery(q, p, 0.003));
    }
    streams.push_back(std::move(spec));
  }
  workload::RunReport report = workload::RunStreams(db.get(), streams, 4);
  EXPECT_EQ(report.records.size(), 12u);
  EXPECT_EQ(report.stream_ms.size(), 4u);
  for (double ms : report.stream_ms) EXPECT_GT(ms, 0.0);
  ASSERT_EQ(report.by_label.size(), 3u);
  EXPECT_EQ(report.by_label.at("Q1").count, 4);
  EXPECT_GT(report.AvgStreamMs(), 0.0);
}

TEST_F(WorkloadTest, ConcurrencyCapRespectedAndResultsStable) {
  auto db = OpenDatabase();
  Rng rng(13);
  // One fixed parameter assignment shared by all 8 streams, so every
  // stream issues the identical Q6 and sharing is guaranteed.
  tpch::QueryParams p = tpch::GenerateParams(6, &rng, 0.003);
  std::vector<workload::StreamSpec> streams;
  for (int s = 0; s < 8; ++s) {
    workload::StreamSpec spec;
    spec.labels.push_back("Q6");
    spec.plans.push_back(tpch::BuildQuery(6, p, 0.003));
    streams.push_back(std::move(spec));
  }
  workload::RunReport report = workload::RunStreams(db.get(), streams, 2);
  EXPECT_EQ(report.records.size(), 8u);
  // At least some executions should have reused or stalled on peers.
  int reuse_or_stall = 0;
  for (const auto& r : report.records) {
    reuse_or_stall += r.trace.num_reuses + r.trace.num_stalls;
  }
  EXPECT_GT(reuse_or_stall, 0);
}

}  // namespace
}  // namespace recycledb
