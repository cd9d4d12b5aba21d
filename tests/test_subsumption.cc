// Tests for subsumption-based reuse (§IV-A): column subsumption, tuple
// subsumption for selections / aggregates / top-N, and tuple subsumption
// racing appends and refreshes.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "api/database.h"
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

  // The reverse never derives: the narrow result lacks rows of the broad.
  Recycler reverse = MakeRecycler();
  reverse.Execute(narrow_copy->CloneDeep());
  reverse.Execute(broad->CloneDeep(), &trace);
  EXPECT_EQ(trace.num_subsumption_reuses, 0);
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

  // A cached top-10 does not answer a top-500.
  Recycler reverse = MakeRecycler();
  reverse.Execute(small());
  reverse.Execute(big->CloneDeep(), &trace);
  EXPECT_EQ(trace.num_subsumption_reuses, 0);
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

TEST(SubsumptionStress, CoarseAggregatesRaceRefreshAndAppends) {
  // TSan stress: four threads repeat a coarse aggregate that tuple
  // subsumption derives from the cached fine one, a fifth reruns the fine
  // aggregate (refreshing it by a delta merge after each append), and a
  // sixth appends. Subsumption credits its source under the shared graph
  // lock, concurrently with the refresh's admission. Each coarse result
  // must equal the bypass result at the snapshot it read, which its
  // COUNT(*) total identifies.
  constexpr int kInitial = 2000;
  constexpr int kBatch = 50;
  constexpr int kAppends = 12;
  Schema schema({{"g", TypeId::kInt32},
                 {"k", TypeId::kInt32},
                 {"v", TypeId::kInt64}});
  auto rows = [&schema](int from, int count) {
    TablePtr t = MakeTable(schema);
    for (int i = from; i < from + count; ++i) {
      t->AppendRow({int32_t{i % 5}, int32_t{i % 13}, int64_t{i % 101}});
    }
    return t;
  };
  auto fine = [] {
    return PlanNode::Aggregate(PlanNode::Scan("w", {"g", "k", "v"}),
                               {"g", "k"},
                               {{AggFunc::kSum, Expr::Column("v"), "sv"},
                                {AggFunc::kCount, Expr::Column("v"), "cv"},
                                {AggFunc::kCount, Expr::Literal(int64_t{1}),
                                 "n"}});
  };
  auto coarse = [] {
    return PlanNode::Aggregate(PlanNode::Scan("w", {"g", "k", "v"}), {"g"},
                               {{AggFunc::kSum, Expr::Column("v"), "sv"},
                                {AggFunc::kAvg, Expr::Column("v"), "av"},
                                {AggFunc::kCount, Expr::Literal(int64_t{1}),
                                 "n"},
                                {AggFunc::kCount, Expr::Column("v"), "cv"}});
  };
  auto total = [](const Table& t) {
    int64_t n = 0;
    for (int64_t r = 0; r < t.num_rows(); ++r) {
      n += std::get<int64_t>(t.Get(r, 3));
    }
    return n;
  };

  // The bypass result at every snapshot the race can read.
  std::map<int64_t, std::vector<std::string>> truth;
  {
    auto db = Database::OpenOrDie();
    ASSERT_TRUE(db->CreateTable("w", rows(0, kInitial)).ok());
    SessionOptions bypass;
    bypass.bypass_recycler = true;
    auto session = db->Connect(bypass);
    for (int i = 0; i <= kAppends; ++i) {
      if (i > 0) {
        ASSERT_TRUE(
            db->AppendTable("w", *rows(kInitial + (i - 1) * kBatch, kBatch))
                .ok());
      }
      Result r = session->Execute(coarse());
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      truth[total(*r.table())] = testing::BitRows(*r.table(), false);
    }
  }

  DatabaseOptions options;
  options.recycler.mode = RecyclerMode::kSpeculation;
  auto db = Database::OpenOrDie(options);
  ASSERT_TRUE(db->CreateTable("w", rows(0, kInitial)).ok());
  ASSERT_TRUE(db->Execute(fine()).ok());
  Result warm = db->Execute(coarse());
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm.trace().num_subsumption_reuses, 1);

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&] {
      auto session = db->Connect();
      for (int i = 0; i < 30; ++i) {
        Result r = session->Execute(coarse());
        auto want = r.ok() ? truth.find(total(*r.table())) : truth.end();
        if (want == truth.end() ||
            testing::BitRows(*r.table(), false) != want->second) {
          failures.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&] {
    auto session = db->Connect();
    while (!done.load()) {
      if (!session->Execute(fine()).ok()) failures.fetch_add(1);
    }
  });
  std::thread writer([&] {
    for (int i = 0; i < kAppends; ++i) {
      if (!db->AppendTable("w", *rows(kInitial + i * kBatch, kBatch)).ok()) {
        failures.fetch_add(1);
      }
      std::this_thread::yield();
    }
  });
  writer.join();
  for (int c = 0; c < 4; ++c) threads[c].join();
  done = true;
  threads.back().join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(db->counters().subsumption_reuses.load(), 1);
}

}  // namespace
}  // namespace recycledb
