// Concurrent-recycler stress tests: N threads executing overlapping plans
// (reuse + stall + eviction under contention), invalidation and flush
// racing in-flight scans, and the stall-timeout path. These are the tests
// the CI ThreadSanitizer job runs; they extend the shared-ownership
// lifetime guarantees of tests/test_views.cc to genuinely concurrent
// streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "api/database.h"
#include "common/stopwatch.h"
#include "recycler/recycler.h"
#include "test_util.h"
#include "workload/driver.h"

namespace recycledb {
namespace {

/// Reference configuration with recycling off (for expected results).
RecyclerConfig OffConfig() {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kOff;
  return cfg;
}

class ConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema s({{"k", TypeId::kInt32}, {"v", TypeId::kDouble}});
    TablePtr t = MakeTable(s);
    for (int i = 0; i < 20000; ++i) {
      t->AppendRow({int32_t{i % 100}, static_cast<double>(i % 977)});
    }
    ASSERT_TRUE(catalog_.RegisterTable("t", t).ok());
  }

  /// Aggregate over a selection; distinct thresholds give overlapping
  /// plans that share the scan + selection prefix in the graph.
  PlanPtr AggPlan(int64_t threshold) {
    return PlanNode::Aggregate(
        PlanNode::Select(
            PlanNode::Scan("t", {"k", "v"}),
            Expr::Gt(Expr::Column("k"), Expr::Literal(threshold))),
        {"k"}, {{AggFunc::kSum, Expr::Column("v"), "sv"}});
  }

  /// Verifies the graph settles into a consistent quiescent state: no
  /// node in flight, and cached bookkeeping consistent with the cache.
  void ExpectQuiescentConsistency(Recycler& rec) {
    std::shared_lock<std::shared_mutex> lock(rec.graph().mutex());
    int64_t cached_nodes = 0;
    for (const auto& n : rec.graph().nodes()) {
      EXPECT_NE(n->mat_state.load(), MatState::kInFlight) << "node " << n->id;
      if (n->mat_state.load() == MatState::kCached) ++cached_nodes;
    }
    EXPECT_EQ(cached_nodes, rec.cache().num_entries());
    if (rec.config().cache_bytes >= 0) {
      EXPECT_LE(rec.cache().used_bytes(), rec.config().cache_bytes);
    }
  }

  Catalog catalog_;
};

TEST_F(ConcurrencyTest, MultiStreamOverlappingPlansUnderContention) {
  // 8 threads x 6 rounds over 4 overlapping plans through one recycler:
  // exercises concurrent matching (shared lock), insertion races (OCC
  // revalidation), store-claim CAS races, reuse, and stalls — the
  // ThreadSanitizer workhorse for the Prepare/OnComplete path.
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kSpeculation;
  Recycler rec(&catalog_, cfg);

  std::vector<std::multiset<std::string>> expected;
  for (int p = 0; p < 4; ++p) {
    Recycler ref(&catalog_, OffConfig());
    expected.push_back(
        recycledb::testing::RowMultiset(*ref.Execute(AggPlan(p)).table));
  }

  constexpr int kThreads = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (int round = 0; round < 6; ++round) {
        int p = (i + round) % 4;
        ExecResult r = rec.Execute(AggPlan(p));
        if (recycledb::testing::RowMultiset(*r.table) != expected[p]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(rec.counters().queries.load(), kThreads * 6);
  EXPECT_GT(rec.counters().reuses.load(), 0);
  ExpectQuiescentConsistency(rec);
}

TEST_F(ConcurrencyTest, TinyCacheEvictionChurnStaysConsistent) {
  // A cache far smaller than the working set forces continuous
  // admit/evict churn while other streams reuse and stall: races between
  // OfferResult, eviction, and snapshotting readers all funnel through
  // the cache mutex + mat shards.
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kSpeculation;
  cfg.cache_bytes = 8 << 10;  // a couple of aggregate results at most
  Recycler rec(&catalog_, cfg);

  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (int round = 0; round < 8; ++round) {
        ExecResult r = rec.Execute(AggPlan((i * 3 + round) % 6));
        if (r.table == nullptr || r.table->num_rows() == 0) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  ExpectQuiescentConsistency(rec);
}

TEST_F(ConcurrencyTest, InvalidateAndFlushRaceInFlightScans) {
  // Extends test_views.cc's lifetime rules across threads: queries that
  // snapshotted a cached result keep valid (zero-copy) data while
  // InvalidateTable / FlushCache concurrently drop the graph's reference.
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kSpeculation;
  Recycler rec(&catalog_, cfg);

  Recycler ref(&catalog_, OffConfig());
  auto expected =
      recycledb::testing::RowMultiset(*ref.Execute(AggPlan(10)).table);

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      for (int round = 0; round < 10; ++round) {
        ExecResult r = rec.Execute(AggPlan(10));
        if (recycledb::testing::RowMultiset(*r.table) != expected) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  std::thread sweeper([&] {
    int i = 0;
    while (!stop.load()) {
      if (++i % 2 == 0) {
        rec.InvalidateTable("t");
      } else {
        rec.FlushCache();
      }
      std::this_thread::yield();
    }
  });
  for (auto& th : threads) th.join();
  stop.store(true);
  sweeper.join();
  EXPECT_EQ(mismatches.load(), 0);
  ExpectQuiescentConsistency(rec);
}

TEST_F(ConcurrencyTest, StallTimeoutFallsBackToExecution) {
  // Deterministic stall coverage: pin a node in kInFlight with no
  // materializer behind it; the next query must stall, hit the timeout,
  // and fall back to executing the subtree itself with a correct result.
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kSpeculation;
  cfg.stall_timeout_ms = 50;
  Recycler rec(&catalog_, cfg);

  ExecResult first = rec.Execute(AggPlan(10));
  auto expected = recycledb::testing::RowMultiset(*first.table);

  RGNode* agg = nullptr;
  {
    std::shared_lock<std::shared_mutex> lock(rec.graph().mutex());
    for (const auto& n : rec.graph().nodes()) {
      if (n->type == OpType::kAggregate) agg = n.get();
    }
  }
  ASSERT_NE(agg, nullptr);
  // Simulate an abandoned materializer (e.g. a crashed stream).
  rec.FlushCache();
  agg->mat_state.store(MatState::kInFlight);

  Stopwatch sw;
  QueryTrace trace;
  ExecResult r = rec.Execute(AggPlan(10), &trace);
  EXPECT_EQ(recycledb::testing::RowMultiset(*r.table), expected);
  EXPECT_GE(trace.num_stalls, 1);
  EXPECT_GE(trace.stall_ms, 45.0);  // waited out the timeout
  EXPECT_LT(sw.ElapsedMs(), 10000.0);
  agg->mat_state.store(MatState::kNone);
}

TEST_F(ConcurrencyTest, ColdStartHerdReusesOrStallsAndAgrees) {
  // A herd of threads issuing the identical expensive plan from cold:
  // one claims the speculative store, the rest either stall on the
  // in-flight materialization or reuse the finished result. Repeat with
  // fresh recyclers so the interleaving varies.
  Recycler ref(&catalog_, OffConfig());
  auto expected =
      recycledb::testing::RowMultiset(*ref.Execute(AggPlan(7)).table);

  int64_t reuse_or_stall = 0;
  for (int round = 0; round < 4; ++round) {
    RecyclerConfig cfg;
    cfg.mode = RecyclerMode::kSpeculation;
    Recycler rec(&catalog_, cfg);
    constexpr int kThreads = 6;
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&] {
        ExecResult r = rec.Execute(AggPlan(7));
        if (recycledb::testing::RowMultiset(*r.table) != expected) {
          mismatches.fetch_add(1);
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(mismatches.load(), 0);
    reuse_or_stall +=
        rec.counters().reuses.load() + rec.counters().stalls.load();
    ExpectQuiescentConsistency(rec);
  }
  // Across 4 rounds x 6 threads, sharing must have happened somewhere.
  EXPECT_GT(reuse_or_stall, 0);
}

TEST_F(ConcurrencyTest, WorkloadDriverBoundsConcurrentExecution) {
  // End-to-end through the workload driver: more streams than execution
  // slots, each on its own session. Also validates the per-stream
  // aggregates.
  DatabaseOptions options;
  options.recycler.mode = RecyclerMode::kSpeculation;
  auto db = Database::OpenOrDie(options);
  ASSERT_TRUE(db->CreateTable("t", catalog_.GetTable("t")).ok());

  constexpr int kStreams = 6;
  constexpr int kMaxConcurrent = 2;
  std::vector<workload::StreamSpec> streams;
  for (int s = 0; s < kStreams; ++s) {
    workload::StreamSpec spec;
    for (int q = 0; q < 4; ++q) {
      spec.labels.push_back("agg" + std::to_string(q % 3));
      spec.plans.push_back(AggPlan(q % 3));
    }
    streams.push_back(std::move(spec));
  }

  workload::RunReport report =
      workload::RunStreams(db.get(), std::move(streams), kMaxConcurrent);

  EXPECT_EQ(report.TotalQueries(), kStreams * 4);
  ASSERT_EQ(report.stream_stats.size(), static_cast<size_t>(kStreams));
  for (const auto& ss : report.stream_stats) {
    EXPECT_EQ(ss.queries, 4);
    EXPECT_GT(ss.span_ms, 0.0);
  }
  EXPECT_GT(report.QueriesPerSec(), 0.0);
  EXPECT_GT(report.Totals().num_reuses, 0);
  EXPECT_GE(report.LatencyPercentileMs(99),
            report.LatencyPercentileMs(50));

  // The execution bound, from the records: sweep the [start, end]
  // intervals (an end sorts before a start at the same instant) and
  // track how many statements ran at once.
  std::vector<std::pair<double, int>> events;
  for (const auto& r : report.records) {
    events.emplace_back(r.start_ms, +1);
    events.emplace_back(r.end_ms, -1);
  }
  std::sort(events.begin(), events.end());
  int running = 0, peak = 0;
  for (const auto& [ms, delta] : events) {
    running += delta;
    peak = std::max(peak, running);
  }
  EXPECT_GE(peak, 1);
  EXPECT_LE(peak, kMaxConcurrent);
  ExpectQuiescentConsistency(db->recycler());
}

}  // namespace
}  // namespace recycledb
