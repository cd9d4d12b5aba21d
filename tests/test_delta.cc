// Delta maintenance tests: cached results kept valid under appends by
// stitching the cached prefix with a bounded scan of the appended window
// (or merging cached aggregate state with a delta-window aggregate).
// Results served through the delta path must be bit-identical to a
// recycler-bypass re-execution; the aggregate-merge path must touch zero
// base-table blocks before the cached high-water mark.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/database.h"
#include "common/string_util.h"
#include "test_util.h"
#include "trace/trace_format.h"
#include "workload/rollup.h"

namespace recycledb {
namespace {

// The scenario generators use integer-valued doubles, so partial-sum
// merging stays exact and results compare bit for bit.
using testing::BitRows;

DatabaseOptions DeltaOptions(bool delta_on = true) {
  DatabaseOptions options;
  options.recycler.mode = RecyclerMode::kSpeculation;
  options.recycler.enable_delta_maintenance = delta_on;
  return options;
}

/// Ground truth: the same statement through a recycler-bypass session.
std::vector<std::string> Truth(Database* db, const std::string& sql,
                               bool ordered) {
  SessionOptions bypass;
  bypass.bypass_recycler = true;
  auto session = db->Connect(bypass);
  Result r = session->Sql(sql);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return BitRows(*r.table(), ordered);
}

/// `db->Sql(sql)`, then the recycler's consistency check.
Result Sql(Database* db, const std::string& sql) {
  Result r = db->Sql(sql);
  const Status consistent = db->recycler().CheckConsistency();
  EXPECT_TRUE(consistent.ok()) << consistent.ToString();
  return r;
}

TEST(DeltaTest, AggMergeSumCountAvgBitIdenticalZeroRescan) {
  auto db = Database::OpenOrDie(DeltaOptions());
  rollup::RollupOptions ropt;
  ropt.initial_rows = 8192;  // 8 zone-map blocks
  ASSERT_TRUE(rollup::Setup(db.get(), ropt).ok());
  const std::string q =
      "SELECT sensor, SUM(value) AS total, COUNT(value) AS n,"
      " AVG(value) AS mean FROM events GROUP BY sensor";

  Result seed = Sql(db.get(), q);
  ASSERT_TRUE(seed.ok()) << seed.status().ToString();
  EXPECT_GE(seed.trace().blocks_scanned, 8);

  // Three append/query rounds: the refreshed result re-admits at the new
  // high-water mark, so every round merges only its own delta window.
  int64_t rows = ropt.initial_rows;
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(
        db->AppendTable("events", *rollup::MakeBatch(512, rows, ropt)).ok());
    rows += 512;
    Result merged = Sql(db.get(), q);
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    EXPECT_EQ(merged.trace().num_delta_reuses, 1) << "round " << round;
    EXPECT_EQ(merged.trace().num_agg_merges, 1) << "round " << round;
    // Zero base rescans: one block for the cached aggregate-state view
    // (CachedScan runs on the ScanOp machinery) plus the sub-block delta
    // window — never the 8+ base blocks below the cached mark.
    EXPECT_LE(merged.trace().blocks_scanned, 2) << "round " << round;
    EXPECT_LT(merged.trace().blocks_scanned, seed.trace().blocks_scanned);
    EXPECT_EQ(BitRows(*merged.table(), false), Truth(db.get(), q, false));
  }
  EXPECT_GE(db->counters().delta_hits.load(), 3);
  EXPECT_GE(db->counters().agg_merges.load(), 3);
}

TEST(DeltaTest, GroupedMinMaxDuplicateExtremes) {
  auto db = Database::OpenOrDie(DeltaOptions());
  Schema s({{"k", TypeId::kInt32}, {"v", TypeId::kDouble}});
  TablePtr t = MakeTable(s);
  for (int i = 0; i < 2000; ++i) {
    t->AppendRow({int32_t{i % 2}, static_cast<double>(i % 500)});
  }
  ASSERT_TRUE(db->CreateTable("m", t).ok());
  const std::string q =
      "SELECT k, MIN(v) AS lo, MAX(v) AS hi FROM m GROUP BY k";
  ASSERT_TRUE(Sql(db.get(), q).ok());

  // Delta duplicates both extremes of group 0 (merge must not double
  // them away) and pushes a new maximum for group 1.
  TablePtr delta = MakeTable(s);
  delta->AppendRow({int32_t{0}, 0.0});
  delta->AppendRow({int32_t{0}, 499.0});
  delta->AppendRow({int32_t{1}, 1000.0});
  ASSERT_TRUE(db->AppendTable("m", *delta).ok());

  Result merged = Sql(db.get(), q);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged.trace().num_delta_reuses, 1);
  EXPECT_EQ(merged.trace().num_agg_merges, 1);
  EXPECT_EQ(BitRows(*merged.table(), false), Truth(db.get(), q, false));
}

TEST(DeltaTest, GroupedAggDeltaMissingGroups) {
  // A delta touching only one group must not disturb the others (grouped
  // aggregation emits no row for a group absent from the delta window).
  auto db = Database::OpenOrDie(DeltaOptions());
  Schema s({{"k", TypeId::kInt32}, {"v", TypeId::kDouble}});
  TablePtr t = MakeTable(s);
  for (int i = 0; i < 3000; ++i) {
    t->AppendRow({int32_t{i % 3}, static_cast<double>(i % 100)});
  }
  ASSERT_TRUE(db->CreateTable("m", t).ok());
  const std::string q =
      "SELECT k, MIN(v) AS lo, MAX(v) AS hi, SUM(v) AS sv FROM m GROUP BY k";
  ASSERT_TRUE(Sql(db.get(), q).ok());

  TablePtr delta = MakeTable(s);
  delta->AppendRow({int32_t{0}, 7.0});
  ASSERT_TRUE(db->AppendTable("m", *delta).ok());

  Result merged = Sql(db.get(), q);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged.trace().num_delta_reuses, 1);
  EXPECT_EQ(BitRows(*merged.table(), false), Truth(db.get(), q, false));
}

TEST(DeltaTest, EmptyDeltaStaysExactHit) {
  // A zero-row append leaves the high-water mark unchanged: the cached
  // entry is still fresh and serves as a plain exact hit.
  auto db = Database::OpenOrDie(DeltaOptions());
  rollup::RollupOptions ropt;
  ropt.initial_rows = 2048;
  ASSERT_TRUE(rollup::Setup(db.get(), ropt).ok());
  const std::string q =
      "SELECT sensor, SUM(value) AS total FROM events GROUP BY sensor";
  ASSERT_TRUE(Sql(db.get(), q).ok());

  TablePtr empty = rollup::MakeBatch(0, 2048, ropt);
  ASSERT_TRUE(db->AppendTable("events", *empty).ok());

  Result again = Sql(db.get(), q);
  ASSERT_TRUE(again.ok());
  EXPECT_GE(again.trace().num_reuses, 1);
  EXPECT_EQ(again.trace().num_delta_reuses, 0);
  EXPECT_EQ(BitRows(*again.table(), false), Truth(db.get(), q, false));
}

TEST(DeltaTest, GlobalMinMaxNotMergedButCorrect) {
  // Global (ungrouped) MIN/MAX is excluded from merging — an empty delta
  // group would union the operator's pad row into the result — so the
  // append evicts the entry and the query re-executes correctly.
  auto db = Database::OpenOrDie(DeltaOptions());
  Schema s({{"k", TypeId::kInt32}, {"v", TypeId::kDouble}});
  TablePtr t = MakeTable(s);
  for (int i = 0; i < 2000; ++i) {
    t->AppendRow({int32_t{i % 2}, static_cast<double>(i % 500)});
  }
  ASSERT_TRUE(db->CreateTable("m", t).ok());
  const std::string q = "SELECT MIN(v) AS lo, MAX(v) AS hi FROM m";
  ASSERT_TRUE(Sql(db.get(), q).ok());

  TablePtr delta = MakeTable(s);
  delta->AppendRow({int32_t{0}, -5.0});
  ASSERT_TRUE(db->AppendTable("m", *delta).ok());

  Result r = Sql(db.get(), q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.trace().num_delta_reuses, 0);
  EXPECT_EQ(BitRows(*r.table(), false), Truth(db.get(), q, false));
}

TEST(DeltaTest, SelectChainStitchPreservesRowOrder) {
  auto db = Database::OpenOrDie(DeltaOptions());
  rollup::RollupOptions ropt;
  ropt.initial_rows = 6000;
  ASSERT_TRUE(rollup::Setup(db.get(), ropt).ok());
  const std::string q =
      "SELECT ts, sensor, value FROM events WHERE value >= 900.0";
  ASSERT_TRUE(Sql(db.get(), q).ok());

  int64_t rows = ropt.initial_rows;
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(
        db->AppendTable("events", *rollup::MakeBatch(700, rows, ropt)).ok());
    rows += 700;
    Result stitched = Sql(db.get(), q);
    ASSERT_TRUE(stitched.ok()) << stitched.status().ToString();
    EXPECT_EQ(stitched.trace().num_delta_reuses, 1) << "round " << round;
    EXPECT_EQ(stitched.trace().num_agg_merges, 0) << "round " << round;
    // Ordered comparison: cached prefix then delta window IS scan order.
    EXPECT_EQ(BitRows(*stitched.table(), true), Truth(db.get(), q, true));
  }
}

/// The bits of a double.
uint64_t Bits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

TEST(DeltaTest, DoubleGroupKeyIsOneRepresentativeInAnyRowOrder) {
  // -0.0 and 0.0 are one group, and so are NaNs of either sign: the
  // group's key is 0.0 or the quiet NaN whichever row comes first, in a
  // base scan and in the merge of a cached prefix with a delta alike.
  const double neg_nan = -std::numeric_limits<double>::quiet_NaN();
  const double pos_nan = std::numeric_limits<double>::quiet_NaN();
  const std::string q = "SELECT x, COUNT(v) AS n FROM m GROUP BY x";
  const std::vector<std::pair<double, double>> pairs = {
      {-0.0, 0.0}, {0.0, -0.0}, {neg_nan, pos_nan}, {pos_nan, neg_nan}};
  for (const auto& [first, second] : pairs) {
    for (bool as_delta : {false, true}) {
      SCOPED_TRACE(StrFormat("%g then %g%s", first, second,
                             as_delta ? " as prefix plus delta" : ""));
      auto db = Database::OpenOrDie(DeltaOptions());
      Schema s({{"x", TypeId::kDouble}, {"v", TypeId::kDouble}});
      TablePtr t = MakeTable(s);
      t->AppendRow({first, 1.0});
      if (!as_delta) t->AppendRow({second, 2.0});
      ASSERT_TRUE(db->CreateTable("m", t).ok());
      Result r = Sql(db.get(), q);
      if (as_delta) {
        TablePtr delta = MakeTable(s);
        delta->AppendRow({second, 2.0});
        ASSERT_TRUE(db->AppendTable("m", *delta).ok());
        r = Sql(db.get(), q);
        EXPECT_EQ(r.trace().num_agg_merges, 1);
      }
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_EQ(r.table()->num_rows(), 1);
      EXPECT_EQ(std::get<int64_t>(r.table()->Get(0, 1)), 2);
      const double key = std::get<double>(r.table()->Get(0, 0));
      EXPECT_EQ(Bits(key), Bits(std::isnan(first) ? pos_nan : 0.0));
      EXPECT_EQ(BitRows(*r.table(), true), Truth(db.get(), q, true));
    }
  }
}

/// The rollup threshold Select, run, then 20 rows appended: the next run
/// of `kHalfSelect` on `db` is a delta stitch.
constexpr char kHalfSelect[] =
    "SELECT ts, sensor, value FROM events WHERE value >= 500.0";
void SeedAndAppend(Database* db) {
  rollup::RollupOptions ropt;
  ropt.initial_rows = 6000;
  ASSERT_TRUE(rollup::Setup(db, ropt).ok());
  ASSERT_TRUE(Sql(db, kHalfSelect).ok());
  ASSERT_TRUE(
      db->AppendTable("events", *rollup::MakeBatch(20, 6000, ropt)).ok());
}

/// The cached table of the graph node whose columns `result` shares, or
/// null when no entry shares its first column.
TablePtr EntrySharing(Database* db, const Table& result) {
  RecyclerGraph& graph = db->recycler().graph();
  std::shared_lock<std::shared_mutex> lock(graph.mutex());
  for (const auto& n : graph.nodes()) {
    if (n->cached != nullptr && n->cached->num_columns() > 0 &&
        n->cached->column(0) == result.column(0)) {
      return n->cached;
    }
  }
  return nullptr;
}

TEST(DeltaTest, StitchedSelectSharesItsRefreshedEntry) {
  auto db = Database::OpenOrDie(DeltaOptions());
  SeedAndAppend(db.get());
  Result r = Sql(db.get(), kHalfSelect);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.trace().num_delta_reuses, 1);

  SessionOptions bypass;
  bypass.bypass_recycler = true;
  Result truth = db->Connect(bypass)->Sql(kHalfSelect);
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(r.num_rows(), truth.num_rows());
  EXPECT_EQ(trace::ResultDigest(*r.table()),
            trace::ResultDigest(*truth.table()));

  // The refreshed entry is the result: same columns, frozen.
  TablePtr entry = EntrySharing(db.get(), *r.table());
  ASSERT_NE(entry, nullptr);
  ASSERT_EQ(entry->num_columns(), r.table()->num_columns());
  for (int c = 0; c < entry->num_columns(); ++c) {
    EXPECT_EQ(entry->column(c), r.table()->column(c)) << "column " << c;
    EXPECT_TRUE(r.table()->column(c)->shared()) << "column " << c;
  }
  // Built once at its exact size (ts int64, sensor int32, value double):
  // no slack from capacity doubling.
  EXPECT_EQ(entry->ByteSize(), entry->num_rows() * (8 + 4 + 8));
}

TEST(DeltaDeathTest, MutatingAStitchedResultDies) {
  auto db = Database::OpenOrDie(DeltaOptions());
  SeedAndAppend(db.get());
  Result r = Sql(db.get(), kHalfSelect);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.trace().num_delta_reuses, 1);
  EXPECT_DEATH(r.table()->AppendRow({int64_t{1}, int32_t{0}, 2.0}),
               "mutating a shared column");
}

TEST(DeltaTest, RejectedRootStoreReturnsEveryRow) {
  // A buffer cap below one batch makes speculation abandon the root's
  // store; the statement must still return every row, through the copy
  // the executor makes when no store materializes.
  DatabaseOptions options = DeltaOptions();
  options.recycler.speculation_buffer_cap = 1024;
  auto db = Database::OpenOrDie(options);
  rollup::RollupOptions ropt;
  ropt.initial_rows = 6000;
  ASSERT_TRUE(rollup::Setup(db.get(), ropt).ok());
  Result r = Sql(db.get(), kHalfSelect);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(r.trace().num_spec_aborted, 1);
  EXPECT_EQ(BitRows(*r.table(), true), Truth(db.get(), kHalfSelect, true));
}

TEST(DeltaTest, RollupScenarioAllShapesBitIdentical) {
  // The full time-series rollup set (grouped SUM/COUNT/AVG/MIN/MAX and
  // overlapping threshold windows) across several append rounds: every
  // repeat after the seed round must hit, every result bit-identical.
  auto db = Database::OpenOrDie(DeltaOptions());
  rollup::RollupOptions ropt;
  ropt.initial_rows = 5000;
  ASSERT_TRUE(rollup::Setup(db.get(), ropt).ok());
  std::vector<std::string> queries = rollup::RollupSql(ropt);

  for (const std::string& q : queries) {
    ASSERT_TRUE(Sql(db.get(), q).ok());
  }
  int64_t rows = ropt.initial_rows;
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(
        db->AppendTable("events", *rollup::MakeBatch(333, rows, ropt)).ok());
    rows += 333;
    for (const std::string& q : queries) {
      Result r = Sql(db.get(), q);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(r.recycled()) << q << " round " << round;
      EXPECT_EQ(BitRows(*r.table(), false), Truth(db.get(), q, false)) << q;
    }
  }
  EXPECT_GT(db->counters().delta_hits.load(), 0);
  EXPECT_GT(db->counters().agg_merges.load(), 0);
}

TEST(DeltaTest, ReplaceTableStillHardInvalidates) {
  auto db = Database::OpenOrDie(DeltaOptions());
  Schema s({{"k", TypeId::kInt32}, {"v", TypeId::kDouble}});
  TablePtr t = MakeTable(s);
  for (int i = 0; i < 1000; ++i) t->AppendRow({int32_t{i % 4}, 1.0});
  ASSERT_TRUE(db->CreateTable("m", t).ok());
  const std::string q = "SELECT k, SUM(v) AS sv FROM m GROUP BY k";
  ASSERT_TRUE(Sql(db.get(), q).ok());

  TablePtr t2 = MakeTable(s);
  for (int i = 0; i < 1000; ++i) t2->AppendRow({int32_t{i % 4}, 2.0});
  ASSERT_TRUE(db->ReplaceTable("m", t2).ok());

  Result r = Sql(db.get(), q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.trace().num_reuses, 0);
  EXPECT_EQ(BitRows(*r.table(), false), Truth(db.get(), q, false));
}

TEST(DeltaTest, ConcurrentAppendsVsDeltaScans) {
  // TSan stress: one writer appending batches races readers whose
  // repeated rollup is served through the delta path. Every result must
  // be a consistent prefix snapshot: the row count it reflects is
  // initial + k*batch for an integral k, and SUM(ts) over the dense
  // 0..T-1 timestamps must equal T*(T-1)/2 — a torn read mixing two
  // snapshots cannot satisfy both.
  constexpr int64_t kInitial = 4096;
  constexpr int64_t kBatch = 256;
  constexpr int kAppends = 20;
  auto db = Database::OpenOrDie(DeltaOptions());
  rollup::RollupOptions ropt;
  ropt.initial_rows = kInitial;
  ASSERT_TRUE(rollup::Setup(db.get(), ropt).ok());
  const std::string q =
      "SELECT sensor, COUNT(value) AS n, SUM(ts) AS st FROM events"
      " GROUP BY sensor";
  ASSERT_TRUE(Sql(db.get(), q).ok());

  std::atomic<bool> writer_ok{true};
  std::thread writer([&] {
    for (int i = 0; i < kAppends; ++i) {
      TablePtr batch = rollup::MakeBatch(kBatch, kInitial + i * kBatch, ropt);
      if (!db->AppendTable("events", *batch).ok()) writer_ok.store(false);
      std::this_thread::yield();
    }
  });

  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      auto session = db->Connect();
      for (int i = 0; i < 40; ++i) {
        Result res = session->Sql(q);
        if (!res.ok()) {
          violations.fetch_add(1);
          continue;
        }
        const Table& t = *res.table();
        int64_t total = 0, ts_sum = 0;
        for (int64_t row = 0; row < t.num_rows(); ++row) {
          total += std::get<int64_t>(t.Get(row, 1));
          ts_sum += std::get<int64_t>(t.Get(row, 2));
        }
        bool prefix = total >= kInitial &&
                      total <= kInitial + kAppends * kBatch &&
                      (total - kInitial) % kBatch == 0;
        bool dense = ts_sum == total * (total - 1) / 2;
        if (!prefix || !dense) violations.fetch_add(1);
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();
  EXPECT_TRUE(writer_ok.load());
  EXPECT_EQ(violations.load(), 0);
}

TEST(DeltaTest, TwoSessionsRepeatOneTextWhileAThirdAppends) {
  // Two sessions repeat one statement, served from the exact-hit index by
  // its text (exact, or refreshed by delta), while a third thread appends.
  // Each
  // answer must equal a bypass run on the table version it pinned, which
  // its row count names.
  constexpr int64_t kInitial = 4096;
  constexpr int64_t kBatch = 128;
  constexpr int kAppends = 16;
  rollup::RollupOptions ropt;
  ropt.initial_rows = kInitial;
  const std::string q =
      "SELECT sensor, COUNT(value) AS n, SUM(value) AS total,"
      " MAX(value) AS hi FROM events GROUP BY sensor";
  // The bypass answer at every version, on a second database.
  std::vector<std::vector<std::string>> truth;
  {
    auto oracle_db = Database::OpenOrDie(DeltaOptions());
    ASSERT_TRUE(rollup::Setup(oracle_db.get(), ropt).ok());
    for (int k = 0; k <= kAppends; ++k) {
      truth.push_back(Truth(oracle_db.get(), q, false));
      ASSERT_TRUE(oracle_db
                      ->AppendTable("events",
                                    *rollup::MakeBatch(
                                        kBatch, kInitial + k * kBatch, ropt))
                      .ok());
    }
  }
  auto db = Database::OpenOrDie(DeltaOptions());
  ASSERT_TRUE(rollup::Setup(db.get(), ropt).ok());
  ASSERT_TRUE(Sql(db.get(), q).ok());

  std::thread writer([&] {
    for (int k = 0; k < kAppends; ++k) {
      TablePtr batch = rollup::MakeBatch(kBatch, kInitial + k * kBatch, ropt);
      EXPECT_TRUE(db->AppendTable("events", *batch).ok());
      std::this_thread::yield();
    }
  });
  std::atomic<int64_t> served{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      auto session = db->Connect();
      for (int i = 0; i < 40; ++i) {
        Result res = session->Sql(q);
        ASSERT_TRUE(res.ok()) << res.status().ToString();
        int64_t rows = 0;
        for (int64_t row = 0; row < res.table()->num_rows(); ++row) {
          rows += std::get<int64_t>(res.table()->Get(row, 1));
        }
        const int64_t k = (rows - kInitial) / kBatch;
        ASSERT_TRUE(rows >= kInitial && (rows - kInitial) % kBatch == 0 &&
                    k <= kAppends)
            << rows;
        EXPECT_EQ(BitRows(*res.table(), false), truth[k]) << "version " << k;
        served.fetch_add(res.trace().num_index_served);
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();
  EXPECT_GT(served.load(), 0);
  const Status consistent = db->recycler().CheckConsistency();
  EXPECT_TRUE(consistent.ok()) << consistent.ToString();
}

}  // namespace
}  // namespace recycledb
