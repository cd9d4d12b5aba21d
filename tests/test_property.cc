// Property-based tests: random plan workloads against the recycler.
//
// Properties checked across randomized workloads (parameterized by seed):
//  P1. Transparency: every mode returns exactly the OFF results and the
//      raw arm's (no canonicalizer, no zone-map pruning), with arbitrary
//      interleaving and repetition.
//  P2. Graph idempotence: re-preparing a seen plan adds no nodes.
//  P3. h is never negative; epochs never exceed the global epoch.
//  P4. The cache never exceeds its capacity.
//  P5. Cached state is consistent (Recycler::CheckConsistency):
//      mat_state == kCached iff the node holds a table, cached bytes add
//      up, and the exact-hit index agrees with the cache.
//  P6. Differential SQL fuzz: random SQL over a random append schedule,
//      with edge values of the value order in the data, returns
//      bit-identical rows recycler-on, bypass, and raw (no canonicalizer,
//      no zone-map pruning); rows where p holds and rows where NOT p
//      holds partition the table (TLP); IN equals its ORed equalities;
//      and the recorded trace replays on a fresh engine with identical
//      reuse modes and digests.
//  P7. Keys are injective: over identifiers built from separator
//      characters and literals that print alike, two expression or plan
//      keys are equal exactly when the trees are; an ordinal key decodes
//      and re-encodes to itself; and an expression keys over an input
//      as its positional copy keys over the ordinal-named input.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "api/database.h"
#include "common/rng.h"
#include "recycler/recycler.h"
#include "test_util.h"
#include "trace/recorder.h"
#include "trace/replayer.h"
#include "trace/trace_format.h"

namespace recycledb {
namespace {

/// Generates random but always-valid plans over the fixed test table
/// t(a:int32, b:int32, v:double, s:string, d:date).
class RandomPlanGenerator {
 public:
  explicit RandomPlanGenerator(uint64_t seed) : rng_(seed) {}

  PlanPtr Next() {
    PlanPtr plan = PlanNode::Scan("t", {"a", "b", "v", "s", "d"});
    if (rng_.Uniform(0, 3) > 0) plan = AddSelect(plan);
    switch (rng_.Uniform(0, 3)) {
      case 0:
        plan = AddAggregate(plan);
        break;
      case 1:
        plan = AddProject(plan);
        break;
      case 2:
        plan = AddAggregate(plan);
        if (rng_.Uniform(0, 1) == 0) plan = AddTopN(plan);
        break;
      default:
        break;  // bare (filtered) scan
    }
    return plan;
  }

 private:
  ExprPtr RandomPredicate() {
    // Small constant domains so plans repeat across the workload.
    ExprPtr c1 = Expr::Compare(
        static_cast<CompareOp>(rng_.Uniform(0, 5)), Expr::Column("a"),
        Expr::Literal(rng_.Uniform(0, 4) * 10));
    if (rng_.Uniform(0, 1) == 0) return c1;
    return Expr::And(c1, Expr::Lt(Expr::Column("b"),
                                  Expr::Literal(rng_.Uniform(1, 4) * 100)));
  }

  PlanPtr AddSelect(PlanPtr in) {
    return PlanNode::Select(std::move(in), RandomPredicate());
  }

  PlanPtr AddProject(PlanPtr in) {
    return PlanNode::Project(
        std::move(in),
        {{Expr::Column("a"), "pa"},
         {Expr::Arith(ArithOp::kMul, Expr::Column("v"),
                      Expr::Literal(static_cast<double>(rng_.Uniform(1, 3)))),
          "pv"}});
  }

  PlanPtr AddAggregate(PlanPtr in) {
    std::vector<std::string> groups;
    if (rng_.Uniform(0, 3) > 0) {
      groups.push_back(rng_.Uniform(0, 1) == 0 ? "a" : "b");
    }
    std::vector<AggItem> aggs;
    aggs.push_back({AggFunc::kSum, Expr::Column("v"), "sv"});
    if (rng_.Uniform(0, 1) == 0) {
      aggs.push_back({AggFunc::kCount, Expr::Literal(int64_t{1}), "cnt"});
    }
    if (rng_.Uniform(0, 2) == 0) {
      aggs.push_back({AggFunc::kMax, Expr::Column("v"), "mx"});
    }
    return PlanNode::Aggregate(std::move(in), std::move(groups),
                               std::move(aggs));
  }

  PlanPtr AddTopN(PlanPtr in) {
    return PlanNode::TopN(std::move(in), {{"sv", false}},
                          rng_.Uniform(1, 20));
  }

  Rng rng_;
};

class PropertyTest : public ::testing::TestWithParam<int> {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    Schema s({{"a", TypeId::kInt32},
              {"b", TypeId::kInt32},
              {"v", TypeId::kDouble},
              {"s", TypeId::kString},
              {"d", TypeId::kDate}});
    TablePtr t = MakeTable(s);
    Rng rng(271828);
    for (int i = 0; i < 30000; ++i) {
      t->AppendRow({static_cast<int32_t>(rng.Uniform(0, 60)),
                    static_cast<int32_t>(rng.Uniform(0, 500)),
                    static_cast<double>(rng.Uniform(0, 100000)) / 7.0,
                    "w" + std::to_string(rng.Uniform(0, 30)),
                    MakeDate(1994, 1, 1) +
                        static_cast<int32_t>(rng.Uniform(0, 1500))});
    }
    ASSERT_TRUE(catalog_->RegisterTable("t", t).ok());
  }

  static void CheckInvariants(Recycler& rec) {
    {
      std::shared_lock<std::shared_mutex> lock(rec.graph().mutex());
      int64_t epoch = rec.graph().epoch();
      for (const auto& n : rec.graph().nodes()) {
        EXPECT_GE(n->h, 0.0) << "P3: negative h on node " << n->id;
        EXPECT_LE(n->h_epoch, epoch) << "P3: epoch from the future";
      }
      if (!rec.cache().unlimited()) {
        EXPECT_LE(rec.cache().used_bytes(), rec.cache().capacity_bytes())
            << "P4: cache over capacity";
      }
    }
    const Status consistent = rec.CheckConsistency();
    EXPECT_TRUE(consistent.ok()) << "P5: " << consistent.ToString();
  }

  static Catalog* catalog_;
};
Catalog* PropertyTest::catalog_ = nullptr;

/// A plan's rows for comparison: for a top-N only its sort keys, since
/// ties at the cut are resolved arbitrarily.
std::multiset<std::string> ComparableRows(const PlanPtr& plan,
                                          const Table& table) {
  return plan->type() == OpType::kTopN
             ? recycledb::testing::ColumnMultiset(table, {"sv"})
             : recycledb::testing::RowMultiset(table);
}

TEST_P(PropertyTest, TransparencyAcrossModes) {
  const int seed = GetParam();
  constexpr int kQueries = 40;
  // Generators with the same seed produce the same workload; reuse
  // opportunities come from the small constant domains. The OFF rows of
  // each statement, which every arm must return, agree with the raw
  // arm's: the plan as written, over full scans, no recycler.
  std::vector<std::multiset<std::string>> expected;
  {
    RecyclerConfig off_cfg;
    off_cfg.mode = RecyclerMode::kOff;
    Recycler off(catalog_, off_cfg);
    DatabaseOptions raw_options;
    raw_options.canonicalize_plans = false;
    raw_options.recycler.enable_zone_map_pruning = false;
    auto raw_db = Database::OpenOrDie(raw_options);
    ASSERT_TRUE(raw_db->CreateTable("t", catalog_->GetTable("t")).ok());
    SessionOptions bypass;
    bypass.bypass_recycler = true;
    auto raw = raw_db->Connect(bypass);
    RandomPlanGenerator gen_off(seed);
    RandomPlanGenerator gen_raw(seed);
    for (int q = 0; q < kQueries; ++q) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " query " +
                   std::to_string(q));
      PlanPtr plan_off = gen_off.Next();
      PlanPtr plan_raw = gen_raw.Next();
      expected.push_back(ComparableRows(plan_off, *off.Execute(plan_off).table));
      Result r_raw = raw->Execute(plan_raw);
      ASSERT_TRUE(r_raw.ok()) << r_raw.status().ToString();
      EXPECT_EQ(expected.back(), ComparableRows(plan_raw, *r_raw.table()));
    }
  }
  for (RecyclerMode mode : {RecyclerMode::kHistory, RecyclerMode::kSpeculation,
                            RecyclerMode::kProactive}) {
    RecyclerConfig on_cfg;
    on_cfg.mode = mode;
    on_cfg.cache_bytes = 8 << 20;  // small enough to force evictions
    Recycler on(catalog_, on_cfg);
    RandomPlanGenerator gen(seed);
    for (int q = 0; q < kQueries; ++q) {
      PlanPtr plan = gen.Next();
      SCOPED_TRACE("seed " + std::to_string(seed) + " query " +
                   std::to_string(q) + " mode " +
                   std::string(RecyclerModeName(mode)));
      EXPECT_EQ(expected[q], ComparableRows(plan, *on.Execute(plan).table));
      CheckInvariants(on);
    }
  }
}

TEST_P(PropertyTest, GraphIdempotenceUnderRepetition) {
  const int seed = GetParam();
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kHistory;
  cfg.cache_bytes = 0;  // matching only
  Recycler rec(catalog_, cfg);
  RandomPlanGenerator gen(seed);
  std::vector<PlanPtr> plans;
  for (int i = 0; i < 20; ++i) plans.push_back(gen.Next());
  for (const auto& p : plans) rec.Prepare(p->CloneShallow());
  int64_t nodes = rec.graph().Stats().num_nodes;
  // Re-preparing the same plans must not grow the graph (P2).
  for (const auto& p : plans) rec.Prepare(p->CloneShallow());
  EXPECT_EQ(rec.graph().Stats().num_nodes, nodes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest,
                         ::testing::Values(1, 7, 23, 51, 97, 131, 211, 307));

// ---------------------------------------------------------------------------
// P6: differential SQL fuzz over a random append schedule
// ---------------------------------------------------------------------------

/// Deterministic per-row content for the fuzz table: the row at global
/// index `i` is the same whether it landed in the initial load or in a
/// later append batch, so replay can regenerate any recorded batch.
std::vector<Datum> FuzzRow(int64_t i) {
  Rng rng(0x5fbu ^ static_cast<uint64_t>(i) * 0x9e3779b97f4a7c15ull);
  // v is a multiple of 1/8: sums stay exactly representable, so
  // aggregate results are order-independent and the bit-identity
  // check compares content, not summation order (delta merges and
  // subsumption legitimately re-associate floating-point sums).
  const int32_t a = static_cast<int32_t>(rng.Uniform(0, 60));
  const int32_t b = static_cast<int32_t>(rng.Uniform(0, 500));
  double v = static_cast<double>(rng.Uniform(0, 100000)) / 8.0;
  // One row in 16 holds an edge value of the value order instead. One
  // infinity sign only, so a sum never meets inf - inf, whose NaN would
  // depend on the order of addition.
  const double edges[] = {std::nan(""), std::numeric_limits<double>::infinity(),
                          0.0, -0.0};
  const int64_t pick = rng.Uniform(0, 63);
  if (pick < 4) v = edges[pick];
  // w is an int64 that one row in 16 holds beyond 2^53, where doubles
  // skip integers, or at an end of the type. No statement sums it.
  int64_t w = rng.Uniform(0, 1000) - 500;
  const int64_t w_edges[] = {(int64_t{1} << 53) - 1, (int64_t{1} << 53) + 1,
                             std::numeric_limits<int64_t>::min(),
                             std::numeric_limits<int64_t>::max()};
  const int64_t w_pick = rng.Uniform(0, 63);
  if (w_pick < 4) w = w_edges[w_pick];
  // s holds strings whose literals differ only by an escaped quote.
  const char* strings[] = {"a", "a'", "a''", "b"};
  return {a, b, v, w, std::string(strings[rng.Uniform(0, 3)])};
}

void AppendFuzzRows(Table* t, int64_t start_row, int64_t rows) {
  for (int64_t i = start_row; i < start_row + rows; ++i) {
    t->AppendRow(FuzzRow(i));
  }
}

/// The `n`-th value g of column v among the first fuzz rows such that
/// g + 1e-4 and g - 1e-4 print alike at six significant digits: g >=
/// 10000 leaves one decimal, and g must not end in .25 or .75, where
/// that decimal rounds apart. The row holding g lies between the two.
double FuzzCollisionValue(int n) {
  for (int64_t i = 0;; ++i) {
    const double v = std::get<double>(FuzzRow(i)[2]);
    if (std::isfinite(v) && v >= 10000 && std::fmod(v * 4, 2) != 1 &&
        n-- == 0) {
      return v;
    }
  }
}

TablePtr MakeFuzzBatch(int64_t rows, int64_t start_row) {
  TablePtr batch = MakeTable(Schema({{"a", TypeId::kInt32},
                                     {"b", TypeId::kInt32},
                                     {"v", TypeId::kDouble},
                                     {"w", TypeId::kInt64},
                                     {"s", TypeId::kString}}));
  AppendFuzzRows(batch.get(), start_row, rows);
  return batch;
}

/// One statement of the fuzz workload. When it is `SELECT * FROM fuzz
/// WHERE <where>`, `where` holds the predicate (for the TLP check); when
/// that predicate is an IN list, `in_as_or` spells it as ORed equalities.
struct FuzzQuery {
  std::string sql;
  std::string where;
  std::string in_as_or;
};

/// A v literal: a stored value, or an edge of the value order that SQL
/// can spell (zeros of both signs, a bound above every finite v).
std::string FuzzDoubleLiteral(Rng* rng) {
  char buf[48];
  switch (rng->Uniform(0, 4)) {
    case 0: return "0.0";
    case 1: return "-0.0";
    case 2: return "1e300";
    default: {
      const double v = std::get<double>(FuzzRow(rng->Uniform(0, 4095))[2]);
      std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.5);
      return buf;
    }
  }
}

/// Predicates whose literals collide across types or spellings: an int
/// and a double of one value, the two zeros, a string and the same string
/// with an escaped quote, and int64 bounds beyond 2^53 spelled as integers
/// and as doubles.
constexpr const char* kCollidingPredicates[] = {
    "a = 1",
    "a = 1.0",
    "a >= 30",
    "a >= 30.0",
    "v = 0.0",
    "v = -0.0",
    "v <= -0.0",
    "s = 'a'",
    "s = 'a'''",
    "s < 'a'''",
    "s >= 'a'",
    "w >= 9007199254740993",
    "w >= 9007199254740992.0",
    "w = 9007199254740991",
    "w < -9007199254740993",
    "w <= 9223372036854775807",
};

/// Random SQL over fuzz(a, b, v, w, s) with small constant domains, so
/// the workload repeats spellings (exact), refines them (subsumption),
/// slides ranges (stitch) and re-aggregates across appends (delta /
/// agg-merge). Some range bounds sit 1e-4 either side of a stored value
/// (the two bounds differ only past six significant digits). One case
/// swaps the aggregate aliases of another, so `sv` and `n` each name two
/// different columns across statements. NOT over a comparison and IN
/// over `a`, `v` and `s` meet the edge values in v, w and s; so do the
/// colliding predicates. No ORDER BY: rows compare as multisets.
FuzzQuery RandomFuzzQuery(Rng* rng) {
  char buf[160];
  FuzzQuery q;
  switch (rng->Uniform(0, 10)) {
    case 0: {
      int lo = static_cast<int>(rng->Uniform(0, 4)) * 10;
      std::snprintf(buf, sizeof(buf), "a >= %d AND a < %d", lo, lo + 20);
      q.where = buf;
      break;
    }
    case 1: {
      int cut = static_cast<int>(rng->Uniform(1, 4)) * 100;
      std::snprintf(buf, sizeof(buf),
                    "SELECT a, SUM(v) AS sv, COUNT(v) AS n FROM fuzz"
                    " WHERE b < %d GROUP BY a",
                    cut);
      q.sql = buf;
      break;
    }
    case 2: {
      int cut = static_cast<int>(rng->Uniform(1, 4)) * 100;
      std::snprintf(buf, sizeof(buf),
                    "SELECT a, SUM(v) AS n, COUNT(v) AS sv FROM fuzz"
                    " WHERE b < %d GROUP BY a",
                    cut);
      q.sql = buf;
      break;
    }
    case 3: {
      int lo = static_cast<int>(rng->Uniform(0, 2)) * 15;
      std::snprintf(buf, sizeof(buf),
                    "SELECT b, MIN(v) AS lo, MAX(v) AS hi FROM fuzz"
                    " WHERE a >= %d GROUP BY b",
                    lo);
      q.sql = buf;
      break;
    }
    case 4: {
      const double g = FuzzCollisionValue(static_cast<int>(rng->Uniform(0, 1)));
      const double bound = rng->Uniform(0, 1) == 0 ? g - 1e-4 : g + 1e-4;
      std::snprintf(buf, sizeof(buf), "v >= %.4f", bound);
      q.where = buf;
      break;
    }
    case 5: {
      int t = static_cast<int>(rng->Uniform(0, 5));
      std::snprintf(buf, sizeof(buf), "v >= %d000.0", 2 + t * 2);
      q.where = buf;
      break;
    }
    case 6: {
      const char* ops[] = {"<", "<=", ">", ">=", "=", "<>"};
      q.where = std::string("NOT (v ") + ops[rng->Uniform(0, 5)] + " " +
                FuzzDoubleLiteral(rng) + ")";
      break;
    }
    case 7: {
      std::snprintf(buf, sizeof(buf), "NOT (a < %d)",
                    static_cast<int>(rng->Uniform(0, 6)) * 10);
      q.where = buf;
      break;
    }
    case 8: {
      q.where = kCollidingPredicates[rng->Uniform(
          0, std::size(kCollidingPredicates) - 1)];
      break;
    }
    case 9: {
      q.sql = rng->Uniform(0, 1) == 0
                  ? "SELECT a, MIN(w) AS lo, MAX(w) AS hi, COUNT(w) AS n"
                    " FROM fuzz WHERE a < 20 GROUP BY a"
                  : "SELECT s, MAX(w) AS hi, COUNT(v) AS n FROM fuzz"
                    " GROUP BY s";
      break;
    }
    default: {
      // IN over an int column takes int and non-integral double values.
      const int over = static_cast<int>(rng->Uniform(0, 2));
      std::string c1, c2;
      if (over == 0) {
        c1 = FuzzDoubleLiteral(rng);
        c2 = FuzzDoubleLiteral(rng);
      } else if (over == 1) {
        c1 = std::to_string(rng->Uniform(0, 60));
        c2 = std::to_string(rng->Uniform(0, 60));
        if (rng->Uniform(0, 1) == 0) c2 += ".5";
      } else {
        c1 = "'a'";
        c2 = rng->Uniform(0, 1) == 0 ? "'a'''" : "'b'";
      }
      const std::string x = over == 0 ? "v" : over == 1 ? "a" : "s";
      q.where = x + " IN (" + c1 + ", " + c2 + ")";
      q.in_as_or = x + " = " + c1 + " OR " + x + " = " + c2;
      break;
    }
  }
  if (!q.where.empty()) q.sql = "SELECT * FROM fuzz WHERE " + q.where;
  return q;
}

/// Bit-exact row multiset: doubles at %.17g (round-trip precision), so a
/// ULP of divergence between the arms fails the comparison.
std::multiset<std::string> BitRowMultiset(const Table& t) {
  std::multiset<std::string> rows;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    std::string key;
    for (int c = 0; c < t.num_columns(); ++c) {
      const Datum& d = t.Get(r, c);
      if (d.index() == 4) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", std::get<double>(d));
        key += buf;
      } else {
        key += DatumToString(d);
      }
      key += "|";
    }
    rows.insert(std::move(key));
  }
  return rows;
}

class SqlFuzzTest : public ::testing::TestWithParam<int> {};

TEST(SqlFuzzConstants, CollisionBoundsPrintAlikeButKeyApart) {
  for (int n = 0; n < 2; ++n) {
    const double g = FuzzCollisionValue(n);
    const Datum below(g - 1e-4), above(g + 1e-4);
    EXPECT_EQ(DatumToString(below), DatumToString(above)) << g;
    EXPECT_NE(DatumToKeyString(below), DatumToKeyString(above)) << g;
  }
}

TEST_P(SqlFuzzTest, DifferentialAgainstBypassRawAndReplay) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  constexpr int64_t kInitialRows = 4096;
  constexpr int kQueries = 60;

  DatabaseOptions options;
  options.recycler.mode = RecyclerMode::kSpeculation;
  options.recycler.cache_bytes = -1;
  options.recycler.capture_plan_explain = true;
  auto db = Database::OpenOrDie(options);
  ASSERT_TRUE(db->CreateTable("fuzz", MakeFuzzBatch(kInitialRows, 0)).ok());
  // The raw arm: the plan as written, over full scans, no recycler.
  DatabaseOptions raw_options;
  raw_options.canonicalize_plans = false;
  raw_options.recycler.enable_zone_map_pruning = false;
  auto raw_db = Database::OpenOrDie(raw_options);
  ASSERT_TRUE(
      raw_db->CreateTable("fuzz", MakeFuzzBatch(kInitialRows, 0)).ok());

  trace::TraceHeader header;
  header.seed = seed;
  header.workload = "sql_fuzz";
  header.mode = RecyclerModeName(RecyclerMode::kSpeculation);
  trace::TraceRecorder recorder(header);
  auto recycled = db->Connect();
  recycled->set_recorder(&recorder);
  SessionOptions bypass_opts;
  bypass_opts.bypass_recycler = true;
  auto bypass = db->Connect(bypass_opts);
  auto raw = raw_db->Connect(bypass_opts);

  // Runs `sql` on all three arms, which must agree bit for bit, checks
  // the recycler's consistency, and returns the recycled arm's rows.
  int hits = 0;
  int index_served = 0;
  auto run = [&](const std::string& sql) {
    SCOPED_TRACE(sql);
    Result on = recycled->Sql(sql);
    Result off = bypass->Sql(sql);
    Result plain = raw->Sql(sql);
    const Status consistent = db->recycler().CheckConsistency();
    EXPECT_TRUE(consistent.ok()) << consistent.ToString();
    EXPECT_TRUE(on.ok() && off.ok() && plain.ok())
        << on.status().ToString() << off.status().ToString()
        << plain.status().ToString();
    if (!on.ok() || !off.ok() || !plain.ok()) {
      return std::multiset<std::string>();
    }
    std::multiset<std::string> rows = BitRowMultiset(*on.table());
    EXPECT_EQ(rows, BitRowMultiset(*off.table()))
        << "P6: recycled arm diverged from the bypass baseline";
    EXPECT_EQ(rows, BitRowMultiset(*plain.table()))
        << "P6: canonical, pruned arms diverged from the raw arm";
    if (on.recycled()) ++hits;
    index_served += static_cast<int>(on.trace().num_index_served);
    return rows;
  };

  // Random schedule: mostly queries, occasionally an append. Every arm
  // runs against the same table state at every step. After an append
  // every statement since the previous one runs again, so the index
  // serves repeated texts by delta.
  Rng rng(seed);
  int64_t next_row = kInitialRows;
  std::multiset<std::string> table_rows;  // fuzz's rows at `table_size`
  int64_t table_size = 0;
  std::vector<std::string> since_append;
  for (int q = 0; q < kQueries; ++q) {
    if (rng.Uniform(0, 7) == 0) {
      const int64_t batch = 128 + 64 * static_cast<int64_t>(rng.Uniform(0, 3));
      ASSERT_TRUE(
          db->AppendTable("fuzz", *MakeFuzzBatch(batch, next_row)).ok());
      ASSERT_TRUE(
          raw_db->AppendTable("fuzz", *MakeFuzzBatch(batch, next_row)).ok());
      recorder.RecordAppend("fuzz", batch, next_row);
      next_row += batch;
      for (const std::string& sql : since_append) run(sql);
      since_append.clear();
    }
    const FuzzQuery fq = RandomFuzzQuery(&rng);
    since_append.push_back(fq.sql);
    SCOPED_TRACE("seed " + std::to_string(seed) + " query " +
                 std::to_string(q) + ": " + fq.sql);
    const std::multiset<std::string> rows = run(fq.sql);
    if (fq.where.empty()) continue;
    // TLP: the rows where p holds and those where NOT p holds partition
    // the table.
    std::multiset<std::string> parts = rows;
    for (const std::string& r :
         run("SELECT * FROM fuzz WHERE NOT (" + fq.where + ")")) {
      parts.insert(r);
    }
    if (table_size != next_row) {
      Result all = bypass->Sql("SELECT * FROM fuzz");
      ASSERT_TRUE(all.ok()) << all.status().ToString();
      table_rows = BitRowMultiset(*all.table());
      table_size = next_row;
    }
    EXPECT_EQ(parts, table_rows)
        << "TLP: p and NOT p do not partition the table";
    if (!fq.in_as_or.empty()) {
      EXPECT_EQ(rows, run("SELECT * FROM fuzz WHERE " + fq.in_as_or))
          << "IN differs from its ORed equalities";
    }
  }
  EXPECT_GT(hits, 0) << "fuzz workload never hit the cache; the "
                        "differential property was vacuous";
  EXPECT_GT(index_served, 0) << "no statement was served from the index";

  // Replay the recorded trace on a fresh engine: identical history must
  // reproduce identical reuse decisions and digests.
  trace::Trace recorded = recorder.Snapshot();
  auto fresh = Database::OpenOrDie(options);
  ASSERT_TRUE(
      fresh->CreateTable("fuzz", MakeFuzzBatch(kInitialRows, 0)).ok());
  trace::ReplayOptions ropts;
  ropts.append_provider = [](const trace::AppendEvent& a) {
    return MakeFuzzBatch(a.rows, a.start_row);
  };
  trace::TraceReplayer replayer(fresh.get(), ropts);
  trace::ReplayReport report;
  Status st = replayer.Replay(recorded, &report);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.mode_mismatches, 0) << report.ToString();
  EXPECT_EQ(report.digest_mismatches, 0) << report.ToString();
}

/// Four seeds; RECYCLEDB_FUZZ_ITERS (the sanitizer jobs' longer sweep)
/// adds one seed per 500 iterations beyond the first 1,000.
std::vector<int> FuzzSeeds() {
  std::vector<int> seeds = {3, 17, 59, 101};
  const char* env = std::getenv("RECYCLEDB_FUZZ_ITERS");
  const int iters = env != nullptr ? std::atoi(env) : 0;
  for (int i = 1000; i < iters; i += 500) seeds.push_back(1000 + i / 500);
  return seeds;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlFuzzTest, ::testing::ValuesIn(FuzzSeeds()));

// ---------------------------------------------------------------------------
// P7. Keys
// ---------------------------------------------------------------------------

/// Identifiers made of the characters the old text keys used as
/// separators, a column named like an ordinal, names spelling a column
/// list or a list of introduced names, and names holding a NUL (the
/// column-ref kind byte), so that an unprefixed name would run into its
/// sibling's key.
const std::vector<std::string> kKeyNames = {
    "#", "@", ":", "{", "}", "(", ")", ",", ";", "|", "'", "\"",
    "#0", "a,b", "a|b", "b|a", "a", "b",
    std::string("a\0b", 3), std::string("b\0a", 3)};

/// Literals whose text forms collide or nearly do: 1 as int32, int64 and
/// double; -0.0 and 0.0; the strings a and a' (SQL 'a' and 'a'''); and
/// strings spelling other literals.
const std::vector<Datum> kKeyLiterals = {
    Datum(int32_t{1}), Datum(int64_t{1}), Datum(1.0), Datum(-0.0),
    Datum(0.0), Datum(std::string("a")), Datum(std::string("a'")),
    Datum(std::string("1")), Datum(std::string("'a'")),
    Datum(std::string("0x1p+0")), Datum(true), Datum()};

/// Draws small expressions and plans from the pools above, so equal
/// trees recur often enough for both directions of injectivity to be
/// exercised.
class RandomKeyTrees {
 public:
  explicit RandomKeyTrees(uint64_t seed) : rng_(seed) {}

  ExprPtr NextExpr(int depth) {
    switch (rng_.Uniform(0, depth > 0 ? 9 : 2)) {
      case 0: return Expr::Column(Name());
      case 1: return Expr::Literal(Literal());
      case 2: return Expr::Param(Name());
      case 3:
        return Expr::Compare(static_cast<CompareOp>(rng_.Uniform(0, 5)),
                             NextExpr(depth - 1), NextExpr(depth - 1));
      case 4:
        if (rng_.Uniform(0, 2) == 0) return Expr::Not(NextExpr(depth - 1));
        return rng_.Uniform(0, 1) == 0
                   ? Expr::And(NextExpr(depth - 1), NextExpr(depth - 1))
                   : Expr::Or(NextExpr(depth - 1), NextExpr(depth - 1));
      case 5:
        return Expr::Arith(static_cast<ArithOp>(rng_.Uniform(0, 3)),
                           NextExpr(depth - 1), NextExpr(depth - 1));
      case 6: {
        std::vector<ExprPtr> args(rng_.Uniform(0, 2));
        for (ExprPtr& a : args) a = NextExpr(depth - 1);
        return Expr::Func(Name(), std::move(args));
      }
      case 7:
        return Expr::Case(NextExpr(depth - 1), NextExpr(depth - 1),
                          NextExpr(depth - 1));
      case 8: {
        std::vector<Datum> values(rng_.Uniform(0, 2));
        for (Datum& v : values) v = Literal();
        return Expr::In(NextExpr(depth - 1), std::move(values));
      }
      default:
        return Expr::Like(static_cast<LikeKind>(rng_.Uniform(0, 3)),
                          NextExpr(depth - 1), Name());
    }
  }

  /// Scan -> optional Select -> optional Project or Aggregate -> optional
  /// TopN, unbound: the shapes whose named keys the exact-hit index and
  /// the template fingerprint read.
  PlanPtr NextPlan() {
    std::vector<std::string> columns(rng_.Uniform(1, 2));
    for (std::string& c : columns) c = Name();
    PlanPtr plan = PlanNode::Scan(Name(), std::move(columns));
    if (rng_.Uniform(0, 1) == 0) plan = PlanNode::Select(plan, NextExpr(1));
    switch (rng_.Uniform(0, 2)) {
      case 0: {
        std::vector<ProjItem> items(rng_.Uniform(1, 2));
        for (ProjItem& item : items) item = {NextExpr(0), Name()};
        plan = PlanNode::Project(plan, std::move(items));
        break;
      }
      case 1: {
        std::vector<std::string> groups(rng_.Uniform(0, 1));
        for (std::string& g : groups) g = Name();
        plan = PlanNode::Aggregate(
            plan, std::move(groups),
            {{static_cast<AggFunc>(rng_.Uniform(0, 4)), NextExpr(0), Name()}});
        break;
      }
      default:
        break;
    }
    if (rng_.Uniform(0, 2) == 0) {
      plan = PlanNode::TopN(plan, {{Name(), rng_.Uniform(0, 1) == 0}},
                            rng_.Uniform(1, 2));
    }
    return plan;
  }

 private:
  const std::string& Name() {
    return kKeyNames[rng_.Uniform(0, kKeyNames.size() - 1)];
  }
  const Datum& Literal() {
    return kKeyLiterals[rng_.Uniform(0, kKeyLiterals.size() - 1)];
  }

  Rng rng_;
};

/// Datums equal in type and bits (-0.0 differs from 0.0).
bool SameDatum(const Datum& a, const Datum& b) {
  if (a.index() != b.index()) return false;
  if (const double* x = std::get_if<double>(&a)) {
    return std::memcmp(x, &std::get<double>(b), sizeof(double)) == 0;
  }
  return a == b;
}

/// Structural equality of two expressions, comparing for each kind only
/// the fields it carries.
bool SameTree(const Expr& a, const Expr& b) {
  if (a.kind() != b.kind() || a.children().size() != b.children().size()) {
    return false;
  }
  for (size_t i = 0; i < a.children().size(); ++i) {
    if (!SameTree(*a.children()[i], *b.children()[i])) return false;
  }
  switch (a.kind()) {
    case ExprKind::kColumnRef: return a.column_name() == b.column_name();
    case ExprKind::kLiteral: return SameDatum(a.literal(), b.literal());
    case ExprKind::kParam: return a.param_name() == b.param_name();
    case ExprKind::kCompare: return a.compare_op() == b.compare_op();
    case ExprKind::kLogical: return a.logical_op() == b.logical_op();
    case ExprKind::kArith: return a.arith_op() == b.arith_op();
    case ExprKind::kFunc: return a.func_name() == b.func_name();
    case ExprKind::kCase: return true;
    case ExprKind::kInList: {
      if (a.in_values().size() != b.in_values().size()) return false;
      for (size_t i = 0; i < a.in_values().size(); ++i) {
        if (!SameDatum(a.in_values()[i], b.in_values()[i])) return false;
      }
      return true;
    }
    case ExprKind::kLike:
      return a.like_kind() == b.like_kind() &&
             a.like_pattern() == b.like_pattern();
  }
  return false;
}

/// Structural equality of two plans of the shapes RandomKeyTrees draws;
/// the names a Project or Aggregate introduces count only `with_names`.
bool SamePlan(const PlanNode& a, const PlanNode& b, bool with_names) {
  if (a.type() != b.type() || a.num_children() != b.num_children()) {
    return false;
  }
  for (int i = 0; i < a.num_children(); ++i) {
    if (!SamePlan(*a.child(i), *b.child(i), with_names)) return false;
  }
  switch (a.type()) {
    case OpType::kScan:
      return a.table_name() == b.table_name() &&
             a.scan_columns() == b.scan_columns();
    case OpType::kSelect:
      return SameTree(*a.predicate(), *b.predicate());
    case OpType::kProject: {
      if (a.projections().size() != b.projections().size()) return false;
      for (size_t i = 0; i < a.projections().size(); ++i) {
        const ProjItem& x = a.projections()[i];
        const ProjItem& y = b.projections()[i];
        if (!SameTree(*x.expr, *y.expr) ||
            (with_names && x.out_name != y.out_name)) {
          return false;
        }
      }
      return true;
    }
    case OpType::kAggregate: {
      if (a.group_by() != b.group_by() ||
          a.aggregates().size() != b.aggregates().size()) {
        return false;
      }
      for (size_t i = 0; i < a.aggregates().size(); ++i) {
        const AggItem& x = a.aggregates()[i];
        const AggItem& y = b.aggregates()[i];
        if (x.fn != y.fn || !SameTree(*x.arg, *y.arg) ||
            (with_names && x.out_name != y.out_name)) {
          return false;
        }
      }
      return true;
    }
    case OpType::kTopN: {
      if (a.limit() != b.limit() ||
          a.sort_keys().size() != b.sort_keys().size()) {
        return false;
      }
      for (size_t i = 0; i < a.sort_keys().size(); ++i) {
        if (a.sort_keys()[i].column != b.sort_keys()[i].column ||
            a.sort_keys()[i].ascending != b.sort_keys()[i].ascending) {
          return false;
        }
      }
      return true;
    }
    default:
      ADD_FAILURE() << "unexpected operator " << OpTypeName(a.type());
      return false;
  }
}

TEST(KeyProperty, KeysAreInjectiveDecodeAndMatchPositionalCopies) {
  // The input every column of the drawn expressions reads, and its
  // ordinal-named twin (PositionalInput's form). "#0" is not at ordinal 0.
  std::vector<Field> fields, ordinal_fields;
  for (size_t i = 0; i < kKeyNames.size(); ++i) {
    fields.push_back({kKeyNames[i], TypeId::kInt64});
    ordinal_fields.push_back(
        {OrdinalName(static_cast<int>(i)), TypeId::kInt64});
  }
  const Schema input(std::move(fields));
  const Schema ordinals(std::move(ordinal_fields));
  const std::vector<std::string> names = input.Names();

  int64_t equal_pairs = 0, distinct_pairs = 0;
  for (uint64_t seed : {7, 8, 9, 10}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RandomKeyTrees gen(seed);
    std::vector<ExprPtr> exprs;
    std::vector<std::string> named, ordinal;
    for (int i = 0; i < 500; ++i) {
      const ExprPtr e = gen.NextExpr(i % 3);
      exprs.push_back(e);
      named.push_back(e->Key(nullptr));
      ordinal.push_back(e->Key(&input));
      ExprPtr back = DecodeExprOrdinal(ordinal.back(), names);
      ASSERT_NE(back, nullptr) << e->DisplayString();
      EXPECT_TRUE(SameTree(*back, *e)) << e->DisplayString();
      EXPECT_EQ(back->Key(&input), ordinal.back()) << e->DisplayString();
      EXPECT_EQ(e->Positional(input)->Key(&ordinals), ordinal.back())
          << e->DisplayString();
    }
    for (size_t i = 0; i < exprs.size(); ++i) {
      for (size_t j = i + 1; j < exprs.size(); ++j) {
        const bool same = SameTree(*exprs[i], *exprs[j]);
        (same ? equal_pairs : distinct_pairs) += 1;
        EXPECT_EQ(named[i] == named[j], same)
            << exprs[i]->DisplayString() << " vs "
            << exprs[j]->DisplayString();
        EXPECT_EQ(ordinal[i] == ordinal[j], same)
            << exprs[i]->DisplayString() << " vs "
            << exprs[j]->DisplayString();
      }
    }

    std::vector<PlanPtr> plans;
    std::vector<std::string> tree_keys, hit_keys;
    for (int i = 0; i < 500; ++i) {
      plans.push_back(gen.NextPlan());
      tree_keys.push_back(plans.back()->TreeKey());
      hit_keys.push_back(Recycler::ExactHitKey(*plans.back()).text);
    }
    for (size_t i = 0; i < plans.size(); ++i) {
      for (size_t j = i + 1; j < plans.size(); ++j) {
        const bool same = SamePlan(*plans[i], *plans[j], false);
        const bool same_names = SamePlan(*plans[i], *plans[j], true);
        (same_names ? equal_pairs : distinct_pairs) += 1;
        EXPECT_EQ(tree_keys[i] == tree_keys[j], same)
            << plans[i]->Explain() << " vs\n" << plans[j]->Explain();
        EXPECT_EQ(hit_keys[i] == hit_keys[j], same_names)
            << plans[i]->Explain() << " vs\n" << plans[j]->Explain();
      }
    }
  }
  // Both directions of "equal exactly when" were exercised.
  EXPECT_GT(equal_pairs, 100);
  EXPECT_GT(distinct_pairs, 100);
}

/// Every key in `keys` differs from every other: the trees they key were
/// built pairwise distinct.
void ExpectDistinct(const std::vector<std::string>& keys,
                    const std::string& what) {
  std::set<std::string> seen;
  for (const std::string& k : keys) {
    EXPECT_TRUE(seen.insert(k).second) << what << ": two distinct trees key "
                                       << "alike";
  }
}

TEST(KeyProperty, EveryDistinctSmallTreeKeysApart) {
  // Random draws seldom pair the few trees a delimiter bug confuses (a
  // name running into its sibling's bytes), so every small tree over the
  // pools is enumerated, and all of them must key apart.
  std::vector<Field> fields;
  for (const std::string& n : kKeyNames) fields.push_back({n, TypeId::kInt64});
  const Schema input(std::move(fields));
  std::vector<ExprPtr> leaves;
  for (const std::string& n : kKeyNames) {
    leaves.push_back(Expr::Column(n));
    leaves.push_back(Expr::Param(n));
  }
  for (const Datum& d : kKeyLiterals) leaves.push_back(Expr::Literal(d));
  std::vector<ExprPtr> trees = leaves;
  for (const ExprPtr& a : leaves) {
    for (const ExprPtr& b : leaves) trees.push_back(Expr::Lt(a, b));
    for (const std::string& n : kKeyNames) {
      trees.push_back(Expr::Func(n, {a}));
      trees.push_back(Expr::Like(LikeKind::kPrefix, a, n));
    }
    for (const Datum& d : kKeyLiterals) trees.push_back(Expr::In(a, {d}));
  }
  std::vector<std::string> named, ordinal;
  for (const ExprPtr& e : trees) {
    named.push_back(e->Key(nullptr));
    ordinal.push_back(e->Key(&input));
  }
  ExpectDistinct(named, "named expression keys");
  ExpectDistinct(ordinal, "ordinal expression keys");

  // Plans: every scan column list of one or two names, and every pair of
  // names a Project introduces (its tree key is the same for all of them;
  // the exact-hit key must not be).
  std::vector<std::string> scans, projects;
  for (const std::string& table : {std::string("g"), std::string("a,b")}) {
    for (const std::string& a : kKeyNames) {
      scans.push_back(PlanNode::Scan(table, {a})->TreeKey());
      for (const std::string& b : kKeyNames) {
        scans.push_back(PlanNode::Scan(table, {a, b})->TreeKey());
      }
    }
  }
  for (const std::string& x : kKeyNames) {
    for (const std::string& y : kKeyNames) {
      PlanPtr p = PlanNode::Project(PlanNode::Scan("g", {"a"}),
                                    {{Expr::Column("a"), x},
                                     {Expr::Column("a"), y}});
      projects.push_back(Recycler::ExactHitKey(*p).text);
    }
  }
  ExpectDistinct(scans, "scan tree keys");
  ExpectDistinct(projects, "exact-hit keys of projects");
}

}  // namespace
}  // namespace recycledb
