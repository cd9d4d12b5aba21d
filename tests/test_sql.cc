// Tests for the SQL text front-end: parser/lowering round-trips onto the
// builder IR (identical canonical fingerprints), one-call Session::Sql
// execution with bit-identical results, caret-snippet error positions
// (the engine never aborts on bad SQL), prepared SQL statements sharing
// template identity with the builder form, a fixed-seed fuzz smoke, and
// a concurrent multi-session SQL stress for the TSan sweep.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "plan/canonicalize.h"
#include "recycledb/recycledb.h"
#include "sql/lower.h"
#include "test_util.h"

namespace recycledb {
namespace {

using recycledb::testing::RowMultiset;

TablePtr MakeSalesTable(int rows = 20000) {
  Schema schema({{"city", TypeId::kString},
                 {"year", TypeId::kInt32},
                 {"sales", TypeId::kDouble}});
  TablePtr t = MakeTable(schema);
  const char* cities[] = {"Edinburgh", "Amsterdam", "Brisbane"};
  Rng rng(7);
  for (int i = 0; i < rows; ++i) {
    t->AppendRow({std::string(cities[rng.Uniform(0, 2)]),
                  static_cast<int32_t>(rng.Uniform(2005, 2012)),
                  static_cast<double>(rng.Uniform(10, 5000))});
  }
  return t;
}

std::unique_ptr<Database> OpenSalesDb(int rows = 20000) {
  DatabaseOptions options;
  options.recycler.mode = RecyclerMode::kSpeculation;
  std::unique_ptr<Database> db = Database::OpenOrDie(options);
  EXPECT_TRUE(db->CreateTable("sales", MakeSalesTable(rows)).ok());
  return db;
}

/// Canonical template fingerprint of a SQL statement (must parse).
std::string SqlCanonFp(Database& db, const std::string& text) {
  PlanPtr plan;
  Status st = sql::SqlToPlan(text, db.catalog(), &plan);
  EXPECT_TRUE(st.ok()) << st.ToString();
  if (!st.ok()) return "";
  return CanonicalizePlan(plan)->TemplateFingerprint();
}

std::string QueryCanonFp(const Query& q) {
  return CanonicalizePlan(q.plan())->TemplateFingerprint();
}

/// Exact cell-by-cell equality, row order included (bit-identity: no
/// rounding, DatumCompare is exact on every scalar type).
void ExpectTablesBitIdentical(const TablePtr& a, const TablePtr& b) {
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(a->num_rows(), b->num_rows());
  ASSERT_EQ(a->num_columns(), b->num_columns());
  for (int c = 0; c < a->num_columns(); ++c) {
    EXPECT_EQ(a->schema().field(c).name, b->schema().field(c).name);
  }
  for (int64_t r = 0; r < a->num_rows(); ++r) {
    for (int c = 0; c < a->num_columns(); ++c) {
      EXPECT_EQ(DatumCompare(a->Get(r, c), b->Get(r, c)), 0)
          << "row " << r << " col " << c;
    }
  }
}

// ---------------------------------------------------------------------------
// Round-trip: SQL lowers to the same canonical plan as the builder
// ---------------------------------------------------------------------------

TEST(SqlRoundTrip, SelectStarIsThePlainScan) {
  auto db = OpenSalesDb(100);
  Query builder = db->Scan("sales", {"city", "year", "sales"});
  EXPECT_EQ(SqlCanonFp(*db, "SELECT * FROM sales"), QueryCanonFp(builder));
  EXPECT_EQ(SqlCanonFp(*db, "SELECT city, year, sales FROM sales"),
            QueryCanonFp(builder));
}

TEST(SqlRoundTrip, FilterAndProjection) {
  auto db = OpenSalesDb(100);
  Query builder =
      db->Scan("sales", {"city", "year"})
          .Filter(Expr::Ge(Expr::Column("year"), Expr::Literal(int32_t{2010})))
          .Project({{Expr::Column("city"), "city"}});
  EXPECT_EQ(SqlCanonFp(*db, "SELECT city FROM sales WHERE year >= 2010"),
            QueryCanonFp(builder));
}

TEST(SqlRoundTrip, AggregateWithOrderBy) {
  auto db = OpenSalesDb(100);
  Query builder =
      db->Scan("sales", {"city", "year", "sales"})
          .Filter(Expr::Ge(Expr::Column("year"), Expr::Literal(int32_t{2010})))
          .Aggregate({"city"},
                     {{AggFunc::kSum, Expr::Column("sales"), "total"}})
          .OrderBy({{"total", false}});
  EXPECT_EQ(SqlCanonFp(*db,
                       "SELECT city, SUM(sales) AS total FROM sales "
                       "WHERE year >= 2010 GROUP BY city "
                       "ORDER BY total DESC"),
            QueryCanonFp(builder));
}

TEST(SqlRoundTrip, OrderByWithLimitLowersToTopN) {
  auto db = OpenSalesDb(100);
  Query builder =
      db->Scan("sales", {"city", "sales"})
          .Filter(Expr::Gt(Expr::Column("sales"), Expr::Literal(100.0)))
          .TopN({{"sales", false}, {"city", true}}, 7);
  EXPECT_EQ(SqlCanonFp(*db,
                       "SELECT city, sales FROM sales WHERE sales > 100.0 "
                       "ORDER BY sales DESC, city LIMIT 7"),
            QueryCanonFp(builder));
}

TEST(SqlRoundTrip, SyntacticNoiseCanonicalizesAway) {
  // Flipped comparison, BETWEEN, redundant conjunct, NOT, folded
  // arithmetic: all one canonical plan.
  auto db = OpenSalesDb(100);
  const std::string base =
      "SELECT city FROM sales WHERE year >= 2008 AND year <= 2011";
  for (const char* variant : {
           "SELECT city FROM sales WHERE 2008 <= year AND year <= 2011",
           "SELECT city FROM sales WHERE year BETWEEN 2008 AND 2011",
           "SELECT city FROM sales WHERE year <= 2011 AND year >= 2008",
           "SELECT city FROM sales WHERE year BETWEEN 2000+8 AND 2011",
           "SELECT city FROM sales WHERE NOT (year < 2008) AND year <= 2011",
           "SELECT city FROM sales WHERE year >= 2008 AND year <= 2011 "
           "AND year >= 2006",
       }) {
    EXPECT_EQ(SqlCanonFp(*db, variant), SqlCanonFp(*db, base)) << variant;
  }
}

// ---------------------------------------------------------------------------
// Execution through the one-call API
// ---------------------------------------------------------------------------

TEST(SqlExecution, OrderedResultBitIdenticalToBuilder) {
  auto db = OpenSalesDb();
  Query builder =
      db->Scan("sales", {"city", "year", "sales"})
          .Filter(Expr::Ge(Expr::Column("year"), Expr::Literal(int32_t{2009})))
          .Aggregate({"city"},
                     {{AggFunc::kSum, Expr::Column("sales"), "total"}})
          .OrderBy({{"total", false}});
  Result from_builder = db->Execute(builder);
  ASSERT_TRUE(from_builder.ok()) << from_builder.status().ToString();

  Result from_sql = db->Sql(
      "SELECT city, SUM(sales) AS total FROM sales "
      "WHERE year >= 2009 GROUP BY city ORDER BY total DESC");
  ASSERT_TRUE(from_sql.ok()) << from_sql.status().ToString();
  ExpectTablesBitIdentical(from_sql.table(), from_builder.table());
  // Identical canonical plans: the SQL run is answered from the cache
  // entry the builder run materialized.
  EXPECT_TRUE(from_sql.recycled());
}

TEST(SqlExecution, UnorderedSelectMatchesBuilderMultiset) {
  auto db = OpenSalesDb();
  Query builder =
      db->Scan("sales", {"city", "year", "sales"})
          .Filter(Expr::Lt(Expr::Column("sales"), Expr::Literal(800.0)));
  Result from_builder = db->Execute(builder);
  ASSERT_TRUE(from_builder.ok());
  Result from_sql = db->Sql("SELECT * FROM sales WHERE sales < 800.0");
  ASSERT_TRUE(from_sql.ok()) << from_sql.status().ToString();
  EXPECT_EQ(RowMultiset(*from_sql.table()), RowMultiset(*from_builder.table()));
}

TEST(SqlExecution, RepeatedStatementHitsTheCache) {
  auto db = OpenSalesDb();
  const char* q = "SELECT city, COUNT(*) AS n FROM sales GROUP BY city";
  Result first = db->Sql(q);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.recycled());
  Result second = db->Sql(q);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.recycled());
  ExpectTablesBitIdentical(second.table(), first.table());
}

TEST(SqlExecution, SessionStatsCountSqlQueries) {
  auto db = OpenSalesDb(500);
  auto session = db->Connect({});
  ASSERT_TRUE(session->Sql("SELECT city FROM sales LIMIT 3").ok());
  EXPECT_FALSE(session->Sql("SELECT bogus FROM sales").ok());
  SessionStats stats = session->stats();
  EXPECT_EQ(stats.queries, 2);
  EXPECT_EQ(stats.errors, 1);
}

TEST(SqlExecution, NearEqualDoubleConstantsNeverShareACacheEntry) {
  // All four bounds print as 228.241 at six significant digits. Cache
  // keys must tell the constants apart, or the second statement is
  // served the first one's cached rows (69,400 of them).
  TablePtr t = MakeTable(Schema({{"x", TypeId::kDouble}}));
  for (int64_t i = 0; i < 200000; ++i) {
    t->AppendRow({228.24 + static_cast<double>(i) * 1e-8});
  }
  DatabaseOptions options;
  options.recycler.mode = RecyclerMode::kSpeculation;
  auto db = Database::OpenOrDie(options);
  ASSERT_TRUE(db->CreateTable("t", t).ok());
  SessionOptions bypass_opts;
  bypass_opts.bypass_recycler = true;
  auto bypass = db->Connect(bypass_opts);

  const std::string first =
      "SELECT * FROM t WHERE x >= 228.240506 AND x < 228.2412";
  ASSERT_TRUE(db->Sql(first).ok());
  Result repeat = db->Sql(first);
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat.recycled());
  const std::string second =
      "SELECT * FROM t WHERE x >= 228.241040 AND x < 228.24115";
  Result served = db->Sql(second);
  Result expected = bypass->Sql(second);
  ASSERT_TRUE(served.ok());
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(expected.num_rows(), 11000);
  EXPECT_EQ(served.num_rows(), expected.num_rows());
  EXPECT_EQ(trace::ResultDigest(*served.table()),
            trace::ResultDigest(*expected.table()));
}

TEST(SqlExecution, SignedZeroConstantsNeverShareACacheEntry) {
  // -0.0 == +0.0, but v * -0.0 is -0.0 where v * 0.0 is +0.0: the two
  // constants need two cache keys, and the result digest must see the
  // sign.
  TablePtr t = MakeTable(Schema({{"v", TypeId::kDouble}}));
  for (int64_t i = 1; i <= 1000; ++i) t->AppendRow({static_cast<double>(i)});
  DatabaseOptions options;
  options.recycler.mode = RecyclerMode::kSpeculation;
  auto db = Database::OpenOrDie(options);
  ASSERT_TRUE(db->CreateTable("t", t).ok());
  SessionOptions bypass_opts;
  bypass_opts.bypass_recycler = true;
  auto bypass = db->Connect(bypass_opts);

  const std::string positive = "SELECT v * 0.0 AS z FROM t";
  ASSERT_TRUE(db->Sql(positive).ok());
  Result repeat = db->Sql(positive);
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat.recycled());
  const std::string negative = "SELECT v * -0.0 AS z FROM t";
  Result served = db->Sql(negative);
  Result expected = bypass->Sql(negative);
  ASSERT_TRUE(served.ok());
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(served.num_rows(), 1000);
  EXPECT_TRUE(std::signbit(std::get<double>(expected.table()->Get(0, 0))));
  EXPECT_TRUE(std::signbit(std::get<double>(served.table()->Get(0, 0))));
  EXPECT_EQ(trace::ResultDigest(*served.table()),
            trace::ResultDigest(*expected.table()));
  EXPECT_NE(trace::ResultDigest(*served.table()),
            trace::ResultDigest(*repeat.table()));
}

TEST(SqlExecution, QuotesInsideStringConstantsKeepKeysApart) {
  // IN ('a'' ''b') holds the one value a' 'b; IN ('a','b') holds two.
  // Their keys must differ, or one is served the other's rows.
  TablePtr t = MakeTable(Schema({{"s", TypeId::kString}}));
  for (const char* v : {"a", "a", "a", "b", "b", "a' 'b"}) {
    t->AppendRow({std::string(v)});
  }
  DatabaseOptions options;
  options.recycler.mode = RecyclerMode::kSpeculation;
  auto db = Database::OpenOrDie(options);
  ASSERT_TRUE(db->CreateTable("t", t).ok());
  SessionOptions bypass_opts;
  bypass_opts.bypass_recycler = true;
  auto bypass = db->Connect(bypass_opts);

  const std::string one = "SELECT * FROM t WHERE s IN ('a'' ''b')";
  ASSERT_TRUE(db->Sql(one).ok());
  Result repeat = db->Sql(one);
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat.recycled());
  EXPECT_EQ(repeat.num_rows(), 1);
  const std::string two = "SELECT * FROM t WHERE s IN ('a','b')";
  Result served = db->Sql(two);
  Result expected = bypass->Sql(two);
  ASSERT_TRUE(served.ok());
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(expected.num_rows(), 5);
  EXPECT_EQ(served.num_rows(), expected.num_rows());
  EXPECT_EQ(trace::ResultDigest(*served.table()),
            trace::ResultDigest(*expected.table()));
}

// ---------------------------------------------------------------------------
// Recoverable errors with line/column caret snippets
// ---------------------------------------------------------------------------

TEST(SqlExecution, ReplaceTableThenSameTextReturnsTheValidationError) {
  auto db = OpenSalesDb(2000);
  auto session = db->Connect({});
  const std::string text =
      "SELECT city, SUM(sales) AS total FROM sales WHERE year >= 2008 "
      "GROUP BY city";
  ASSERT_TRUE(session->Sql(text).ok());
  Result cached = session->Sql(text);
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  ASSERT_EQ(cached.trace().reuse_mode, ReuseMode::kExact);

  // The statement still lowers, but `sales` is now a string column.
  TablePtr replaced = MakeTable(Schema({{"city", TypeId::kString},
                                        {"year", TypeId::kInt32},
                                        {"sales", TypeId::kString}}));
  replaced->AppendRow({std::string("Edinburgh"), int32_t{2010},
                       std::string("many")});
  ASSERT_TRUE(db->ReplaceTable("sales", replaced).ok());
  Result after = session->Sql(text);
  ASSERT_FALSE(after.ok());
  EXPECT_NE(after.status().message().find("sum over non-numeric argument"),
            std::string::npos)
      << after.status().ToString();
  EXPECT_EQ(db->recycler().exact_hit_entries(), 0);
}

TEST(SqlErrors, SyntaxErrorCarriesPositionAndCaret) {
  auto db = OpenSalesDb(100);
  Result r = db->Sql("SELECT FROM sales");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("line 1, column 8"), std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("expected expression"),
            std::string::npos);
  EXPECT_NE(r.status().message().find('^'), std::string::npos);
}

TEST(SqlErrors, UnknownColumnNamesTheColumn) {
  auto db = OpenSalesDb(100);
  Result r = db->Sql("SELECT bogus FROM sales");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("unknown column 'bogus'"),
            std::string::npos);
  EXPECT_NE(r.status().message().find("line 1, column 8"), std::string::npos);
}

TEST(SqlErrors, UnknownTableNamesTheTable) {
  auto db = OpenSalesDb(100);
  Result r = db->Sql("SELECT city FROM shops");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("unknown table 'shops'"),
            std::string::npos);
}

TEST(SqlErrors, MultiLineStatementReportsTheRightLine) {
  auto db = OpenSalesDb(100);
  Result r = db->Sql("SELECT city\nFROM sales\nWHERE yearz > 3");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 3, column 7"), std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("unknown column 'yearz'"),
            std::string::npos);
}

TEST(SqlErrors, NullLiteralsAreRejectedNotAborted) {
  auto db = OpenSalesDb(100);
  Result r = db->Sql("SELECT city FROM sales WHERE city = NULL");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("NULL literals are not supported"),
            std::string::npos);
}

TEST(SqlErrors, ParameterPlaceholdersMustGoThroughPrepare) {
  auto db = OpenSalesDb(100);
  Result r = db->Sql("SELECT city FROM sales WHERE year >= :y");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("Prepare"), std::string::npos)
      << r.status().ToString();
}

TEST(SqlErrors, UnterminatedStringIsALexError) {
  auto db = OpenSalesDb(100);
  Result r = db->Sql("SELECT city FROM sales WHERE city = 'Edinb");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 1"), std::string::npos);
}

TEST(SqlErrors, TrailingGarbageAfterStatement) {
  auto db = OpenSalesDb(100);
  Result r = db->Sql("SELECT city FROM sales; SELECT 1");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("end of statement"), std::string::npos);
}

TEST(SqlErrors, RangeLiteralsOfMixedKindsAreRejectedNotAborted) {
  std::unique_ptr<Database> db = Database::OpenOrDie();
  TablePtr t = MakeTable(
      Schema({{"k", TypeId::kInt64}, {"name", TypeId::kString}}));
  for (int i = 0; i < 10; ++i) {
    t->AppendRow({static_cast<int64_t>(i), "n" + std::to_string(i)});
  }
  ASSERT_TRUE(db->CreateTable("t", t).ok());
  auto session = db->Connect();
  // A number then a string on a BIGINT column, and a string then a
  // number on a string column: rendering the failing node must not fold
  // the two literals into one interval.
  for (const char* text : {"SELECT k FROM t WHERE k > 5 AND k < 'n5'",
                           "SELECT k FROM t WHERE name > 'a' AND name > 5"}) {
    SCOPED_TRACE(text);
    Result r = session->Sql(text);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("in plan:"), std::string::npos)
        << r.status().ToString();
    PlanPtr plan;
    ASSERT_TRUE(sql::SqlToPlan(text, db->catalog(), &plan).ok());
    const std::string explain = session->Explain(Query::FromPlan(plan));
    EXPECT_NE(explain.find("Filter (("), std::string::npos) << explain;
  }
}

// ---------------------------------------------------------------------------
// Prepared SQL statements
// ---------------------------------------------------------------------------

TEST(SqlPrepared, BindAndExecute) {
  auto db = OpenSalesDb();
  Status st;
  auto stmt = db->Prepare(
      "SELECT city, SUM(sales) AS total FROM sales "
      "WHERE year >= :y GROUP BY city ORDER BY total DESC",
      &st);
  ASSERT_NE(stmt, nullptr) << st.ToString();
  EXPECT_EQ(stmt->parameters(), std::set<std::string>{"y"});

  Result r = stmt->Bind("y", int32_t{2010}).Execute();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.schema().Names(), (std::vector<std::string>{"city", "total"}));

  // Rebinding the same constant is answered from the cache.
  Result again = stmt->Execute({{"y", int32_t{2010}}});
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.recycled());
  ExpectTablesBitIdentical(again.table(), r.table());
}

TEST(SqlPrepared, SharesTemplateIdentityWithBuilderForm) {
  auto db = OpenSalesDb();
  Status st;
  auto from_sql = db->Prepare(
      "SELECT city, SUM(sales) AS total FROM sales "
      "WHERE year >= :y GROUP BY city ORDER BY total DESC",
      &st);
  ASSERT_NE(from_sql, nullptr) << st.ToString();

  Query builder =
      db->Scan("sales", {"city", "year", "sales"})
          .Filter(Expr::Ge(Expr::Column("year"), Expr::Param("y")))
          .Aggregate({"city"},
                     {{AggFunc::kSum, Expr::Column("sales"), "total"}})
          .OrderBy({{"total", false}});
  auto from_builder = db->Prepare(builder, &st);
  ASSERT_NE(from_builder, nullptr) << st.ToString();

  // One template: same fingerprint, same hash, one TemplateStats entry.
  EXPECT_EQ(from_sql->template_fingerprint(),
            from_builder->template_fingerprint());
  EXPECT_EQ(from_sql->template_hash(), from_builder->template_hash());

  Result a = from_sql->Execute({{"y", int32_t{2009}}});
  ASSERT_TRUE(a.ok());
  Result b = from_builder->Execute({{"y", int32_t{2009}}});
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b.recycled());  // the SQL execution warmed the shared entry
  ExpectTablesBitIdentical(b.table(), a.table());
  EXPECT_EQ(from_builder->stats().executions, 2);
}

TEST(SqlPrepared, BadSqlReturnsNullWithReason) {
  auto db = OpenSalesDb(100);
  Status st;
  auto stmt = db->Prepare("SELECT FROM sales", &st);
  EXPECT_EQ(stmt, nullptr);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("line 1, column 8"), std::string::npos);
}

TEST(SqlPrepared, ExplainShowsPreCanonicalizationView) {
  auto db = OpenSalesDb(100);
  Status st;
  // `2005 < year` plus a foldable constant: the canonicalizer rewrites
  // the template, so Explain shows both forms with their fingerprints.
  auto stmt = db->Prepare(
      "SELECT city FROM sales WHERE 2005 < year AND year >= 2000+5", &st);
  ASSERT_NE(stmt, nullptr) << st.ToString();
  std::string explain = stmt->Explain();
  EXPECT_NE(explain.find("pre-canonicalization"), std::string::npos) << explain;

  // An already-canonical template has no second view.
  auto plain = db->Prepare("SELECT city FROM sales WHERE year > 2005", &st);
  ASSERT_NE(plain, nullptr) << st.ToString();
  EXPECT_EQ(plain->Explain().find("pre-canonicalization"), std::string::npos);
  // Both statements describe the same canonical template.
  EXPECT_EQ(stmt->template_hash(), plain->template_hash());
}

// ---------------------------------------------------------------------------
// Fuzz smoke: mutated statements must never crash the front-end
// ---------------------------------------------------------------------------

TEST(SqlFuzz, MutatedStatementsNeverAbort) {
  auto db = OpenSalesDb(200);
  const char* bases[] = {
      "SELECT city, SUM(sales) AS total FROM sales WHERE year >= 2010 "
      "GROUP BY city ORDER BY total DESC LIMIT 5",
      "SELECT * FROM sales WHERE sales BETWEEN 10.0 AND 99.5 AND "
      "city IN ('Edinburgh', 'Brisbane')",
      "SELECT city FROM sales WHERE NOT (year < 2008) AND city LIKE '%bur%'",
      "SELECT year, sales FROM sales WHERE sales / 2.0 > 100 OR year = 2005",
      "SELECT city c FROM sales WHERE city = 'Amsterdam' ORDER BY c",
  };
  const char kBytes[] = "()*,<>=!:;'\"%+-/ .xq1\n";
  const char* env = std::getenv("RECYCLEDB_FUZZ_ITERS");
  const int iters = env != nullptr && std::atoi(env) > 0 ? std::atoi(env) : 400;
  Rng rng(42);
  int parsed_ok = 0;
  for (int i = 0; i < iters; ++i) {
    std::string s = bases[rng.Uniform(0, 4)];
    switch (rng.Uniform(0, 2)) {
      case 0:  // truncate
        s = s.substr(0, rng.Uniform(0, static_cast<int>(s.size())));
        break;
      case 1:  // replace a byte
        s[rng.Uniform(0, static_cast<int>(s.size()) - 1)] =
            kBytes[rng.Uniform(0, static_cast<int>(sizeof(kBytes)) - 2)];
        break;
      default:  // insert a byte
        s.insert(s.begin() + rng.Uniform(0, static_cast<int>(s.size())),
                 kBytes[rng.Uniform(0, static_cast<int>(sizeof(kBytes)) - 2)]);
        break;
    }
    Result r = db->Sql(s);  // must return, never abort
    if (r.ok()) ++parsed_ok;
  }
  // Single-byte edits leave most statements valid often enough that a
  // zero count would mean the harness stopped exercising execution.
  EXPECT_GT(parsed_ok, 0);
}

// ---------------------------------------------------------------------------
// Concurrency: many sessions streaming SQL text (TSan-labeled suite)
// ---------------------------------------------------------------------------

TEST(SqlConcurrency, ConcurrentSessionsShareCanonicalCacheEntries) {
  auto db = OpenSalesDb(5000);
  // Three syntactic variants of one canonical query plus two distinct
  // queries: threads race parse -> canonicalize -> recycler.
  const std::vector<std::string> statements = {
      "SELECT city, SUM(sales) AS total FROM sales WHERE year >= 2009 "
      "GROUP BY city ORDER BY total DESC",
      "SELECT city, SUM(sales) AS total FROM sales WHERE 2009 <= year "
      "GROUP BY city ORDER BY total DESC",
      "SELECT city, SUM(sales) AS total FROM sales WHERE NOT (year < 2009) "
      "GROUP BY city ORDER BY total DESC",
      "SELECT * FROM sales WHERE sales < 300.0",
      "SELECT city, COUNT(*) AS n FROM sales GROUP BY city",
  };
  // Reference results from a recycler-bypassing session.
  std::vector<std::multiset<std::string>> expected;
  {
    SessionOptions bypass;
    bypass.bypass_recycler = true;
    auto ref = db->Connect(bypass);
    for (const auto& s : statements) {
      Result r = ref->Sql(s);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      expected.push_back(RowMultiset(*r.table()));
    }
  }
  constexpr int kThreads = 4;
  constexpr int kIters = 24;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto session = db->Connect({});  // sessions are per-thread
      for (int i = 0; i < kIters; ++i) {
        size_t q = static_cast<size_t>((i + t) % statements.size());
        Result r = session->Sql(statements[q]);
        if (!r.ok() || RowMultiset(*r.table()) != expected[q]) ++failures[t];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0);
  // The three variants share one canonical entry: the graph holds fewer
  // distinct roots than raw statement texts.
  EXPECT_GE(db->counters().reuses.load(), 1);
}

}  // namespace
}  // namespace recycledb
