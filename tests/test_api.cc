// Tests for the public embeddable API: Database/Session facade, fluent
// Query builder, parameterized PreparedStatements (rebinding reuse,
// template stats, session isolation), recoverable validation errors, and
// the statement pipeline (a repeat served from the exact-hit index before
// validation; plans bound before a ReplaceTable checked again).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "plan/canonicalize.h"
#include "plan/table_function.h"
#include "recycledb/recycledb.h"
#include "test_util.h"

namespace recycledb {
namespace {

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

std::unique_ptr<Database> OpenSalesDb(
    RecyclerMode mode = RecyclerMode::kSpeculation) {
  DatabaseOptions options;
  options.recycler.mode = mode;
  std::unique_ptr<Database> db = Database::OpenOrDie(options);
  EXPECT_TRUE(db->CreateTable("sales", MakeSalesTable()).ok());
  return db;
}

Query SalesSince(Database& db, ExprPtr cutoff) {
  return db.Scan("sales", {"city", "year", "sales"})
      .Filter(Expr::Ge(Expr::Column("year"), std::move(cutoff)))
      .Aggregate({"city"}, {{AggFunc::kSum, Expr::Column("sales"), "total"}})
      .OrderBy({{"total", false}});
}

// ---------------------------------------------------------------------------
// Configuration validation (Database::Open)
// ---------------------------------------------------------------------------

TEST(ConfigValidation, RejectsNonPositiveStallTimeout) {
  RecyclerConfig cfg;
  cfg.stall_timeout_ms = 0;
  EXPECT_FALSE(ValidateRecyclerConfig(cfg).ok());
  cfg.stall_timeout_ms = -5;
  EXPECT_FALSE(ValidateRecyclerConfig(cfg).ok());
}

TEST(ConfigValidation, RejectsNonsensicalCacheBytes) {
  RecyclerConfig cfg;
  cfg.cache_bytes = 17;  // bytes-vs-megabytes mistake: holds nothing
  EXPECT_FALSE(ValidateRecyclerConfig(cfg).ok());
  cfg.cache_bytes = 0;  // explicitly disabled: valid
  EXPECT_TRUE(ValidateRecyclerConfig(cfg).ok());
  cfg.cache_bytes = -1;  // unlimited: valid
  EXPECT_TRUE(ValidateRecyclerConfig(cfg).ok());
}

TEST(ConfigValidation, RejectsBadAgingAlphaAndLimits) {
  RecyclerConfig cfg;
  cfg.aging_alpha = 0.0;
  EXPECT_FALSE(ValidateRecyclerConfig(cfg).ok());
  cfg.aging_alpha = 1.5;
  EXPECT_FALSE(ValidateRecyclerConfig(cfg).ok());
  cfg = RecyclerConfig();
  cfg.speculation_buffer_cap = -1;
  EXPECT_FALSE(ValidateRecyclerConfig(cfg).ok());
}

TEST(ConfigValidation, RejectsBadColdTierOptions) {
  RecyclerConfig cfg;
  cfg.spill_dir = "/tmp/rdb-spill-validate";
  cfg.cold_tier_capacity_bytes = 0;
  Status st = ValidateRecyclerConfig(cfg);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("cold_tier_capacity_bytes"), std::string::npos);
  cfg.cold_tier_capacity_bytes = -4096;
  EXPECT_FALSE(ValidateRecyclerConfig(cfg).ok());

  // Capacity only matters once a spill_dir enables the tier.
  cfg = RecyclerConfig();
  cfg.cold_tier_capacity_bytes = 0;
  EXPECT_TRUE(ValidateRecyclerConfig(cfg).ok());
}

TEST(ConfigValidation, OpenRejectsUnwritableSpillDir) {
  DatabaseOptions options;
  // /proc is not writable even for root; directory creation must fail
  // with an actionable message rather than degrading silently.
  options.recycler.spill_dir = "/proc/rdb-no-such-spill-dir";
  std::unique_ptr<Database> db;
  Status st = Database::Open(options, &db);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("spill_dir"), std::string::npos);
  EXPECT_EQ(db, nullptr);
}

TEST(ConfigValidation, OpenReturnsStatusAndLeavesOutUntouched) {
  DatabaseOptions options;
  options.recycler.stall_timeout_ms = 0;
  std::unique_ptr<Database> db;
  Status st = Database::Open(options, &db);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("stall_timeout_ms"), std::string::npos);
  EXPECT_EQ(db, nullptr);

  options = DatabaseOptions();
  EXPECT_TRUE(Database::Open(options, &db).ok());
  ASSERT_NE(db, nullptr);
}

// ---------------------------------------------------------------------------
// Fluent builder & Explain
// ---------------------------------------------------------------------------

TEST(QueryBuilder, BuildsExpectedPlanShape) {
  auto db = OpenSalesDb();
  Query q = SalesSince(*db, Expr::Literal(int64_t{2008}));
  ASSERT_NE(q.plan(), nullptr);
  EXPECT_EQ(q.plan()->type(), OpType::kOrderBy);
  EXPECT_EQ(q.plan()->child()->type(), OpType::kAggregate);
  EXPECT_EQ(q.plan()->child()->child()->type(), OpType::kSelect);
  EXPECT_EQ(q.plan()->child()->child()->child()->type(), OpType::kScan);
  EXPECT_FALSE(q.HasParams());
}

TEST(QueryBuilder, ExplainShowsOperatorsAndParams) {
  auto db = OpenSalesDb();
  Query q = SalesSince(*db, Expr::Param("since"));
  std::string explain = q.Explain();
  EXPECT_NE(explain.find("OrderBy total desc"), std::string::npos);
  EXPECT_NE(explain.find("Aggregate group=[city]"), std::string::npos);
  EXPECT_NE(explain.find("$since"), std::string::npos);
  EXPECT_NE(explain.find("Scan sales [city, year, sales]"),
            std::string::npos);
  EXPECT_TRUE(q.HasParams());
  EXPECT_EQ(q.Params(), std::set<std::string>{"since"});
}

TEST(QueryBuilder, TemplateFingerprintIsBindingIndependent) {
  auto db = OpenSalesDb();
  Query a = SalesSince(*db, Expr::Param("since"));
  Query b = SalesSince(*db, Expr::Param("since"));
  Query c = SalesSince(*db, Expr::Literal(int64_t{2008}));
  EXPECT_EQ(a.TemplateFingerprint(), b.TemplateFingerprint());
  EXPECT_NE(a.TemplateFingerprint(), c.TemplateFingerprint());
}

// ---------------------------------------------------------------------------
// Execution through the facade
// ---------------------------------------------------------------------------

TEST(Facade, ExecuteAdHocQueryAndBatchIteration) {
  auto db = OpenSalesDb();
  Result r = db->Execute(SalesSince(*db, Expr::Literal(int64_t{2008})));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.num_rows(), 3);
  EXPECT_EQ(r.schema().Names(),
            (std::vector<std::string>{"city", "total"}));

  // Batch iteration covers all rows via zero-copy views.
  int64_t rows = 0;
  for (Batch batch : r.Batches()) {
    rows += batch.num_rows;
    ASSERT_EQ(batch.columns.size(), 2u);
  }
  EXPECT_EQ(rows, r.num_rows());
}

TEST(Facade, RepeatedQueryIsRecycledWithResultStats) {
  auto db = OpenSalesDb();
  Result first = db->Execute(SalesSince(*db, Expr::Literal(int64_t{2008})));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.recycled());
  Result second = db->Execute(SalesSince(*db, Expr::Literal(int64_t{2008})));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.recycled());
  EXPECT_GT(second.trace().num_reuses, 0);
}

TEST(Facade, ReplaceTableInvalidatesCachedResults) {
  auto db = OpenSalesDb();
  Query q = SalesSince(*db, Expr::Literal(int64_t{2008}));
  ASSERT_TRUE(db->Execute(q).ok());
  ASSERT_TRUE(db->Execute(q).recycled());
  // Replacing the table must evict dependents: next run recomputes.
  ASSERT_TRUE(db->ReplaceTable("sales", MakeSalesTable(1000)).ok());
  Result after = db->Execute(SalesSince(*db, Expr::Literal(int64_t{2008})));
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.recycled());
}

// ---------------------------------------------------------------------------
// Prepared statements: rebinding reuse & template stats
// ---------------------------------------------------------------------------

TEST(PreparedStatements, RebindingSameConstantsHitsTheCache) {
  auto db = OpenSalesDb();
  auto session = db->Connect({});
  Status st;
  auto stmt = session->Prepare(SalesSince(*db, Expr::Param("since")), &st);
  ASSERT_NE(stmt, nullptr) << st.ToString();
  EXPECT_EQ(stmt->parameters(), std::set<std::string>{"since"});

  Result a1 = stmt->Execute({{"since", int64_t{2008}}});
  ASSERT_TRUE(a1.ok()) << a1.status().ToString();
  EXPECT_FALSE(a1.recycled());
  EXPECT_EQ(a1.template_prior_runs(), 0);

  Result b1 = stmt->Execute({{"since", int64_t{2010}}});
  ASSERT_TRUE(b1.ok());
  EXPECT_EQ(b1.template_prior_runs(), 1);

  // Fresh bindings repeating earlier constants: answered from the cache,
  // visible in the Result stats (the acceptance criterion).
  Result a2 = stmt->Execute({{"since", int64_t{2008}}});
  ASSERT_TRUE(a2.ok());
  EXPECT_TRUE(a2.recycled());
  Result b2 = stmt->Execute({{"since", int64_t{2010}}});
  ASSERT_TRUE(b2.ok());
  EXPECT_TRUE(b2.recycled());

  TemplateStats ts = stmt->stats();
  EXPECT_EQ(ts.executions, 4);
  EXPECT_GE(ts.num_reuses, 2);
  EXPECT_GE(ts.num_materialized, 1);
  EXPECT_EQ(db->StatsForTemplate(stmt->template_hash()).executions, 4);

  // Results agree with an ad-hoc run of the same constants.
  Result adhoc = db->Execute(SalesSince(*db, Expr::Literal(int64_t{2008})));
  ASSERT_TRUE(adhoc.ok());
  EXPECT_EQ(adhoc.table()->ToString(100), a2.table()->ToString(100));
}

TEST(PreparedStatements, RebindingGetsSubsumptionHits) {
  auto db = OpenSalesDb();
  auto session = db->Connect({});
  // Seed the cache with the broad selection.
  ASSERT_TRUE(
      session
          ->Execute(db->Scan("sales", {"city", "year", "sales"})
                        .Filter(Expr::Gt(Expr::Column("sales"),
                                         Expr::Literal(4900.0))))
          .ok());
  // Template refines the broad conjunct with a parameterized equality:
  // every binding is answerable from the cached superset (tuple
  // subsumption), never from an exact match.
  Status st;
  auto stmt = session->Prepare(
      db->Scan("sales", {"city", "year", "sales"})
          .Filter(Expr::And(
              Expr::Gt(Expr::Column("sales"), Expr::Literal(4900.0)),
              Expr::Eq(Expr::Column("year"), Expr::Param("y")))),
      &st);
  ASSERT_NE(stmt, nullptr) << st.ToString();
  int subsumed = 0;
  for (int64_t y : {2006, 2008, 2010}) {
    Result r = stmt->Execute({{"y", y}});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    subsumed += r.trace().num_subsumption_reuses > 0 ? 1 : 0;
  }
  EXPECT_GT(subsumed, 0);
  EXPECT_GT(stmt->stats().num_subsumption_reuses, 0);
}

TEST(PreparedStatements, FunctionScanTemplateRebinds) {
  DatabaseOptions options;
  auto db = Database::OpenOrDie(options);
  skyserver::Setup(20000, &db->catalog());
  auto session = db->Connect({});
  Status st;
  auto cone = session->Prepare(skyserver::ConeSearchTemplate(), &st);
  ASSERT_NE(cone, nullptr) << st.ToString();

  ParamMap dominant = {{"ra", 195.0}, {"dec", 2.5}, {"radius", 0.5}};
  Result cold = cone->Execute(dominant);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold.recycled());
  Result warm = cone->Execute(dominant);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.recycled());
  EXPECT_EQ(warm.num_rows(), cold.num_rows());

  // A different cone is a different instance of the same template.
  Result other = cone->Execute({{"ra", 10.0}, {"dec", 0.0}, {"radius", 0.5}});
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(cone->stats().executions, 3);
}

TEST(PreparedStatements, StatementStreamsThroughTheDriver) {
  auto db = OpenSalesDb();
  auto session = db->Connect({});
  Status st;
  auto stmt = session->Prepare(SalesSince(*db, Expr::Param("since")), &st);
  ASSERT_NE(stmt, nullptr) << st.ToString();

  // Two streams drawing from the same small binding domain: cross-stream
  // parameter collisions become cache hits (the paper's §V setting).
  std::vector<ParamMap> bindings;
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    bindings.push_back({{"since", int64_t{2006 + (int)rng.Uniform(0, 2)}}});
  }
  std::vector<workload::StreamSpec> streams;
  streams.push_back(workload::MakeStatementStream(stmt.get(), bindings, "S"));
  streams.push_back(workload::MakeStatementStream(stmt.get(), bindings, "S"));
  workload::RunReport report = workload::RunStreams(db.get(), streams, 4);
  EXPECT_EQ(report.TotalQueries(), 20);
  EXPECT_GT(report.Totals().num_reuses, 0);
  // Every driver execution carries the template identity.
  EXPECT_EQ(db->StatsForTemplate(stmt->template_hash()).executions, 20);
}

// ---------------------------------------------------------------------------
// Session isolation & overrides
// ---------------------------------------------------------------------------

TEST(Sessions, TracesAndStatsAreIsolatedPerSession) {
  auto db = OpenSalesDb();
  auto alice = db->Connect([] {
    SessionOptions o;
    o.name = "alice";
    return o;
  }());
  auto bob = db->Connect([] {
    SessionOptions o;
    o.name = "bob";
    return o;
  }());

  Query q = SalesSince(*db, Expr::Literal(int64_t{2008}));
  ASSERT_TRUE(alice->Execute(q).ok());
  ASSERT_TRUE(alice->Execute(q).ok());
  ASSERT_TRUE(bob->Execute(q).ok());

  EXPECT_EQ(alice->stats().queries, 2);
  EXPECT_EQ(bob->stats().queries, 1);
  EXPECT_EQ(alice->traces().size(), 2u);
  EXPECT_EQ(bob->traces().size(), 1u);
  // Bob's single run reused what Alice materialized (shared engine),
  // and his session saw the reuse while Alice's stats are untouched.
  EXPECT_GT(bob->stats().num_reuses, 0);
  EXPECT_EQ(bob->stats().num_materialized, 0);
  EXPECT_GT(alice->stats().num_materialized, 0);
  // The engine-wide counters aggregate across sessions.
  EXPECT_EQ(db->counters().queries.load(), 3);
}

TEST(Sessions, TraceCollectionCanBeDisabled) {
  auto db = OpenSalesDb();
  SessionOptions o;
  o.max_traces = 0;
  auto session = db->Connect(o);
  ASSERT_TRUE(
      session->Execute(SalesSince(*db, Expr::Literal(int64_t{2008}))).ok());
  EXPECT_EQ(session->traces().size(), 0u);
  EXPECT_EQ(session->stats().queries, 1);
}

TEST(Sessions, BypassRecyclerOverride) {
  auto db = OpenSalesDb();
  SessionOptions o;
  o.bypass_recycler = true;
  auto raw = db->Connect(o);
  Query q = SalesSince(*db, Expr::Literal(int64_t{2008}));
  Result r1 = raw->Execute(q);
  Result r2 = raw->Execute(q);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  // No recycling for this session: nothing reused, engine untouched.
  EXPECT_FALSE(r2.recycled());
  EXPECT_EQ(db->counters().queries.load(), 0);
  EXPECT_EQ(r1.table()->ToString(10), r2.table()->ToString(10));
}

TEST(Sessions, ScanOfAColumnNamedLikeAListIsNotServedAnother) {
  // `Scan g [a, b]` and `Scan g ["a,b"]` read different columns; a key
  // that joined the column list with commas would serve one the other's
  // rows.
  Schema schema({{"a", TypeId::kInt32},
                 {"b", TypeId::kInt32},
                 {"a,b", TypeId::kInt32}});
  TablePtr g = MakeTable(schema);
  for (int i = 0; i < 20000; ++i) {
    g->AppendRow({int32_t{i % 100}, int32_t{i % 7}, int32_t{i % 13}});
  }
  auto db = Database::OpenOrDie(DatabaseOptions{});
  ASSERT_TRUE(db->CreateTable("g", g).ok());
  auto count_over = [](std::vector<std::string> columns,
                       const std::string& filtered) {
    return PlanNode::Aggregate(
        PlanNode::Select(PlanNode::Scan("g", std::move(columns)),
                         Expr::Gt(Expr::Column(filtered),
                                  Expr::Literal(int32_t{5}))),
        {}, {{AggFunc::kCount, Expr::Literal(int64_t{1}), "c"}});
  };
  auto session = db->Connect({});
  SessionOptions bypass;
  bypass.bypass_recycler = true;
  auto oracle = db->Connect(bypass);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(session->Execute(count_over({"a", "b"}, "a")).ok());
  }
  Result r = session->Execute(count_over({"a,b"}, "a,b"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  Result want = oracle->Execute(count_over({"a,b"}, "a,b"));
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_EQ(recycledb::testing::RowMultiset(*r.table()),
            recycledb::testing::RowMultiset(*want.table()));
}

// ---------------------------------------------------------------------------
// Async submission
// ---------------------------------------------------------------------------

TEST(AsyncSubmit, FuturesResolveAndShareTheCache) {
  auto db = OpenSalesDb();
  auto session = db->Connect({});
  std::vector<std::future<Result>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(
        session->Submit(SalesSince(*db, Expr::Literal(int64_t{2008}))));
  }
  int reused = 0;
  for (auto& f : futures) {
    Result r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.num_rows(), 3);
    reused += r.recycled() ? 1 : 0;
  }
  EXPECT_GT(reused, 0);
  EXPECT_EQ(session->stats().queries, 8);
}

TEST(AsyncSubmit, StatementSubmitRoutesThroughGate) {
  auto db = OpenSalesDb();
  auto session = db->Connect({});
  Status st;
  auto stmt = session->Prepare(SalesSince(*db, Expr::Param("since")), &st);
  ASSERT_NE(stmt, nullptr);
  auto f1 = stmt->Bind("since", int64_t{2008}).Submit();
  auto f2 = stmt->Bind("since", int64_t{2008}).Submit();
  Result r1 = f1.get();
  Result r2 = f2.get();
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(stmt->stats().executions, 2);
}

// ---------------------------------------------------------------------------
// Errors: unbound parameters, type mismatches, invalid queries
// ---------------------------------------------------------------------------

TEST(Errors, ExecutingParameterizedQueryWithoutPrepareFails) {
  auto db = OpenSalesDb();
  Result r = db->Execute(SalesSince(*db, Expr::Param("since")));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("$since"), std::string::npos);
}

TEST(Errors, UnboundParameterFailsWithExplain) {
  auto db = OpenSalesDb();
  Status st;
  auto stmt = db->Prepare(SalesSince(*db, Expr::Param("since")), &st);
  ASSERT_NE(stmt, nullptr);
  Result r = stmt->Execute();  // nothing bound
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("unbound parameters: $since"),
            std::string::npos);
  // The message embeds the statement Explain (tree + bindings).
  EXPECT_NE(r.status().message().find("Scan sales"), std::string::npos);
  EXPECT_NE(r.status().message().find("$since=<unbound>"),
            std::string::npos);
}

TEST(Errors, TypeMismatchedBindingFails) {
  auto db = OpenSalesDb();
  Status st;
  auto stmt = db->Prepare(SalesSince(*db, Expr::Param("since")), &st);
  ASSERT_NE(stmt, nullptr);
  Result r = stmt->Execute({{"since", std::string("not-a-year")}});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("cannot compare"), std::string::npos);
  // Rebinding correctly afterwards works (the statement is not poisoned).
  Result ok = stmt->Execute({{"since", int64_t{2008}}});
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST(Errors, UnknownParameterNameIsReported) {
  auto db = OpenSalesDb();
  Status st;
  auto stmt = db->Prepare(SalesSince(*db, Expr::Param("since")), &st);
  ASSERT_NE(stmt, nullptr);
  Result r = stmt->Bind("sinc", int64_t{2008}).Execute();
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("unknown parameter: $sinc"),
            std::string::npos);
  stmt->ClearBindings();
  EXPECT_TRUE(stmt->Execute({{"since", int64_t{2008}}}).ok());
}

TEST(Errors, StructuralTemplateErrorsSurfaceAtPrepare) {
  auto db = OpenSalesDb();
  Status st;
  auto stmt = db->Prepare(
      db->Scan("no_such_table", {"x"}).Filter(Expr::Param("p")), &st);
  EXPECT_EQ(stmt, nullptr);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("no_such_table"), std::string::npos);
}

TEST(Errors, UnknownColumnFailsWithoutAborting) {
  auto db = OpenSalesDb();
  Result r = db->Execute(
      db->Scan("sales", {"city"})
          .Filter(Expr::Gt(Expr::Column("nope"), Expr::Literal(1.0))));
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("unknown column: nope"),
            std::string::npos);
  EXPECT_NE(r.status().message().find("Filter"), std::string::npos);
}

TEST(Errors, ScanOfUnknownColumnFails) {
  auto db = OpenSalesDb();
  Result r = db->Execute(db->Scan("sales", {"city", "bogus"}));
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("sales.bogus"), std::string::npos);
}

TEST(Errors, FunctionScanArgTypeMismatchFails) {
  DatabaseOptions options;
  auto db = Database::OpenOrDie(options);
  skyserver::Setup(5000, &db->catalog());
  auto session = db->Connect({});
  Status st;
  auto cone = session->Prepare(skyserver::ConeSearchTemplate(), &st);
  ASSERT_NE(cone, nullptr) << st.ToString();
  // Binding a string where fGetNearbyObjEq declares a double must come
  // back as Status, not abort inside the table function.
  Result r = cone->Execute(
      {{"ra", std::string("195")}, {"dec", 2.5}, {"radius", 0.5}});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("expected DOUBLE"), std::string::npos);
  // Integer-for-double is an acceptable numeric coercion.
  Result ok = cone->Execute(
      {{"ra", int64_t{195}}, {"dec", 2.5}, {"radius", 0.5}});
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST(Errors, ErrorResultAccessorsAreSafe) {
  auto db = OpenSalesDb();
  Result r = db->Execute(db->Scan("sales", {"bogus"}));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.table(), nullptr);
  EXPECT_EQ(r.num_rows(), 0);
  EXPECT_EQ(r.schema().num_fields(), 0);
  int batches = 0;
  for (Batch b : r.Batches()) batches += b.num_rows > 0;
  EXPECT_EQ(batches, 0);
  EXPECT_EQ(r.ToString(), r.status().ToString());
}

TEST(AsyncSubmit, WorkerCountSetsHowManyStatementsRunAtOnce) {
  // Each call of the table function below waits (up to 10 s) until as
  // many calls run as there are workers, then holds briefly, so four
  // submissions overlap exactly as far as the worker count lets them.
  // The results must not depend on which worker ran which statement.
  static std::mutex mu;
  static std::condition_variable cv;
  static int running = 0;
  static int peak = 0;
  static int workers = 0;
  static const Schema kSchema({{"x", TypeId::kInt64}});
  TableFunction fn;
  fn.name = "async_rendezvous";
  fn.schema_fn = [](const std::vector<Datum>&) { return kSchema; };
  fn.eval_fn = [](const Catalog&, const std::vector<Datum>& args) {
    {
      std::unique_lock<std::mutex> lock(mu);
      peak = std::max(peak, ++running);
      cv.notify_all();
      cv.wait_for(lock, std::chrono::seconds(10),
                  [] { return running >= workers; });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    {
      std::lock_guard<std::mutex> lock(mu);
      --running;
    }
    const int64_t n = std::get<int64_t>(args[0]);
    TablePtr out = MakeTable(kSchema);
    for (int64_t i = 0; i < n; ++i) out->AppendRow({i * n});
    return out;
  };
  TableFunctionRegistry::Global().Register(fn);

  auto run = [](int threads, std::vector<uint64_t>* digests) {
    {
      std::lock_guard<std::mutex> lock(mu);
      running = 0;
      peak = 0;
      workers = threads;
    }
    DatabaseOptions options;
    options.async_threads = threads;
    auto db = Database::OpenOrDie(options);
    auto session = db->Connect({});
    std::vector<std::future<Result>> futures;
    for (int64_t n = 1; n <= 4; ++n) {
      futures.push_back(session->Submit(
          db->FunctionScan("async_rendezvous", {Expr::Literal(n)})));
    }
    for (auto& f : futures) {
      Result r = f.get();
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      digests->push_back(r.ok() ? trace::ResultDigest(*r.table()) : 0);
    }
    std::lock_guard<std::mutex> lock(mu);
    return peak;
  };
  std::vector<uint64_t> one, four;
  EXPECT_EQ(run(1, &one), 1);
  EXPECT_EQ(run(4, &four), 4);
  EXPECT_EQ(one, four);
}

TEST(AsyncSubmit, OpenAndCloseWithoutSubmitStartNoThread) {
  // Neither the submission workers nor the cold tier's spill worker start
  // before they have work.
  recycledb::testing::TempSpillDir dir;
  const int before = recycledb::testing::CountProcessThreads();
  if (before < 0) GTEST_SKIP() << "no /proc/self/task to count threads";
  {
    DatabaseOptions options;
    options.async_threads = 4;
    options.recycler.spill_dir = dir.path();
    auto db = Database::OpenOrDie(options);
    EXPECT_EQ(recycledb::testing::CountProcessThreads(), before);
  }
  EXPECT_EQ(recycledb::testing::CountProcessThreads(), before);
}

TEST(AsyncSubmit, SameQuerySubmittedConcurrentlyIsSafe) {
  auto db = OpenSalesDb();
  auto session = db->Connect({});
  // One Query object, many concurrent submissions: the facade must not
  // race on binding the shared plan nodes (each submission deep-clones).
  Query q = SalesSince(*db, Expr::Literal(int64_t{2008}));
  std::vector<std::future<Result>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(session->Submit(q));
  for (auto& f : futures) {
    Result r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.num_rows(), 3);
  }
}

TEST(AsyncSubmit, SessionDestructionDrainsInFlightWork) {
  auto db = OpenSalesDb();
  std::future<Result> f;
  {
    auto session = db->Connect({});
    f = session->Submit(SalesSince(*db, Expr::Literal(int64_t{2008})));
    // Session destroyed here with the submission possibly still running;
    // the destructor must wait it out (no use-after-free).
  }
  Result r = f.get();
  EXPECT_TRUE(r.ok());
}

TEST(Sessions, TraceRingKeepsTheMostRecent) {
  auto db = OpenSalesDb();
  SessionOptions o;
  o.max_traces = 3;
  auto session = db->Connect(o);
  Query q = SalesSince(*db, Expr::Literal(int64_t{2008}));
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(session->Execute(q).ok());
  std::vector<QueryTrace> traces = session->traces();
  ASSERT_EQ(traces.size(), 3u);
  // Oldest-first, and strictly the latest three query ids.
  EXPECT_LT(traces[0].query_id, traces[1].query_id);
  EXPECT_LT(traces[1].query_id, traces[2].query_id);
  EXPECT_EQ(session->stats().queries, 5);
}

TEST(Errors, ComparingStringColumnToNumberFails) {
  auto db = OpenSalesDb();
  Result r = db->Execute(
      db->Scan("sales", {"city", "sales"})
          .Filter(Expr::Eq(Expr::Column("city"), Expr::Literal(int64_t{1}))));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(Errors, JoinKeyTypeMismatchFails) {
  auto db = OpenSalesDb();
  Schema s({{"y64", TypeId::kInt64}, {"w", TypeId::kDouble}});
  TablePtr t = MakeTable(s);
  t->AppendRow({int64_t{2008}, 1.0});
  ASSERT_TRUE(db->CreateTable("aux", t).ok());
  // year is INT32, y64 is INT64: the join comparator requires identical
  // key types, so this must fail validation instead of aborting later.
  Result r = db->Execute(
      db->Scan("sales", {"city", "year"})
          .Join(db->Scan("aux", {"y64", "w"}), JoinKind::kInner, {"year"},
                {"y64"}));
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("join key type mismatch"),
            std::string::npos);
}

TEST(Errors, BinWidthThatIsNotAPositiveIntegerFails) {
  auto db = OpenSalesDb();
  // floor(2007 / 2.9) is 692, not the 1003 a width truncated to 2 gives.
  for (const char* sql : {"SELECT bin(year, 2.9) AS b FROM sales",
                          "SELECT bin(year, 0) AS b FROM sales"}) {
    Result r = db->Sql(sql);
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << sql;
    EXPECT_NE(r.status().message().find("bin width must be a positive"),
              std::string::npos)
        << r.status().ToString();
  }
  Result ok = db->Sql("SELECT bin(year, 2) AS b FROM sales");
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST(Sessions, ConcurrentPrepareOfOneSharedQueryIsSafe) {
  auto db = OpenSalesDb();
  // One Query template shared by two client threads, each with its own
  // session: Prepare must not mutate the shared plan (it deep-clones).
  Query q = SalesSince(*db, Expr::Param("since"));
  auto worker = [&db, &q](int64_t since) {
    auto session = db->Connect({});
    Status st;
    auto stmt = session->Prepare(q, &st);
    ASSERT_NE(stmt, nullptr) << st.ToString();
    Result r = stmt->Execute({{"since", since}});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.num_rows(), 3);
  };
  std::thread t1(worker, int64_t{2008});
  std::thread t2(worker, int64_t{2010});
  t1.join();
  t2.join();
}

// ---------------------------------------------------------------------------
// Counter agreement: every per-query counter in recycler/counters.h adds
// up to the same total in the traces, the session, the template, the
// run report and the engine-wide twin.
// ---------------------------------------------------------------------------

/// Rows [start, start + rows) of (a: 0..9, v: spread over [0, 10000)).
TablePtr MakeCountersTable(int64_t start, int64_t rows) {
  TablePtr t =
      MakeTable(Schema({{"a", TypeId::kInt32}, {"v", TypeId::kDouble}}));
  for (int64_t i = start; i < start + rows; ++i) {
    t->AppendRow({static_cast<int32_t>(i % 10),
                  static_cast<double>((i * 7919) % 10000)});
  }
  return t;
}

std::unique_ptr<Database> OpenCountersDb(const std::string& spill_dir) {
  DatabaseOptions options;
  options.recycler.mode = RecyclerMode::kSpeculation;
  options.recycler.spill_dir = spill_dir;
  // Range slices (~72 KB) store speculatively; the whole table does not.
  options.recycler.speculation_buffer_cap = 128 << 10;
  auto db = Database::OpenOrDie(options);
  EXPECT_TRUE(db->CreateTable("f", MakeCountersTable(0, 20000)).ok());
  return db;
}

Query RangeTemplate(Database& db) {
  return db.Scan("f", {"a", "v"})
      .Filter(Expr::And(Expr::Ge(Expr::Column("v"), Expr::Param("lo")),
                        Expr::Lt(Expr::Column("v"), Expr::Param("hi"))));
}

QueryCounts SumOverList(const std::vector<QueryTrace>& traces) {
  QueryCounts sum;
  for (const QueryTrace& t : traces) {
    for (const CounterInfo& c : kQueryCounters) sum.*c.field += t.*c.field;
  }
  return sum;
}

std::vector<int64_t> Twins(const RecyclerCounters& counters) {
  std::vector<int64_t> out;
  for (const CounterInfo& c : kQueryCounters) {
    out.push_back((counters.*c.twin).load());
  }
  return out;
}

void ExpectSameCounts(const char* level, const QueryCounts& expected,
                      const QueryCounts& actual) {
  for (const CounterInfo& c : kQueryCounters) {
    EXPECT_EQ(actual.*c.field, expected.*c.field)
        << level << " disagrees on " << c.field_name;
  }
}

/// Checks every level against the sum over `traces` (all executions)
/// and `templated` (the template's executions, a subset).
void ExpectCountersAgree(Database& db, const PreparedStatement& stmt,
                         const std::vector<SessionStats>& sessions,
                         const std::vector<int64_t>& twins_before,
                         const std::vector<QueryTrace>& traces,
                         const std::vector<QueryTrace>& templated) {
  const QueryCounts total = SumOverList(traces);
  QueryCounts session_total;
  for (const SessionStats& s : sessions) session_total += s;
  ExpectSameCounts("SessionStats", total, session_total);

  workload::RunReport report;
  for (const QueryTrace& t : traces) {
    report.records.emplace_back();
    report.records.back().trace = t;
  }
  ExpectSameCounts("RunReport::Totals", total, report.Totals());

  const TemplateStats ts = db.StatsForTemplate(stmt.template_hash());
  EXPECT_EQ(ts.executions, static_cast<int64_t>(templated.size()));
  ExpectSameCounts("TemplateStats", SumOverList(templated), ts);

  const std::vector<int64_t> twins_after = Twins(db.counters());
  size_t i = 0;
  for (const CounterInfo& c : kQueryCounters) {
    EXPECT_EQ(twins_after[i] - twins_before[i], total.*c.field)
        << "RecyclerCounters twin disagrees on " << c.field_name;
    ++i;
  }
}

TEST(CounterAgreement, EveryCounterAddsUpAtEveryLevel) {
  recycledb::testing::TempSpillDir dir;
  {
    // A previous process leaves the [0, 3000) slice in the spill dir.
    auto db = OpenCountersDb(dir.path());
    auto session = db->Connect({});
    auto stmt = session->Prepare(RangeTemplate(*db));
    ASSERT_NE(stmt, nullptr);
    ASSERT_TRUE(stmt->Execute({{"lo", 0.0}, {"hi", 3000.0}}).ok());
  }
  auto db = OpenCountersDb(dir.path());
  const std::vector<int64_t> twins_before = Twins(db->counters());
  auto session = db->Connect({});
  Status st;
  auto stmt = session->Prepare(RangeTemplate(*db), &st);
  ASSERT_NE(stmt, nullptr) << st.ToString();

  std::vector<QueryTrace> traces, templated;
  auto range = [&](double lo, double hi) {
    Result r = stmt->Execute({{"lo", lo}, {"hi", hi}});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    traces.push_back(r.trace());
    templated.push_back(r.trace());
  };
  const std::string rollup = "SELECT a, SUM(v) AS s FROM f GROUP BY a";
  auto sql = [&](const std::string& text) {
    Result r = session->Sql(text);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    traces.push_back(r.trace());
  };
  range(0, 3000);     // adopts the restart image: a cold hit
  range(0, 3000);     // exact hit
  range(3000, 6000);  // miss, stored
  range(1000, 5000);  // stitched from both slices, stored
  range(0, 10001);    // stitched, but storing the whole table backs off
  sql("SELECT a, v FROM f WHERE v > 5000");            // stitched, stored
  sql("SELECT a, v FROM f WHERE v > 5000 AND a = 3");  // subsumption
  sql(rollup);        // miss, stored
  ASSERT_TRUE(db->AppendTable("f", *MakeCountersTable(20000, 500)).ok());
  range(0, 3000);     // append-stale slice: delta reuse
  sql(rollup);        // append-stale aggregate: aggregate merge

  // The workload reaches every mechanism the counters describe (stalls
  // need concurrent streams and pruning needs clustered data).
  const QueryCounts total = SumOverList(traces);
  EXPECT_GT(total.num_reuses, 0);
  EXPECT_GT(total.num_subsumption_reuses, 0);
  EXPECT_GT(total.num_partial_reuses, 0);
  EXPECT_GT(total.num_cold_hits, 0);
  EXPECT_GT(total.num_adoptions, 0);
  EXPECT_GT(total.num_delta_reuses, 0);
  EXPECT_GT(total.num_agg_merges, 0);
  EXPECT_GT(total.num_index_served, 0);
  EXPECT_GT(total.num_materialized, 0);
  EXPECT_GT(total.num_spec_aborted, 0);
  EXPECT_GT(total.blocks_scanned, 0);
  ExpectCountersAgree(*db, *stmt, {session->stats()}, twins_before, traces,
                      templated);
}

TEST(CounterAgreement, TwoConcurrentSessionsAddUp) {
  recycledb::testing::TempSpillDir dir;
  auto db = OpenCountersDb(dir.path());
  const std::vector<int64_t> twins_before = Twins(db->counters());
  struct Client {
    std::unique_ptr<Session> session;
    std::unique_ptr<PreparedStatement> stmt;
    std::vector<QueryTrace> traces;
  };
  Client clients[2];
  for (Client& c : clients) {
    c.session = db->Connect({});
    c.stmt = c.session->Prepare(RangeTemplate(*db));
    ASSERT_NE(c.stmt, nullptr);
  }
  auto work = [](Client* c, double shift) {
    for (int round = 0; round < 3; ++round) {
      for (double lo : {0.0, 3000.0, 1000.0, 500.0}) {
        Result r = c->stmt->Execute({{"lo", lo + shift}, {"hi", lo + 3000}});
        if (r.ok()) c->traces.push_back(r.trace());
      }
    }
  };
  std::thread t0(work, &clients[0], 0.0);
  std::thread t1(work, &clients[1], 250.0);
  t0.join();
  t1.join();

  std::vector<QueryTrace> traces;
  for (const Client& c : clients) {
    EXPECT_EQ(c.traces.size(), 12u);
    traces.insert(traces.end(), c.traces.begin(), c.traces.end());
  }
  EXPECT_GT(SumOverList(traces).num_reuses, 0);
  // Both statements bind one template, so TemplateStats sees them all.
  ExpectCountersAgree(
      *db, *clients[0].stmt,
      {clients[0].session->stats(), clients[1].session->stats()},
      twins_before, traces, traces);
}

// ---------------------------------------------------------------------------
// Statement pipeline: a repeat is served from the exact-hit index as
// submitted, before validation, canonicalization and Bind
// ---------------------------------------------------------------------------

/// The scan leaf of `plan` (first child all the way down).
const PlanNode* LeafOf(const PlanPtr& plan) {
  const PlanNode* n = plan.get();
  while (!n->children().empty()) n = n->children()[0].get();
  return n;
}

/// The counts of `probed`, a probe hit, with its IndexServed count
/// (which no MatchTree hit has) checked and cleared.
QueryCounts WithoutIndexServed(QueryCounts probed) {
  EXPECT_EQ(probed.num_index_served, 1);
  probed.num_index_served = 0;
  return probed;
}

/// The trace fields a probe hit must share with a MatchTree root hit.
void ExpectSameHit(const QueryTrace& probed, const QueryTrace& matched) {
  EXPECT_EQ(probed.reuse_mode, matched.reuse_mode);
  EXPECT_EQ(probed.plan_fingerprint, matched.plan_fingerprint);
  EXPECT_EQ(probed.template_hash, matched.template_hash);
  EXPECT_EQ(probed.template_prior_runs, matched.template_prior_runs);
  EXPECT_EQ(probed.graph_nodes_at_match, matched.graph_nodes_at_match);
  EXPECT_EQ(matched.num_index_served, 0);
  ExpectSameCounts("probe hit vs MatchTree hit", matched,
                   WithoutIndexServed(probed));
}

TEST(StatementPipeline, RepeatSkipsValidateCanonicalizeAndBind) {
  auto db = OpenSalesDb();
  auto session = db->Connect({});
  auto fresh = [&] { return SalesSince(*db, Expr::Literal(int64_t{2008})); };
  Result first = session->Execute(fresh().plan());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first.recycled());
  EXPECT_EQ(db->recycler().exact_hit_entries(), 1);

  PlanPtr repeat = fresh().plan();
  const int64_t epoch = db->recycler().graph().epoch();
  Result hit = session->Execute(repeat);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_EQ(hit.trace().reuse_mode, ReuseMode::kExact);
  EXPECT_FALSE(repeat->bound());  // never validated, canonicalized or bound
  EXPECT_EQ(db->recycler().graph().epoch(), epoch + 1);
  EXPECT_EQ(recycledb::testing::RowMultiset(*hit.table()),
            recycledb::testing::RowMultiset(*first.table()));
  EXPECT_EQ(hit.schema().Names(), first.schema().Names());

  PlanPtr submitted = fresh().plan();
  Result async_hit = session->Submit(submitted).get();
  ASSERT_TRUE(async_hit.ok()) << async_hit.status().ToString();
  EXPECT_EQ(async_hit.trace().reuse_mode, ReuseMode::kExact);
  EXPECT_FALSE(submitted->bound());

  // The same statement through the full path: a MatchTree root hit.
  PlanPtr matched_plan = CanonicalizePlan(fresh().plan());
  QueryTrace matched;
  db->recycler().Execute(
      db->recycler().Prepare(matched_plan, StatementKey{}).get(), &matched);
  ExpectSameHit(hit.trace(), matched);
}

TEST(StatementPipeline, PreparedRepeatTraceAndTemplateStatsMatchAMatchTreeHit) {
  // Two engines run a statement twice; the second run is a probe hit on
  // one and a MatchTree root hit on the other.
  auto probed_db = OpenSalesDb();
  auto matched_db = OpenSalesDb();
  auto probed_session = probed_db->Connect({});
  auto matched_session = matched_db->Connect({});
  auto probed =
      probed_session->Prepare(SalesSince(*probed_db, Expr::Param("since")));
  auto matched =
      matched_session->Prepare(SalesSince(*matched_db, Expr::Param("since")));
  ASSERT_NE(probed, nullptr);
  ASSERT_NE(matched, nullptr);
  const ParamMap since = {{"since", int64_t{2008}}};
  ASSERT_TRUE(probed->Execute(since).ok());
  ASSERT_TRUE(matched->Execute(since).ok());

  Result hit = probed->Execute(since);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  PlanPtr plan;
  ASSERT_TRUE(matched->ToPlan(&plan).ok());
  ASSERT_EQ(CanonicalizePlan(plan), plan);
  QueryTrace full;
  Recycler& rec = matched_db->recycler();
  rec.Execute(rec.Prepare(plan, StatementKey{}).get(), &full);
  EXPECT_EQ(hit.trace().reuse_mode, ReuseMode::kExact);
  ExpectSameHit(hit.trace(), full);

  const TemplateStats a = probed->stats();
  const TemplateStats b = matched->stats();
  EXPECT_EQ(a.executions, 2);
  EXPECT_EQ(a.executions, b.executions);
  ExpectSameCounts("TemplateStats", b, WithoutIndexServed(a));
}

TEST(StatementPipeline, NonCanonicalStatementHitsOnItsSecondSubmission) {
  auto db = OpenSalesDb();
  auto session = db->Connect({});
  auto fresh = [&](bool year_first) {
    ExprPtr year = Expr::Ge(Expr::Column("year"), Expr::Literal(int64_t{2007}));
    ExprPtr city = Expr::Ne(Expr::Column("city"),
                            Expr::Literal(std::string("Brisbane")));
    return db->Scan("sales", {"city", "year", "sales"})
        .Filter(year_first ? Expr::And(year, city) : Expr::And(city, year))
        .Aggregate({"city"}, {{AggFunc::kSum, Expr::Column("sales"), "t"}})
        .plan();
  };
  // Whichever conjunct order the canonicalizer does not keep.
  bool year_first = true;
  if (CanonicalizePlan(fresh(true))->TreeKey() ==
      fresh(true)->TreeKey()) {
    year_first = false;
  }
  PlanPtr submitted = fresh(year_first);
  ASSERT_NE(CanonicalizePlan(submitted)->TreeKey(),
            submitted->TreeKey());

  Result first = session->Execute(submitted);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first.recycled());
  PlanPtr repeat = fresh(year_first);
  Result hit = session->Execute(repeat);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_EQ(hit.trace().reuse_mode, ReuseMode::kExact);
  EXPECT_FALSE(repeat->bound());
  // The canonical form's fingerprint, as on a MatchTree hit.
  EXPECT_EQ(hit.trace().plan_fingerprint, first.trace().plan_fingerprint);
  EXPECT_EQ(recycledb::testing::RowMultiset(*hit.table()),
            recycledb::testing::RowMultiset(*first.table()));
}

TEST(StatementPipeline, AlternatingSpellingsAreServedFromTheIndex) {
  auto db = OpenSalesDb();
  auto session = db->Connect({});
  // The statement with its three conjuncts in the order `order` names.
  auto fresh = [&](const std::vector<int>& order) {
    const ExprPtr conjuncts[] = {
        Expr::Ge(Expr::Column("year"), Expr::Literal(int64_t{2007})),
        Expr::Ne(Expr::Column("city"), Expr::Literal(std::string("Brisbane"))),
        Expr::Gt(Expr::Column("sales"), Expr::Literal(100.0))};
    return db->Scan("sales", {"city", "year", "sales"})
        .Filter(Expr::And(Expr::And(conjuncts[order[0]], conjuncts[order[1]]),
                          conjuncts[order[2]]))
        .Aggregate({"city"}, {{AggFunc::kSum, Expr::Column("sales"), "t"}})
        .plan();
  };
  // Two spellings, neither of them canonical.
  const std::string canonical_key =
      CanonicalizePlan(fresh({0, 1, 2}))->TreeKey();
  std::vector<std::vector<int>> spellings;
  std::vector<int> order = {0, 1, 2};
  do {
    if (fresh(order)->TreeKey() != canonical_key) {
      spellings.push_back(order);
    }
  } while (spellings.size() < 2 &&
           std::next_permutation(order.begin(), order.end()));
  ASSERT_EQ(spellings.size(), 2u);
  ASSERT_EQ(CanonicalizePlan(fresh(spellings[1]))->TreeKey(),
            canonical_key);

  // Each run is the other spelling. The first run registers its own key
  // and the canonical one; every later run is served from the index:
  // before validation under its own key, or after canonicalization under
  // the canonical key. Neither binds the scan, which a MatchTree hit
  // would (and it would replace the other spelling's key).
  std::multiset<std::string> rows;
  for (int run = 0; run < 6; ++run) {
    SCOPED_TRACE(run);
    PlanPtr plan = fresh(spellings[run % 2]);
    const int64_t epoch = db->recycler().graph().epoch();
    Result r = session->Execute(plan);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(db->recycler().graph().epoch(), epoch + 1);
    EXPECT_EQ(db->recycler().exact_hit_entries(), 1);
    if (run == 0) {
      EXPECT_FALSE(r.recycled());
      rows = recycledb::testing::RowMultiset(*r.table());
      continue;
    }
    EXPECT_EQ(r.trace().reuse_mode, ReuseMode::kExact);
    EXPECT_FALSE(LeafOf(plan)->bound());
    EXPECT_EQ(recycledb::testing::RowMultiset(*r.table()), rows);
  }
}

TEST(StatementPipeline, BypassOffAndProactiveNeverProbe) {
  {
    auto db = OpenSalesDb();
    SessionOptions options;
    options.bypass_recycler = true;
    auto bypass = db->Connect(options);
    for (int run = 0; run < 2; ++run) {
      PlanPtr plan = SalesSince(*db, Expr::Literal(int64_t{2008})).plan();
      Result r = bypass->Execute(plan);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_FALSE(r.recycled());
      EXPECT_TRUE(plan->bound());  // validated and bound every time
    }
    EXPECT_EQ(db->recycler().exact_hit_entries(), 0);
    EXPECT_EQ(db->recycler().graph().epoch(), 0);
  }
  for (RecyclerMode mode : {RecyclerMode::kOff, RecyclerMode::kProactive}) {
    SCOPED_TRACE(RecyclerModeName(mode));
    auto db = OpenSalesDb(mode);
    auto session = db->Connect({});
    for (int run = 0; run < 3; ++run) {
      PlanPtr plan = SalesSince(*db, Expr::Literal(int64_t{2008})).plan();
      Result r = session->Execute(plan);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(plan->bound());
    }
    EXPECT_EQ(db->recycler().exact_hit_entries(), 0);
  }
}

TEST(StatementPipeline, PreparedExecuteAndSubmitRepeatsAreServedFromTheIndex) {
  for (RecyclerMode mode :
       {RecyclerMode::kSpeculation, RecyclerMode::kProactive}) {
    SCOPED_TRACE(RecyclerModeName(mode));
    auto db = OpenSalesDb(mode);
    auto session = db->Connect({});
    auto stmt = session->Prepare(SalesSince(*db, Expr::Param("since")));
    ASSERT_NE(stmt, nullptr);
    stmt->Bind("since", int64_t{2008});
    // The template's scan is pre-bound at Prepare and shared by every
    // bound plan. A new table changes no binding; a ReplaceTable makes
    // every binding stale, though it leaves the entry over "sales" alone.
    PlanPtr plan;
    ASSERT_TRUE(stmt->ToPlan(&plan).ok());
    const PlanNode* scan = LeafOf(plan);
    ASSERT_TRUE(stmt->Execute().ok());
    ASSERT_TRUE(db->CreateTable("other", MakeSalesTable(10)).ok());
    ASSERT_TRUE(scan->bound_under(db->catalog()));
    ASSERT_TRUE(db->ReplaceTable("other", MakeSalesTable(10)).ok());
    ASSERT_FALSE(scan->bound_under(db->catalog()));

    const bool probes = mode != RecyclerMode::kProactive;
    Result executed = stmt->Execute();
    ASSERT_TRUE(executed.ok()) << executed.status().ToString();
    Result submitted = stmt->Submit().get();
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    if (probes) {
      EXPECT_EQ(executed.trace().reuse_mode, ReuseMode::kExact);
      EXPECT_EQ(submitted.trace().reuse_mode, ReuseMode::kExact);
    }
    // Proactive mode never probes, so its statements are checked and
    // bound, on copies: the shared scan is never bound again.
    EXPECT_FALSE(scan->bound_under(db->catalog()));
    EXPECT_TRUE(plan->HasStaleBinding(db->catalog()));
    EXPECT_EQ(stmt->stats().executions, 3);
  }
}

TEST(StatementPipeline, FunctionScanRepeatIsServedFromTheIndex) {
  DatabaseOptions options;
  auto db = Database::OpenOrDie(options);
  skyserver::Setup(20000, &db->catalog());
  auto session = db->Connect({});
  auto fresh = [&] {
    return db->FunctionScan("fGetNearbyObjEq",
                            {Expr::Literal(195.0), Expr::Literal(2.5),
                             Expr::Literal(0.5)})
        .plan();
  };
  Result first = session->Execute(fresh());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(db->recycler().exact_hit_entries(), 1);
  PlanPtr repeat = fresh();
  Result hit = session->Execute(repeat);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_EQ(hit.trace().reuse_mode, ReuseMode::kExact);
  EXPECT_FALSE(repeat->bound());
  EXPECT_EQ(hit.schema().Names(), first.schema().Names());
  EXPECT_EQ(recycledb::testing::RowMultiset(*hit.table()),
            recycledb::testing::RowMultiset(*first.table()));
}

// ---------------------------------------------------------------------------
// ReplaceTable: a plan bound under the old schema is checked again
// ---------------------------------------------------------------------------

TablePtr MakeAbTable(bool with_b, bool a_double) {
  std::vector<Field> fields = {
      {"a", a_double ? TypeId::kDouble : TypeId::kInt64}};
  if (with_b) fields.push_back({"b", TypeId::kInt64});
  TablePtr t = MakeTable(Schema(std::move(fields)));
  for (int64_t i = 0; i < 200; ++i) {
    std::vector<Datum> row;
    if (a_double) {
      row.emplace_back(static_cast<double>(i) + 0.5);
    } else {
      row.emplace_back(i);
    }
    if (with_b) row.emplace_back(i * 3);
    t->AppendRow(row);
  }
  return t;
}

PlanPtr AbovePlan() {
  return PlanNode::Select(PlanNode::Scan("t", {"a", "b"}),
                          Expr::Gt(Expr::Column("a"),
                                   Expr::Literal(int64_t{50})));
}

TEST(ReplaceTable, SamePlanAfterADroppedColumnReturnsTheError) {
  auto db = Database::OpenOrDie(DatabaseOptions{});
  ASSERT_TRUE(db->CreateTable("t", MakeAbTable(true, false)).ok());
  auto session = db->Connect({});
  PlanPtr plan = AbovePlan();
  for (int run = 0; run < 2; ++run) ASSERT_TRUE(session->Execute(plan).ok());
  ASSERT_TRUE(db->ReplaceTable("t", MakeAbTable(false, false)).ok());
  Result copy = session->Execute(AbovePlan());
  EXPECT_FALSE(copy.ok());
  EXPECT_NE(copy.status().message().find("unknown column: t.b"),
            std::string::npos)
      << copy.status().ToString();
  Result same = session->Execute(plan);
  EXPECT_FALSE(same.ok());
  EXPECT_NE(same.status().message().find("unknown column: t.b"),
            std::string::npos)
      << same.status().ToString();
}

TEST(ReplaceTable, ConcurrentPreparedMissesBindCopiesOfTheSharedTemplate) {
  // After a ReplaceTable, the template's pre-bound subtrees are stale and
  // shared by every substituted plan. Concurrent misses must not bind
  // them again in place (run under TSan by the concurrency label).
  DatabaseOptions options;
  options.async_threads = 4;
  auto db = Database::OpenOrDie(options);
  ASSERT_TRUE(db->CreateTable("sales", MakeSalesTable()).ok());
  auto session = db->Connect({});
  SessionOptions bypass_options;
  bypass_options.bypass_recycler = true;
  auto bypass = db->Connect(bypass_options);
  auto stmt = session->Prepare(SalesSince(*db, Expr::Param("since")));
  ASSERT_NE(stmt, nullptr);
  ASSERT_TRUE(stmt->Execute({{"since", int64_t{2005}}}).ok());
  ASSERT_TRUE(db->ReplaceTable("sales", MakeSalesTable(5000)).ok());

  std::vector<std::future<Result>> futures;
  for (int64_t since = 2005; since < 2013; ++since) {
    stmt->Bind("since", since);
    futures.push_back(stmt->Submit());
  }
  for (int64_t since = 2005; since < 2013; ++since) {
    SCOPED_TRACE(since);
    Result r = futures[since - 2005].get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    Result truth =
        bypass->Execute(SalesSince(*db, Expr::Literal(since)).plan());
    ASSERT_TRUE(truth.ok()) << truth.status().ToString();
    EXPECT_EQ(recycledb::testing::RowMultiset(*r.table()),
              recycledb::testing::RowMultiset(*truth.table()));
  }
  PlanPtr plan;
  ASSERT_TRUE(stmt->ToPlan(&plan).ok());
  EXPECT_TRUE(plan->HasStaleBinding(db->catalog()));
}

TEST(ReplaceTable, ColumnTypeChangeGivesBypassRowsOrAnError) {
  auto db = Database::OpenOrDie(DatabaseOptions{});
  ASSERT_TRUE(db->CreateTable("t", MakeAbTable(true, false)).ok());
  auto session = db->Connect({});
  SessionOptions bypass_options;
  bypass_options.bypass_recycler = true;
  auto bypass = db->Connect(bypass_options);
  PlanPtr plan = AbovePlan();
  for (int run = 0; run < 2; ++run) ASSERT_TRUE(session->Execute(plan).ok());
  ASSERT_TRUE(db->ReplaceTable("t", MakeAbTable(true, true)).ok());
  for (int run = 0; run < 2; ++run) {
    Result r = session->Execute(plan);
    if (!r.ok()) continue;  // an error is allowed, an abort is not
    Result truth = bypass->Execute(AbovePlan());
    ASSERT_TRUE(truth.ok()) << truth.status().ToString();
    EXPECT_EQ(r.schema().field(0).type, TypeId::kDouble);
    EXPECT_EQ(recycledb::testing::RowMultiset(*r.table()),
              recycledb::testing::RowMultiset(*truth.table()));
  }
}

}  // namespace
}  // namespace recycledb
