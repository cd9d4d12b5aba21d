// Micro-benchmarks (google-benchmark): operator throughput, expression
// evaluation, recycler-graph matching/insertion latency, and the spill
// file's write and read.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>

// Operator-level micro benches are deliberately white-box (they time
// ScanOp and the raw Executor); everything engine-level goes through the
// public umbrella header.
#include "exec/operators.h"
#include "plan/canonicalize.h"
#include "recycledb/recycledb.h"
#include "sql/lower.h"
#include "storage/spill_file.h"
#include "workload/rollup.h"

namespace recycledb {
namespace {

Catalog* SharedCatalog() {
  static Catalog* catalog = [] {
    auto* c = new Catalog();
    Schema s({{"k", TypeId::kInt32},
              {"g", TypeId::kInt32},
              {"v", TypeId::kDouble}});
    TablePtr t = MakeTable(s);
    Rng rng(5);
    for (int i = 0; i < 1 << 20; ++i) {
      t->AppendRow({static_cast<int32_t>(rng.Uniform(0, 1 << 20)),
                    static_cast<int32_t>(rng.Uniform(0, 512)),
                    static_cast<double>(rng.Uniform(0, 100000))});
    }
    (void)c->RegisterTable("big", t);
    return c;
  }();
  return catalog;
}

void RunPlan(PlanPtr plan, benchmark::State& state) {
  Executor exec(SharedCatalog());
  int64_t rows = 0;
  for (auto _ : state) {
    PlanPtr p = plan->CloneShallow();
    p->Bind(*SharedCatalog());
    ExecResult r = exec.Run(p);
    rows += r.table->num_rows();
  }
  benchmark::DoNotOptimize(rows);
  state.SetItemsProcessed(state.iterations() * (1 << 20));
}

void BM_Scan(benchmark::State& state) {
  RunPlan(PlanNode::Scan("big", {"k", "v"}), state);
}
BENCHMARK(BM_Scan)->Unit(benchmark::kMillisecond);

void BM_Filter(benchmark::State& state) {
  RunPlan(PlanNode::Select(
              PlanNode::Scan("big", {"k", "v"}),
              Expr::Lt(Expr::Column("v"), Expr::Literal(1000.0))),
          state);
}
BENCHMARK(BM_Filter)->Unit(benchmark::kMillisecond);

void BM_ProjectArith(benchmark::State& state) {
  RunPlan(PlanNode::Project(
              PlanNode::Scan("big", {"v"}),
              {{Expr::Arith(ArithOp::kMul, Expr::Column("v"),
                            Expr::Literal(1.07)),
                "taxed"}}),
          state);
}
BENCHMARK(BM_ProjectArith)->Unit(benchmark::kMillisecond);

void BM_HashAgg512Groups(benchmark::State& state) {
  RunPlan(PlanNode::Aggregate(PlanNode::Scan("big", {"g", "v"}), {"g"},
                              {{AggFunc::kSum, Expr::Column("v"), "sv"}}),
          state);
}
BENCHMARK(BM_HashAgg512Groups)->Unit(benchmark::kMillisecond);

void BM_TopN100(benchmark::State& state) {
  RunPlan(PlanNode::TopN(PlanNode::Scan("big", {"v"}), {{"v", false}}, 100),
          state);
}
BENCHMARK(BM_TopN100)->Unit(benchmark::kMillisecond);

// Hash join: 64k probe rows against a build side of range(0) rows whose
// keys repeat range(1) times (1 = unique, 8 = 8-way duplicates), on int64
// (range(2) = 0) or string (range(2) = 1) keys. Every probe key is drawn
// from the build side's keys, so each probe row emits range(1) rows.
TablePtr JoinInput(const std::string& prefix, int64_t rows, int64_t distinct,
                   bool string_keys, bool random_keys, uint64_t seed) {
  TablePtr t = MakeTable(
      Schema({{prefix + "k", string_keys ? TypeId::kString : TypeId::kInt64},
              {prefix + "v", TypeId::kInt64}}));
  Rng rng(seed);
  for (int64_t i = 0; i < rows; ++i) {
    const int64_t v = random_keys ? rng.Uniform(0, distinct - 1) : i % distinct;
    const Datum key = string_keys ? Datum("key-" + std::to_string(v * 7919))
                                  : Datum(v * 7919);
    t->AppendRow({key, i});
  }
  return t;
}

void BM_HashJoin(benchmark::State& state) {
  const int64_t build_rows = state.range(0);
  const int64_t distinct = build_rows / state.range(1);
  const bool string_keys = state.range(2) == 1;
  TablePtr build = JoinInput("b", build_rows, distinct, string_keys,
                             /*random_keys=*/false, 11);
  TablePtr probe = JoinInput("p", 1 << 16, distinct, string_keys,
                             /*random_keys=*/true, 13);
  std::vector<Field> fields = probe->schema().fields();
  for (const Field& f : build->schema().fields()) fields.push_back(f);
  const Schema out_schema(fields);
  int64_t rows = 0;
  for (auto _ : state) {
    HashJoinOp join(out_schema,
                    std::make_unique<ScanOp>(probe->schema(), probe,
                                             std::vector<int>{0, 1}),
                    std::make_unique<ScanOp>(build->schema(), build,
                                             std::vector<int>{0, 1}),
                    JoinKind::kInner, {"pk"}, {"bk"});
    join.Open();
    Batch b;
    while (join.Next(&b)) rows += b.num_rows;
    join.Close();
  }
  benchmark::DoNotOptimize(rows);
  state.SetItemsProcessed(state.iterations() * (1 << 16));
}
BENCHMARK(BM_HashJoin)
    ->Args({1 << 10, 1, 0})
    ->Args({1 << 10, 8, 0})
    ->Args({1 << 16, 1, 0})
    ->Args({1 << 16, 8, 0})
    ->Args({1 << 10, 1, 1})
    ->Args({1 << 10, 8, 1})
    ->Args({1 << 16, 1, 1})
    ->Args({1 << 16, 8, 1})
    ->Unit(benchmark::kMillisecond);

// Matching + insertion cost as a function of recycler-graph size
// (the Fig. 10 quantity, isolated).
void BM_MatchAgainstGraph(benchmark::State& state) {
  DatabaseOptions options;
  options.recycler.mode = RecyclerMode::kHistory;
  options.recycler.cache_bytes = 0;
  auto db = Database::OpenOrDie(options);
  for (const auto& name : SharedCatalog()->TableNames()) {
    (void)db->CreateTable(name, SharedCatalog()->GetTable(name));
  }
  Recycler& rec = db->recycler();  // Prepare-only: white-box by design
  // Pre-populate the graph with `range(0)` distinct select chains.
  for (int i = 0; i < state.range(0); ++i) {
    rec.Prepare(PlanNode::Select(
        PlanNode::Scan("big", {"k", "v"}),
        Expr::Eq(Expr::Column("k"), Expr::Literal(int64_t{i}))));
  }
  PlanPtr probe = PlanNode::Select(
      PlanNode::Scan("big", {"k", "v"}),
      Expr::Eq(Expr::Column("k"), Expr::Literal(int64_t{0})));
  for (auto _ : state) {
    auto prepared = rec.Prepare(probe->CloneShallow());
    benchmark::DoNotOptimize(prepared);
  }
}
BENCHMARK(BM_MatchAgainstGraph)->Arg(10)->Arg(100)->Arg(1000);

// A miss against a growing graph: `range(0)` never-materialized sibling
// range selections and 100 cached ones over one scan, then a range
// selection that no cached slice subsumes or overlaps. Its Prepare runs
// both derived-reuse lookups and should cost what can match (the 100
// cached siblings), not what the graph holds.
void BM_PrepareMissWithSiblings(benchmark::State& state) {
  DatabaseOptions options;
  options.recycler.mode = RecyclerMode::kHistory;
  auto db = Database::OpenOrDie(options);
  TablePtr table = MakeTable(Schema({{"k", TypeId::kInt32},
                                     {"v", TypeId::kDouble}}));
  for (int i = 0; i < 4096; ++i) {
    table->AppendRow({int32_t{i % 64}, static_cast<double>(i)});
  }
  (void)db->CreateTable("small", table);
  auto slice = [](double lo) {
    return PlanNode::Select(
        PlanNode::Scan("small", {"k", "v"}),
        Expr::And(Expr::Ge(Expr::Column("v"), Expr::Literal(lo)),
                  Expr::Lt(Expr::Column("v"), Expr::Literal(lo + 1))));
  };
  Recycler& rec = db->recycler();  // Prepare-only: white-box by design
  // History mode materializes a result on its second run and never one
  // that only went through Prepare.
  for (int i = 0; i < 100; ++i) {
    for (int run = 0; run < 2; ++run) rec.Execute(slice(i * 10.0));
  }
  for (int64_t i = 0; i < state.range(0); ++i) {
    rec.Prepare(slice(2000.0 + static_cast<double>(i) * 0.5));
  }
  PlanPtr probe = slice(1500.0);
  for (auto _ : state) {
    auto prepared = rec.Prepare(probe->CloneShallow());
    benchmark::DoNotOptimize(prepared);
  }
  state.counters["cached"] =
      static_cast<double>(rec.graph().Stats().num_cached);
}
BENCHMARK(BM_PrepareMissWithSiblings)->Arg(1000)->Arg(10000);

// A miss of the `distinct_miss` e2e workload's shape: `range(0)` cached
// five-conjunct boxes over one scan (a ship fortnight, a quantity band,
// a discount half), then a probe box disjoint from every one of them.
// Its Prepare runs both derived-reuse lookups, which find nothing; the
// conjunct signatures should reject most candidates without comparing a
// key, so /1000 should stay within 1.5x of /100.
void BM_PrepareMissBoxes(benchmark::State& state) {
  DatabaseOptions options;
  options.recycler.mode = RecyclerMode::kHistory;
  auto db = Database::OpenOrDie(options);
  const int64_t boxes = state.range(0);
  const int64_t fortnights = boxes / 10;  // 5 bands x 2 halves each
  TablePtr table = MakeTable(Schema({{"shipdate", TypeId::kInt32},
                                     {"quantity", TypeId::kDouble},
                                     {"discount", TypeId::kDouble},
                                     {"price", TypeId::kDouble}}));
  Rng rng(11);
  for (int i = 0; i < 8192; ++i) {
    table->AppendRow(
        {static_cast<int32_t>(rng.Uniform(0, fortnights * 14 - 1)),
         static_cast<double>(rng.Uniform(1, 60)),
         static_cast<double>(rng.Uniform(0, 10)) / 100.0,
         static_cast<double>(rng.Uniform(100, 10000))});
  }
  (void)db->CreateTable("boxes", table);
  auto box = [](int64_t fortnight, int band, bool high_discount) {
    const ExprPtr date = Expr::Column("shipdate");
    const ExprPtr qty = Expr::Column("quantity");
    const ExprPtr disc = Expr::Column("discount");
    const int32_t day = static_cast<int32_t>(fortnight * 14);
    return PlanNode::Select(
        PlanNode::Scan("boxes", {"shipdate", "quantity", "discount", "price"}),
        AndAll({Expr::Ge(date, Expr::Literal(day)),
                Expr::Lt(date, Expr::Literal(day + 14)),
                Expr::Ge(qty, Expr::Literal(band * 10.0 + 1)),
                Expr::Lt(qty, Expr::Literal(band * 10.0 + 11)),
                high_discount ? Expr::Ge(disc, Expr::Literal(0.05))
                              : Expr::Lt(disc, Expr::Literal(0.05))}));
  };
  Recycler& rec = db->recycler();  // Prepare-only: white-box by design
  // History mode materializes a result on its second run and never one
  // that only went through Prepare.
  for (int64_t i = 0; i < boxes; ++i) {
    for (int run = 0; run < 2; ++run) {
      rec.Execute(box(i / 10, static_cast<int>(i % 5), (i / 5) % 2 == 1));
    }
  }
  // Quantity band 5 (51-60) is no cached box's.
  PlanPtr probe = box(fortnights / 2, 5, false);
  for (auto _ : state) {
    auto prepared = rec.Prepare(probe->CloneShallow());
    benchmark::DoNotOptimize(prepared);
  }
  state.counters["cached"] =
      static_cast<double>(rec.graph().Stats().num_cached);
}
BENCHMARK(BM_PrepareMissBoxes)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

// A speculative store into a full cache: a root selection whose 16
// result batches (128 of each 1024 scanned rows) are buffered one by
// one, each checked against the cache before the next, then offered.
// The candidate's size group holds 512 cached selections of its shape
// that read a cached projection, so their benefit counts only their own
// filter: every check passes and the offer evicts one of them. Each
// iteration starts over with a fresh recycler, filled outside the timer.
void BM_SpeculativeStoreFullCache(benchmark::State& state) {
  constexpr int kFillers = 512;
  constexpr int64_t kRows = 16 * kDefaultBatchRows;
  Catalog catalog;
  TablePtr table = MakeTable(Schema({{"v", TypeId::kInt64},
                                     {"g", TypeId::kInt32}}));
  for (int64_t i = 0; i < kRows; ++i) {
    table->AppendRow({i, static_cast<int32_t>(i % 8)});
  }
  (void)catalog.RegisterTable("spec", table);
  const ExprPtr v = Expr::Column("v");
  const ExprPtr g = Expr::Column("g");
  auto scan = [] { return PlanNode::Scan("spec", {"v", "g"}); };
  auto eighth = [&](PlanPtr child, int32_t group, int64_t other) {
    return PlanNode::Select(
        std::move(child),
        Expr::And(Expr::Eq(g, Expr::Literal(group)),
                  Expr::Ne(v, Expr::Literal(other))));
  };
  auto projection = [&] {
    return PlanNode::Project(scan(), {{v, "v"}, {g, "g"}});
  };
  RecyclerConfig config;
  config.mode = RecyclerMode::kSpeculation;
  // The projection and the fillers, with less room left than one more.
  config.cache_bytes = kRows * 12 + (kFillers + 1) * (kRows / 8) * 12 - 4096;
  int64_t materialized = 0, aborted = 0, cached = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto rec = std::make_unique<Recycler>(&catalog, config);
    rec->Execute(projection());
    for (int i = 0; i < kFillers; ++i) {
      rec->Execute(eighth(projection(), 1, -1 - i));
    }
    PlanPtr candidate = eighth(scan(), 0, -1);
    state.ResumeTiming();
    QueryTrace trace;
    ExecResult result = rec->Execute(candidate, &trace);
    benchmark::DoNotOptimize(result);
    materialized += trace.num_materialized;
    aborted += trace.num_spec_aborted;
    state.PauseTiming();
    cached = rec->graph().Stats().num_cached;
    rec.reset();
    state.ResumeTiming();
  }
  // 1.0 and 0.0 when every candidate passed its checks and was admitted.
  state.counters["materialized"] = benchmark::Counter(
      static_cast<double>(materialized), benchmark::Counter::kAvgIterations);
  state.counters["spec_aborted"] = benchmark::Counter(
      static_cast<double>(aborted), benchmark::Counter::kAvgIterations);
  state.counters["cached"] = static_cast<double>(cached);
}
BENCHMARK(BM_SpeculativeStoreFullCache)
    ->Iterations(30)
    ->Unit(benchmark::kMicrosecond);

/// The TPC-H catalog the exact-hit benches share (SF 0.002).
constexpr double kHitSf = 0.002;
Catalog* HitCatalog() {
  static Catalog* catalog = [] {
    auto* c = new Catalog();
    tpch::Generate(kHitSf, c);
    return c;
  }();
  return catalog;
}

// A statement's first repeat: Prepare, run and OnComplete of the second
// execution of TPC-H Q3, whose first execution cached its root. Each
// iteration starts over with a fresh recycler and that first execution,
// outside the timer; the fixed iteration count keeps that untimed work
// to a few seconds.
void BM_ExactHitFirstRepeat(benchmark::State& state) {
  Catalog* catalog = HitCatalog();
  Rng rng(3);
  const tpch::QueryParams params = tpch::GenerateParams(3, &rng, kHitSf);
  int64_t hits = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto rec = std::make_unique<Recycler>(catalog, RecyclerConfig{});
    rec->Execute(tpch::BuildQuery(3, params, kHitSf));
    PlanPtr repeat = tpch::BuildQuery(3, params, kHitSf);
    state.ResumeTiming();
    QueryTrace trace;
    ExecResult result = rec->Execute(repeat, &trace);
    benchmark::DoNotOptimize(result);
    hits += trace.reuse_mode == ReuseMode::kExact ? 1 : 0;
    state.PauseTiming();
    rec.reset();
    state.ResumeTiming();
  }
  // 1.0 when every timed run was a root exact hit.
  state.counters["exact"] = benchmark::Counter(
      static_cast<double>(hits), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ExactHitFirstRepeat)
    ->Iterations(2000)
    ->Unit(benchmark::kMicrosecond);

// The exact-hit index key of a TPC-H plan (Arg = query number): the
// plan's tree key, then the names it introduces.
// Every statement pays it once before the probe; a miss pays it on top
// of the full path.
void BM_ExactHitKey(benchmark::State& state) {
  Rng rng(3);
  const int q = static_cast<int>(state.range(0));
  const tpch::QueryParams params = tpch::GenerateParams(q, &rng, kHitSf);
  PlanPtr plan = tpch::BuildQuery(q, params, kHitSf);
  plan->Bind(*HitCatalog());
  size_t bytes = 0;
  for (auto _ : state) {
    StatementKey key = Recycler::ExactHitKey(*plan);
    bytes = key.text.size();
    benchmark::DoNotOptimize(key);
  }
  state.counters["key_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_ExactHitKey)->Arg(3)->Arg(9)->Unit(benchmark::kMicrosecond);

// A repeated statement through the public API: Session::Execute of a
// fresh, unbound copy of TPC-H Q3 whose root an earlier run cached. The
// timed call includes everything a client pays, validation and
// canonicalization too when the statement is not served before them.
void BM_SessionRepeatHit(benchmark::State& state) {
  auto db = Database::OpenOrDie(DatabaseOptions{});
  for (const std::string& name : HitCatalog()->TableNames()) {
    (void)db->CreateTable(name, HitCatalog()->GetTable(name));
  }
  auto session = db->Connect({});
  Rng rng(3);
  const tpch::QueryParams params = tpch::GenerateParams(3, &rng, kHitSf);
  (void)session->Execute(tpch::BuildQuery(3, params, kHitSf));
  int64_t hits = 0;
  PlanPtr repeat;
  Result result;
  for (auto _ : state) {
    // The previous plan and result are freed outside the timer.
    state.PauseTiming();
    result = Result();
    repeat = tpch::BuildQuery(3, params, kHitSf);
    state.ResumeTiming();
    result = session->Execute(repeat);
    hits += result.trace().reuse_mode == ReuseMode::kExact ? 1 : 0;
    benchmark::DoNotOptimize(result);
  }
  // 1.0 when every timed run was a root exact hit.
  state.counters["exact"] = benchmark::Counter(
      static_cast<double>(hits), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SessionRepeatHit)->Unit(benchmark::kMicrosecond);

// A delta stitch after a 20-row append (Arg = rows before it): the
// rollup threshold Select that keeps half the rows, whose first run
// cached its root, runs again as its cached prefix followed by a scan of
// the 20 new rows, and re-admits the refreshed result. Each iteration
// starts over with a fresh database, the first run and the append,
// outside the timer.
void BM_DeltaStitchSelect(benchmark::State& state) {
  rollup::RollupOptions ropt;
  ropt.initial_rows = state.range(0);
  const TablePtr events = rollup::MakeBatch(ropt.initial_rows, 0, ropt);
  const TablePtr append = rollup::MakeBatch(20, ropt.initial_rows, ropt);
  const std::string sql =
      "SELECT ts, sensor, value FROM events WHERE value >= 500.0";
  int64_t stitches = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto db = Database::OpenOrDie(DatabaseOptions{});
    (void)db->CreateTable("events", events);
    (void)db->Sql(sql);
    (void)db->AppendTable("events", *append);
    state.ResumeTiming();
    Result result = db->Sql(sql);
    stitches += result.trace().num_delta_reuses;
    benchmark::DoNotOptimize(result);
    state.PauseTiming();
    result = Result();
    db.reset();
    state.ResumeTiming();
  }
  // 1.0 when every timed run was a delta stitch.
  state.counters["delta"] = benchmark::Counter(
      static_cast<double>(stitches), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_DeltaStitchSelect)
    ->Arg(10000)
    ->Arg(40000)
    ->Iterations(500)
    ->Unit(benchmark::kMicrosecond);

// The rollup statement that sums, counts and averages per sensor, over a
// 20,000-row events table.
const std::string& RollupAggSql() {
  static const std::string sql = rollup::RollupSql(rollup::RollupOptions{})[0];
  return sql;
}

// A repeated rollup statement after a 20-row append, through Session::Sql:
// its root, cached by an earlier run, is stale by the appended rows, so
// the run is an aggregate merge. Each append runs outside the timer, and
// so do the first run and a first refresh, which registers the root's
// plan in the exact-hit index once the table grows.
void BM_RollupSqlRepeatAfterAppend(benchmark::State& state) {
  rollup::RollupOptions ropt;
  ropt.initial_rows = 20000;
  auto db = Database::OpenOrDie(DatabaseOptions{});
  (void)db->CreateTable("events", rollup::MakeBatch(ropt.initial_rows, 0, ropt));
  (void)db->Sql(RollupAggSql());
  int64_t rows = ropt.initial_rows;
  (void)db->AppendTable("events", *rollup::MakeBatch(20, rows, ropt));
  rows += 20;
  (void)db->Sql(RollupAggSql());
  int64_t merges = 0, served = 0;
  Result result;
  for (auto _ : state) {
    state.PauseTiming();
    result = Result();
    (void)db->AppendTable("events", *rollup::MakeBatch(20, rows, ropt));
    rows += 20;
    state.ResumeTiming();
    result = db->Sql(RollupAggSql());
    merges += result.trace().num_agg_merges;
    served += result.trace().num_index_served;
    benchmark::DoNotOptimize(result);
  }
  // 1.0 when every timed run was an aggregate merge / served from the
  // exact-hit index.
  state.counters["agg_merge"] = benchmark::Counter(
      static_cast<double>(merges), benchmark::Counter::kAvgIterations);
  state.counters["index_served"] = benchmark::Counter(
      static_cast<double>(served), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_RollupSqlRepeatAfterAppend)->Unit(benchmark::kMicrosecond);

// The front end a statement runs before the recycler matches it: lex,
// parse and lower, validate, canonicalize, and the canonical plan's
// exact-hit key. A repeat served by its SQL text skips all of it.
void BM_RollupSqlFrontEnd(benchmark::State& state) {
  Catalog catalog;
  rollup::RollupOptions ropt;
  (void)catalog.RegisterTable("events", rollup::MakeBatch(2000, 0, ropt));
  for (auto _ : state) {
    PlanPtr plan;
    (void)sql::SqlToPlan(RollupAggSql(), catalog, &plan);
    (void)ValidatePlan(plan, catalog, nullptr);
    PlanPtr canonical = CanonicalizeKeepingTemplate(plan);
    StatementKey key = Recycler::ExactHitKey(*canonical);
    benchmark::DoNotOptimize(key);
  }
}
BENCHMARK(BM_RollupSqlFrontEnd)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Zero-copy reuse path: scanning a cached 1M-row result (int64 + string
// columns), copy-per-batch (the seed behaviour) vs. view-per-batch (what
// ScanOp does now). Tracks the recycler's O(1)-per-batch reuse win.
// ---------------------------------------------------------------------------

TablePtr CachedResultTable() {
  static TablePtr table = [] {
    TablePtr t = MakeTable(
        Schema({{"id", TypeId::kInt64}, {"tag", TypeId::kString}}));
    Rng rng(7);
    for (int64_t i = 0; i < 1 << 20; ++i) {
      t->AppendRow({i, "object-" + std::to_string(rng.Uniform(0, 1 << 16))});
    }
    return t;
  }();
  return table;
}

void BM_CopyScanCachedResult(benchmark::State& state) {
  TablePtr t = CachedResultTable();
  int64_t sum = 0;
  for (auto _ : state) {
    Batch out;
    for (int64_t pos = 0; pos < t->num_rows(); pos += kDefaultBatchRows) {
      int64_t count = std::min(kDefaultBatchRows, t->num_rows() - pos);
      out.Clear();
      for (int c = 0; c < t->num_columns(); ++c) {
        ColumnPtr col = MakeColumn(t->schema().field(c).type);
        col->AppendRange(*t->column(c), pos, count);
        out.columns.push_back(std::move(col));
      }
      out.num_rows = count;
      sum += out.columns[0]->Raw<int64_t>()[0];
    }
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations() * t->num_rows());
}
BENCHMARK(BM_CopyScanCachedResult)->Unit(benchmark::kMillisecond);

void BM_ViewScanCachedResult(benchmark::State& state) {
  TablePtr t = CachedResultTable();
  int64_t sum = 0;
  for (auto _ : state) {
    ScanOp scan(t->schema(), t, {0, 1});
    scan.Open();
    Batch out;
    while (scan.Next(&out)) {
      sum += out.columns[0]->Raw<int64_t>()[0];
    }
    scan.Close();
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations() * t->num_rows());
}
BENCHMARK(BM_ViewScanCachedResult)->Unit(benchmark::kMillisecond);

// The named and the positional parameter key of one Aggregate node (the
// exact-hit key's and the graph match's encodings of the same params).
void BM_PlanKey(benchmark::State& state) {
  PlanPtr plan = PlanNode::Aggregate(
      PlanNode::Select(
          PlanNode::Scan("big", {"k", "g", "v"}),
          Expr::And(Expr::Gt(Expr::Column("v"), Expr::Literal(10.0)),
                    Expr::Lt(Expr::Column("k"), Expr::Literal(int64_t{99})))),
      {"g"}, {{AggFunc::kSum, Expr::Column("v"), "sv"}});
  plan->Bind(*SharedCatalog());
  for (auto _ : state) {
    std::string named, positional;
    plan->AppendParamKey(&named, /*positional=*/false);
    plan->AppendParamKey(&positional, /*positional=*/true);
    benchmark::DoNotOptimize(named);
    benchmark::DoNotOptimize(positional);
  }
}
BENCHMARK(BM_PlanKey);

// Canonicalization of a left-deep n-term OR chain of distinct terms, as
// the parser builds one: each operand is canonicalized once, then the
// operands are sorted and deduplicated by key (n log n).
void BM_CanonicalizeOrChain(benchmark::State& state) {
  ExprPtr chain;
  for (int64_t i = 0; i < state.range(0); ++i) {
    ExprPtr term = Expr::Eq(Expr::Column("x"), Expr::Literal(i));
    chain = chain == nullptr ? term : Expr::Or(chain, term);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(CanonicalizeExpr(chain));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CanonicalizeOrChain)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond)
    ->Complexity(benchmark::oNLogN);

// ---------------------------------------------------------------------------
// Cold-tier file path: one spill file of a 5,000-row SkyServer-shaped
// result (an int64 id, eight doubles, three int32), written with the
// default compression and read back with its checksum verified. Bytes
// processed are the raw column image (SpillFileMeta::raw_bytes).
// ---------------------------------------------------------------------------

TablePtr SkyShapedTable() {
  static TablePtr table = [] {
    std::vector<Field> fields = {{"objID", TypeId::kInt64}};
    for (const char* d : {"ra", "dec", "u", "g", "r", "i", "z", "extinction"}) {
      fields.push_back({d, TypeId::kDouble});
    }
    for (const char* c : {"run", "camcol", "type"}) {
      fields.push_back({c, TypeId::kInt32});
    }
    TablePtr t = MakeTable(Schema(std::move(fields)));
    Rng rng(11);
    for (int64_t i = 0; i < 5000; ++i) {
      std::vector<Datum> row = {int64_t{1237645876861272064} + i * 17};
      for (int d = 0; d < 8; ++d) row.push_back(rng.NextDouble() * 360.0);
      row.push_back(static_cast<int32_t>(94 + i / 1000));
      row.push_back(static_cast<int32_t>(1 + rng.Uniform(0, 5)));
      row.push_back(static_cast<int32_t>(rng.Uniform(0, 1) == 0 ? 3 : 6));
      t->AppendRow(row);
    }
    return t;
  }();
  return table;
}

SpillFileMeta SkyShapedMeta(const Table& t) {
  SpillFileMeta meta;
  meta.canon_key = "bench";
  meta.column_names = t.schema().Names();
  for (const Field& f : t.schema().fields()) {
    meta.column_types.push_back(f.type);
  }
  meta.num_rows = t.num_rows();
  return meta;
}

/// A spill path in the temp directory ($TMPDIR), unique to the process.
std::string BenchSpillPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("rdb-bench-" + std::to_string(::getpid()) + "-" + name))
      .string();
}

void BM_SpillWrite(benchmark::State& state) {
  const TablePtr t = SkyShapedTable();
  const SpillFileMeta meta = SkyShapedMeta(*t);
  const std::string path = BenchSpillPath("w.spill");
  SpillWriteInfo info;
  for (auto _ : state) {
    Status st = WriteSpillFile(path, *t, meta, {}, &info);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    benchmark::DoNotOptimize(info);
  }
  std::remove(path.c_str());
  state.SetBytesProcessed(state.iterations() * info.raw_bytes);
  state.counters["file_kb"] = static_cast<double>(info.file_bytes) / 1024;
}
BENCHMARK(BM_SpillWrite)->Unit(benchmark::kMicrosecond);

void BM_SpillRead(benchmark::State& state) {
  const TablePtr t = SkyShapedTable();
  const std::string path = BenchSpillPath("r.spill");
  SpillWriteInfo info;
  Status st = WriteSpillFile(path, *t, SkyShapedMeta(*t), {}, &info);
  if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  for (auto _ : state) {
    SpillFileMeta meta;
    TablePtr back;
    st = ReadSpillTable(path, &meta, &back);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    benchmark::DoNotOptimize(back);
  }
  std::remove(path.c_str());
  state.SetBytesProcessed(state.iterations() * info.raw_bytes);
}
BENCHMARK(BM_SpillRead)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace recycledb

BENCHMARK_MAIN();
