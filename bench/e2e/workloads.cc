// The four end-to-end workloads. Each generates its load in-process from
// --seed, drives it through closed-loop clients, checks every answer
// against a recycler-bypass run, and fills the run's Report. README.md
// says why each workload exists and which layers it is meant to stress.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <thread>

#include "common/string_util.h"
#include "harness.h"
#include "workload/rollup.h"

namespace recycledb {
namespace e2e {

namespace fs = std::filesystem;

namespace {

constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ull;

/// Set-up repetitions per run; setup_s is their median. Cheap set-ups
/// repeat more, to steady a median of a few milliseconds.
constexpr int kSetupRepeats = 3;
constexpr int kCheapSetupRepeats = 9;

/// Host probe runs per HostProbe::Run call. Each workload calls it at
/// 5-10 points spread over its timed phase, between ops (the op-pair
/// loops every kProbeEveryPairs pairs), so that the probe meets the
/// host as the ops did.
constexpr int kProbeReps = 10;
constexpr int64_t kProbeEveryPairs = 100;

using TableList = std::vector<std::pair<std::string, TablePtr>>;

TableList TablesOf(const Catalog& catalog) {
  TableList tables;
  for (const std::string& name : catalog.TableNames()) {
    tables.emplace_back(name, catalog.GetTable(name));
  }
  return tables;
}

std::unique_ptr<Session> BypassSession(Database* db) {
  SessionOptions options;
  options.bypass_recycler = true;
  return db->Connect(options);
}

template <typename T>
void SeededShuffle(std::vector<T>* v, uint64_t seed) {
  Rng rng(seed ^ kGolden);
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1],
              (*v)[rng.Uniform(0, static_cast<int64_t>(i) - 1)]);
  }
}

/// The bypass latencies of a run's timed statements: one entry per
/// bypass run, weighted by the number of timed statements it stands for
/// (1 where every statement runs on bypass; more where the oracle
/// samples).
struct BypassLatencies {
  std::vector<double> ms;
  std::vector<double> weight;

  void Add(double latency_ms, double w = 1) {
    ms.push_back(latency_ms);
    weight.push_back(w);
  }
};

/// Fills the end-to-end metrics every workload reports, except setup_s
/// (SetUp) and peak_rss_mb (AddPeakRss). On a shared host the machine's
/// wall-clock speed drifts by up to 30% between runs made hours apart,
/// so the gated speed metrics divide by a reference measured in the
/// same run.
/// The *_vs_bypass ones compare the timed statements with bypass runs of
/// the same statements: the recycler's gain or cost, blind to the layers
/// both sides run. op_cpu_vs_probe compares the ops' CPU time with the
/// host probe's, which runs no engine code: it moves when any layer does
/// more work. The absolute wall-clock numbers are printed, not gated.
void AddEndToEnd(const Tally& tally, double throughput,
                 const BypassLatencies& bypass, const HostProbe& probe,
                 Report* report) {
  const double p50 = Percentile(tally.stmt_ms, 50);
  const double p99 = Percentile(tally.stmt_ms, 99);
  double recycler_ms = 0, bypass_ms = 0, bypass_n = 0;
  for (double v : tally.stmt_ms) recycler_ms += v;
  for (size_t i = 0; i < bypass.ms.size(); ++i) {
    bypass_ms += bypass.ms[i] * bypass.weight[i];
    bypass_n += bypass.weight[i];
  }
  const double bypass_mean = bypass_n > 0 ? bypass_ms / bypass_n : 0;
  const double recycler_mean =
      recycler_ms / std::max<int64_t>(1, tally.statements());
  const double cpu_ms_per_op =
      tally.cpu_ns / 1e6 / std::max<int64_t>(1, tally.attempted);
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  auto& m = report->end_to_end;
  m["stmt_p50_vs_bypass"] = {
      ratio(p50, WeightedPercentile(bypass.ms, bypass.weight, 50)), "ratio"};
  m["stmt_p99_vs_bypass"] = {
      ratio(p99, WeightedPercentile(bypass.ms, bypass.weight, 99)), "ratio"};
  m["stmt_mean_vs_bypass"] = {ratio(recycler_mean, bypass_mean), "ratio"};
  m["op_cpu_vs_probe"] = {ratio(cpu_ms_per_op, probe.MedianCpuMs()), "ratio"};
  auto& x = report->extra;
  x["throughput_ops_s"] = {throughput, "ops/s"};
  x["stmt_p50_ms"] = {p50, "ms"};
  x["stmt_p99_ms"] = {p99, "ms"};
  x["bypass_mean_ms"] = {bypass_mean, "ms"};
  x["cpu_ms_per_op"] = {cpu_ms_per_op, "ms"};
  x["probe_cpu_ms"] = {probe.MedianCpuMs(), "ms"};
  x["rounding_only_answers"] = {1.0 * tally.rounding_only, "count"};
  report->attempted = tally.attempted;
  report->failed = tally.failed;
}

/// peak_rss_mb: the process's peak resident set when the timed phase
/// ends, before any oracle work that follows it.
void AddPeakRss(Report* report) {
  report->end_to_end["peak_rss_mb"] = {PeakRssMb(), "MB"};
}

/// Ends the run: the final close (a span under its own root), then the
/// metrics that need the whole run. `counters` are the timed phase's;
/// the closed instance's own counters are added to them when
/// `add_closed` (its whole life was timed).
void Finish(std::unique_ptr<Database>* db, bool traced, const Tally& tally,
            Counters counters, bool add_closed, SpanLog* log,
            Report* report) {
  const GraphStats graph = (*db)->graph_stats();
  {
    const int64_t op = log->NewOp();
    SpanScope close(log, "close", op);
    Counters closed;
    Close(db, traced, log, op, close.id(), &closed);
    if (add_closed) counters += closed;
  }
  AddLayerMetrics(*log, tally, counters, graph, report);
}

// ---------------------------------------------------------------------------
// tpch_streams
// ---------------------------------------------------------------------------

constexpr double kTpchScale = 0.05;
constexpr int kTpchClients = 4;
constexpr int kTpchWarmupRounds = 8;
constexpr int64_t kTpchTimedRounds = 50;
/// The timed rounds run in segments; after each, the oracle checks a
/// sample of the segment's statements. Bypass latencies are thus
/// measured within seconds of the statements they are compared with.
constexpr int kTpchSegments = 5;
/// Distinct plans re-run on bypass per query template and segment: a
/// seeded sample, since a bypass run of one plan costs ~50 ms and a run
/// makes ~2000 distinct plans.
constexpr size_t kTpchVerifyPerTemplate = 2;

struct StreamStatement {
  PlanPtr plan;
  const std::string* label = nullptr;  // the qgen template, "Q1".."Q22"
  uint64_t fingerprint = 0;
  ReuseMode mode = ReuseMode::kNone;
  Answer answer;
};

Status RunTpchStreams(const Args& args, Report* report) {
  const bool traced = !args.trace_path.empty();

  Catalog data;
  tpch::Generate(kTpchScale, &data, args.seed);
  const std::vector<workload::StreamSpec> streams = tpch::MakeStreams(
      static_cast<int>((kTpchWarmupRounds + kTpchTimedRounds) * kTpchClients),
      kTpchScale, args.seed);

  DatabaseOptions options;
  options.recycler.mode = RecyclerMode::kSpeculation;
  // Large enough that the run's working set never evicts: a full cache
  // under concurrent streams can crash PlanEviction (README, "Known
  // defects").
  options.recycler.cache_bytes = 2ll << 30;
  SpanLog log;
  std::unique_ptr<Database> db =
      SetUp(options, TablesOf(data), kSetupRepeats, &log, report);
  if (db == nullptr) return Status::Internal("set-up failed");

  // Client c runs one permutation stream per round: streams c, c + 4,
  // c + 8, ... The warm-up rounds run untraced and untimed.
  std::vector<SpanLog> logs;
  for (int c = 0; c < kTpchClients; ++c) logs.emplace_back((c + 1ll) << 40);
  std::vector<Tally> tallies(kTpchClients);
  std::vector<std::vector<StreamStatement>> done(kTpchClients);
  auto run_clients = [&](int64_t first, int64_t last, bool timed) {
    std::vector<std::thread> threads;
    for (int c = 0; c < kTpchClients; ++c) {
      threads.emplace_back([&, c, first, last, timed] {
        SpanLog scratch;
        Client client(db.get(), timed ? &logs[c] : &scratch, timed && traced);
        for (int64_t r = first; r < last; ++r) {
          const workload::StreamSpec& stream = streams[r * kTpchClients + c];
          for (size_t i = 0; i < stream.plans.size(); ++i) {
            double ms = 0;
            Result result = client.Execute(stream.plans[i], &ms);
            if (!timed) {
              if (!result.ok()) ++tallies[c].failed;
              continue;
            }
            tallies[c].AddStatement(result, ms);
            done[c].push_back({stream.plans[i], &stream.labels[i],
                               result.trace().plan_fingerprint,
                               result.trace().reuse_mode, AnswerOf(result)});
          }
        }
      });
    }
    for (auto& t : threads) t.join();
  };

  // Oracle for one segment: per query template, a seeded sample of the
  // segment's distinct plans. Each sampled plan runs once on bypass,
  // compared with every answer it gave in the segment, and stands for
  // its template's statements of the segment in the bypass latencies
  // (the plans of one template differ in cost far less than templates
  // do). The bypass runs use 4 clients too, so both sides are measured
  // under the same contention.
  Tally oracle;
  BypassLatencies bypass_latency;
  int64_t verified_plans = 0;
  auto verify_segment = [&](uint64_t sample_seed) {
    struct Sampled {
      std::string label;
      uint64_t fingerprint = 0;
      PlanPtr plan;
      double weight = 0;
      Answer expected;
      double ms = 0;
    };
    std::map<std::string,
             std::map<uint64_t, std::vector<const StreamStatement*>>>
        plans_of;
    std::map<std::string, int64_t> statements_of;
    for (const auto& client : done) {
      for (const StreamStatement& s : client) {
        ++statements_of[*s.label];
        if (s.answer.ok) plans_of[*s.label][s.fingerprint].push_back(&s);
      }
    }
    std::vector<Sampled> sampled;
    for (const auto& [label, plans] : plans_of) {
      std::vector<uint64_t> sample;
      for (const auto& entry : plans) sample.push_back(entry.first);
      SeededShuffle(&sample, sample_seed);
      sample.resize(std::min(sample.size(), kTpchVerifyPerTemplate));
      for (uint64_t fp : sample) {
        sampled.push_back({label, fp, plans.at(fp).front()->plan,
                           1.0 * statements_of[label] / sample.size(), {}, 0});
      }
    }
    std::vector<std::thread> threads;
    for (int c = 0; c < kTpchClients; ++c) {
      threads.emplace_back([&, c] {
        std::unique_ptr<Session> bypass = BypassSession(db.get());
        for (size_t i = c; i < sampled.size(); i += kTpchClients) {
          Stopwatch sw;
          Result truth = bypass->Execute(sampled[i].plan);
          sampled[i].ms = sw.ElapsedMs();
          sampled[i].expected = AnswerOf(truth);
        }
      });
    }
    for (auto& t : threads) t.join();
    for (const Sampled& s : sampled) {
      bypass_latency.Add(s.ms, s.weight);
      for (const StreamStatement* stmt :
           plans_of.at(s.label).at(s.fingerprint)) {
        CheckAnswer(StrFormat("%s, plan %016llx", s.label.c_str(),
                              (unsigned long long)s.fingerprint),
                    stmt->mode, stmt->answer, s.expected, &oracle);
        ++report->verified;
      }
    }
    verified_plans += static_cast<int64_t>(sampled.size());
  };

  run_clients(0, kTpchWarmupRounds, /*timed=*/false);
  HostProbe probe;
  const Counters before = Counters::Of(db->counters());
  int64_t wall_ns = 0, cpu_ns = 0, verify_ns = 0;
  for (int seg = 0; seg < kTpchSegments; ++seg) {
    for (auto& client : done) client.clear();
    const int64_t first =
        kTpchWarmupRounds + kTpchTimedRounds * seg / kTpchSegments;
    const int64_t last =
        kTpchWarmupRounds + kTpchTimedRounds * (seg + 1) / kTpchSegments;
    const int64_t t0 = NowNs();
    const int64_t cpu0 = ProcessCpuNs();
    run_clients(first, last, /*timed=*/true);
    cpu_ns += ProcessCpuNs() - cpu0;
    const int64_t t1 = NowNs();
    verify_segment(args.seed + seg);
    wall_ns += t1 - t0;
    verify_ns += NowNs() - t1;
    probe.Run(kTpchClients, kProbeReps);
  }
  const Counters timed = Counters::Of(db->counters()) - before;
  AddPeakRss(report);

  Tally tally = oracle;
  for (int c = 0; c < kTpchClients; ++c) {
    tally.Merge(tallies[c]);
    log.Merge(logs[c]);
  }
  tally.cpu_ns = cpu_ns;
  report->verify_population = tally.statements();
  report->verify_s = verify_ns / 1e9;
  report->extra["verified_plans"] = {1.0 * verified_plans, "count"};

  AddEndToEnd(tally, tally.statements() / (wall_ns / 1e9), bypass_latency,
              probe, report);
  report->AddCheck("tpch_streams: no evictions", timed.evictions == 0,
                   StrFormat("evictions=%lld", (long long)timed.evictions));
  Finish(&db, traced, tally, timed, /*add_closed=*/false, &log, report);
  return traced ? WriteSpans(log, args) : Status::OK();
}

// ---------------------------------------------------------------------------
// sky_restart
// ---------------------------------------------------------------------------

constexpr int64_t kSkyObjects = 300000;
constexpr int64_t kSkyCycles = 6;
constexpr int kSkyWindows = 100;
constexpr double kSkyWindowDeg = 8.0;
/// Statement texts per cycle re-run on bypass: a seeded sample of the
/// cycle's 2 x kSkyWindows, since a bypass scan of photoprimary costs
/// ~20 ms.
constexpr int kSkyVerifyPerCycle = 40;

Status RunSkyRestart(const Args& args, Report* report) {
  const bool traced = !args.trace_path.empty();

  Catalog data;
  skyserver::Setup(kSkyObjects, &data, args.seed);
  const TableList tables = {{"photoprimary", data.GetTable("photoprimary")}};
  // Cycle k replays cycle k-1's windows and sweeps a new, jittered set
  // over the same band. Each cycle's windows are 0.01 degrees wider than
  // the last cycle's: plan fingerprints keep 6 significant digits of a
  // double literal, so two windows whose bounds agree to 0.001 degrees
  // would share one cache entry (README, "Known defects").
  std::vector<std::vector<std::string>> windows;
  for (int64_t k = 0; k <= kSkyCycles; ++k) {
    Rng rng(args.seed + static_cast<uint64_t>(k + 1) * kGolden);
    windows.push_back(skyserver::GenerateRegionSweepSql(
        kSkyWindows, &rng, kSkyWindowDeg + 0.01 * k, /*step_deg=*/1.0));
  }

  const std::string spill_dir =
      StrFormat("%s/sky-spill-%d", args.scratch_dir.c_str(), (int)getpid());
  std::error_code ec;
  fs::remove_all(spill_dir, ec);
  DatabaseOptions options;
  options.recycler.mode = RecyclerMode::kSpeculation;
  options.recycler.spill_dir = spill_dir;
  SpanLog log;
  std::unique_ptr<Database> db =
      SetUp(options, tables, kSetupRepeats, &log, report);
  if (db == nullptr) return Status::Internal("set-up failed");

  Tally tally;
  // Set-up cycle (untimed): sweep the first window set, so that the
  // first timed restart finds it on disk.
  {
    SpanLog scratch;
    Client client(db.get(), &scratch, /*traced=*/false);
    for (const std::string& sql : windows[0]) {
      double ms = 0;
      if (!client.Sql(sql, &ms).ok()) ++tally.failed;
    }
  }

  Counters counters;
  BypassLatencies bypass_latency;
  HostProbe probe;
  int64_t verify_ns = 0;
  for (int64_t k = 1; k <= kSkyCycles; ++k) {
    // Restart: close (the destructor checkpoints the hot cache to disk),
    // open over the spill directory, register the table.
    {
      const int64_t op = log.NewOp();
      Counters closed;
      Status st;
      int32_t root;
      const int64_t cpu = ProcessCpuNs();
      {
        SpanScope span(&log, "restart", op);
        root = span.id();
        Close(&db, traced, &log, op, root, &closed);
        st = OpenAndRegister(options, tables, &log, op, root, &db);
      }
      tally.cpu_ns += ProcessCpuNs() - cpu;
      if (k > 1) counters += closed;  // the set-up cycle is untimed
      tally.AddRestart(st, log.DurationMs(root));
      if (!st.ok()) return st;
    }
    // The cycle: for each window position, the replay, then the new
    // window. Every text is distinct within a cycle. The oracle checks a
    // seeded sample of the cycle's statements, drawn up front so that
    // only the sampled answers are kept.
    std::vector<const std::string*> cycle;
    for (int j = 0; j < kSkyWindows; ++j) {
      cycle.push_back(&windows[k - 1][j]);
      cycle.push_back(&windows[k][j]);
    }
    std::vector<size_t> sample(cycle.size());
    for (size_t i = 0; i < sample.size(); ++i) sample[i] = i;
    SeededShuffle(&sample, args.seed + k);
    sample.resize(std::min<size_t>(sample.size(), kSkyVerifyPerCycle));
    std::map<size_t, std::pair<ReuseMode, Answer>> kept;
    for (size_t i : sample) kept[i];
    {
      Client client(db.get(), &log, traced);
      for (size_t i = 0; i < cycle.size(); ++i) {
        double ms = 0;
        Result result = client.Sql(*cycle[i], &ms);
        tally.AddStatement(result, ms);
        auto it = kept.find(i);
        if (it != kept.end()) {
          it->second = {result.trace().reuse_mode, AnswerOf(result)};
        }
      }
      tally.cpu_ns += client.cpu_ns();
    }
    probe.Run(1, kProbeReps);
    // Every window is a full scan on bypass, so the sample stands for the
    // whole cycle in the bypass latencies.
    const int64_t t_verify = NowNs();
    std::unique_ptr<Session> bypass = BypassSession(db.get());
    for (const auto& [i, answer] : kept) {
      Stopwatch sw;
      const Answer expected = AnswerOf(bypass->Sql(*cycle[i]));
      bypass_latency.Add(sw.ElapsedMs(), 1.0 * cycle.size() / kept.size());
      CheckAnswer(*cycle[i], answer.first, answer.second, expected, &tally);
      ++report->verified;
    }
    verify_ns += NowNs() - t_verify;
  }
  AddPeakRss(report);
  report->verify_population = tally.statements();
  report->verify_s = verify_ns / 1e9;
  AddEndToEnd(tally, tally.OpsPerSecondOfLatency(), bypass_latency, probe,
              report);
  report->extra["restart_p50_ms"] = {Percentile(tally.restart_ms, 50),
                                     "ms"};

  // The final close checkpoints the last cycle; disk_mb is what the run
  // leaves on disk.
  Finish(&db, traced, tally, counters, /*add_closed=*/true, &log, report);
  report->extra["disk_mb"] = {DirectoryBytes(spill_dir) / 1048576.0, "MB"};
  report->per_layer["cold.disk_mb"] = report->extra["disk_mb"];
  fs::remove_all(spill_dir, ec);

  const double cold = report->per_layer["cold.hit_share"].value;
  const double stitch = report->per_layer["recycler.stitch_share"].value;
  report->AddCheck("sky_restart: cold hit share >= 0.4", cold >= 0.4,
                   StrFormat("cold.hit_share=%.3f", cold));
  report->AddCheck("sky_restart: stitch share >= 0.4", stitch >= 0.4,
                   StrFormat("recycler.stitch_share=%.3f", stitch));
  return traced ? WriteSpans(log, args) : Status::OK();
}

// ---------------------------------------------------------------------------
// distinct_miss
// ---------------------------------------------------------------------------

/// lineitem has 60k rows at this scale: a full scan with the box
/// predicate takes ~5 ms, so 1000 statement pairs fit a 10-second run.
constexpr double kMissScale = 0.01;
constexpr int64_t kMissPairs = 1000;
/// Holds the results of about 120 statements, two thirds of them
/// selections: the untimed warm-up fills it in 100-140 statements.
constexpr int64_t kMissCacheBytes = 128ll << 10;
constexpr int kMissWarmupMax = 600;
/// Cells of the grid DisjointStatements draws its boxes from.
constexpr int kMissCells = 181 * 5 * 2;
static_assert(kMissWarmupMax + kMissPairs <= kMissCells,
              "the warm-up and the timed pairs must not repeat a box");

/// The two statement shapes. The selection returns six narrow columns,
/// not SELECT *: the speculative store weighs a result's measured cost
/// against the cost model's estimate for the entries it would evict, and
/// the model charges a scan by the bytes of the columns it emits. With
/// every column both came out about equal, so whether the cache admitted
/// new results was decided afresh in each process by the model's
/// timing-based calibration (README, "Known defects"). With narrow
/// columns the measured cost is well above the estimate and the cache
/// admits nearly every selection result in every run.
constexpr const char* kMissAggregate =
    "SELECT COUNT(*) AS n, SUM(l_extendedprice) AS revenue";
constexpr const char* kMissSelection =
    "SELECT l_orderkey, l_partkey, l_quantity, l_extendedprice, l_discount,"
    " l_shipdate";

/// Pairwise-disjoint predicate boxes over lineitem: one cell of a
/// (ship fortnight x quantity band x discount half) grid per statement,
/// in a seeded order. A third are tiny aggregates; the rest are
/// selections of the box's ~30 rows, whose speculative stores fill the
/// cache. (With half and half, the median would fall between the two
/// shapes' latencies and jump from run to run.)
std::vector<std::string> DisjointStatements(uint64_t seed) {
  struct Cell {
    int fortnight, quantity, discount;
  };
  std::vector<Cell> cells;
  for (int f = 0; f < 181; ++f) {
    for (int q = 0; q < 5; ++q) {
      for (int d = 0; d < 2; ++d) cells.push_back({f, q, d});
    }
  }
  RDB_CHECK(static_cast<int>(cells.size()) == kMissCells);
  SeededShuffle(&cells, seed);
  const int32_t first_day = MakeDate(1992, 1, 1);
  std::vector<std::string> sql;
  for (const Cell& c : cells) {
    const std::string box = StrFormat(
        " FROM lineitem WHERE l_shipdate >= DATE '%s' AND l_shipdate < DATE "
        "'%s' AND l_quantity >= %d AND l_quantity < %d AND l_discount %s 0.05",
        DateToString(first_day + 14 * c.fortnight).c_str(),
        DateToString(first_day + 14 * c.fortnight + 14).c_str(),
        1 + 10 * c.quantity, 11 + 10 * c.quantity,
        c.discount == 0 ? "<" : ">=");
    const bool aggregate = (c.fortnight + c.quantity + c.discount) % 3 == 0;
    sql.push_back(std::string(aggregate ? kMissAggregate : kMissSelection) +
                  box);
  }
  return sql;
}

Status RunDistinctMiss(const Args& args, Report* report) {
  const bool traced = !args.trace_path.empty();
  Catalog data;
  tpch::Generate(kMissScale, &data, args.seed);
  const TableList tables = {{"lineitem", data.GetTable("lineitem")}};
  const std::vector<std::string> sql = DisjointStatements(args.seed);

  DatabaseOptions options;
  options.recycler.mode = RecyclerMode::kSpeculation;
  options.recycler.cache_bytes = kMissCacheBytes;
  SpanLog log;
  std::unique_ptr<Database> db =
      SetUp(options, tables, kCheapSetupRepeats, &log, report);
  if (db == nullptr) return Status::Internal("set-up failed");

  // Warm-up: fill the cache with statements the timed phase never
  // repeats, until it has evicted once.
  Tally tally;
  size_t next = 0;
  {
    SpanLog scratch;
    Client client(db.get(), &scratch, /*traced=*/false);
    while (next < static_cast<size_t>(kMissWarmupMax) &&
           db->counters().evictions.load() == 0) {
      double ms = 0;
      if (!client.Sql(sql[next++], &ms).ok()) ++tally.failed;
    }
  }

  const Counters before = Counters::Of(db->counters());
  BypassLatencies bypass_latency;
  HostProbe probe;
  int64_t hits = 0;
  int64_t verify_ns = 0;
  {
    Client client(db.get(), &log, traced);
    std::unique_ptr<Session> bypass = BypassSession(db.get());
    auto run_bypass = [&](const std::string& text, double* ms) {
      Stopwatch sw;
      Result truth = bypass->Sql(text);
      *ms = sw.ElapsedMs();
      return truth;
    };
    for (int64_t i = 0; i < kMissPairs; ++i) {
      if (i % kProbeEveryPairs == 0) probe.Run(1, kProbeReps);
      const std::string& text = sql[next + i];
      // Alternate which arm runs first, so neither always finds the
      // other's data in the CPU caches.
      double ms = 0, truth_ms = 0;
      Result truth;
      if (i % 2 == 1) truth = run_bypass(text, &truth_ms);
      Result result = client.Sql(text, &ms);
      if (i % 2 == 0) truth = run_bypass(text, &truth_ms);
      tally.AddStatement(result, ms);
      if (result.ok() && result.recycled()) ++hits;
      const int64_t t_verify = NowNs();
      CheckAnswer(text, result.trace().reuse_mode, AnswerOf(result),
                  AnswerOf(truth), &tally);
      verify_ns += NowNs() - t_verify;
      bypass_latency.Add(truth_ms);
    }
    tally.cpu_ns += client.cpu_ns();
  }
  const Counters timed = Counters::Of(db->counters()) - before;
  AddPeakRss(report);
  report->verified = report->verify_population = kMissPairs;
  report->verify_s = verify_ns / 1e9;
  AddEndToEnd(tally, tally.OpsPerSecondOfLatency(), bypass_latency, probe,
              report);
  report->extra["warmup_statements"] = {1.0 * next, "count"};

  report->AddCheck("distinct_miss: hit ratio is 0", hits == 0,
                   StrFormat("hits=%lld of %lld", (long long)hits,
                             (long long)kMissPairs));
  report->AddCheck(
      "distinct_miss: cache full (evictions + aborted speculative stores > 0)",
      timed.evictions + tally.spec_aborted > 0,
      StrFormat("evictions=%lld spec_aborts=%lld",
                (long long)timed.evictions, (long long)tally.spec_aborted));
  Finish(&db, traced, tally, timed, /*add_closed=*/false, &log, report);
  return traced ? WriteSpans(log, args) : Status::OK();
}

// ---------------------------------------------------------------------------
// rollup_append
// ---------------------------------------------------------------------------

constexpr int64_t kRollupRows = 20000;
constexpr int64_t kRollupBatch = 20;
constexpr int64_t kRollupPairs = 1000;
/// The recent-ts windows start at a multiple of this many rows, so each
/// window statement repeats (and is delta-served) until the table has
/// grown by that much.
constexpr int64_t kRollupWindowStep = 2000;

/// RollupSql() plus two recent-ts window aggregates; the table is ts
/// sorted, so zone maps prune the blocks before the window.
std::vector<std::string> RollupStatements(const rollup::RollupOptions& opts,
                                          int64_t rows) {
  std::vector<std::string> sql = rollup::RollupSql(opts);
  const long long from =
      std::max<int64_t>(0, rows / kRollupWindowStep - 2) * kRollupWindowStep;
  sql.push_back(StrFormat(
      "SELECT sensor, SUM(value) AS total, COUNT(value) AS n FROM events"
      " WHERE ts >= %lld GROUP BY sensor",
      from));
  sql.push_back(StrFormat(
      "SELECT sensor, MAX(value) AS hi FROM events WHERE ts >= %lld"
      " GROUP BY sensor",
      from));
  return sql;
}

Status RunRollupAppend(const Args& args, Report* report) {
  const bool traced = !args.trace_path.empty();
  rollup::RollupOptions opts;
  opts.initial_rows = kRollupRows;
  opts.seed = args.seed;
  // The rows rollup::Setup generates, registered by the set-up step.
  const TableList tables = {
      {"events", rollup::MakeBatch(opts.initial_rows, 0, opts)}};

  DatabaseOptions options;
  options.recycler.mode = RecyclerMode::kSpeculation;
  SpanLog log;
  std::unique_ptr<Database> db =
      SetUp(options, tables, kCheapSetupRepeats, &log, report);
  if (db == nullptr) return Status::Internal("set-up failed");

  const Counters before = Counters::Of(db->counters());
  Tally tally;
  BypassLatencies bypass_latency;
  HostProbe probe;
  int64_t verify_ns = 0;
  int64_t rows = opts.initial_rows;
  {
    Client client(db.get(), &log, traced);
    std::unique_ptr<Session> bypass = BypassSession(db.get());
    for (int64_t i = 0; i < kRollupPairs; ++i) {
      if (i % kProbeEveryPairs == 0) probe.Run(1, kProbeReps);
      TablePtr batch = rollup::MakeBatch(kRollupBatch, rows, opts);
      double ms = 0;
      Status st = client.Append("events", *batch, &ms);
      tally.AddAppend(st, ms);
      rows += kRollupBatch;
      if (st.ok() && db->catalog().Snapshot("events").rows != rows) {
        ++tally.failed;
      }

      const std::vector<std::string> sql = RollupStatements(opts, rows);
      const std::string& text = sql[i % sql.size()];
      Result result = client.Sql(text, &ms);
      tally.AddStatement(result, ms);
      // Oracle inline: the same statement on bypass, same table version.
      const int64_t t_verify = NowNs();
      Stopwatch sw;
      const Answer expected = AnswerOf(bypass->Sql(text));
      const double truth_ms = sw.ElapsedMs();
      CheckAnswer(text, result.trace().reuse_mode, AnswerOf(result), expected,
                  &tally);
      verify_ns += NowNs() - t_verify;
      bypass_latency.Add(truth_ms);
    }
    tally.cpu_ns += client.cpu_ns();
  }
  const Counters timed = Counters::Of(db->counters()) - before;
  AddPeakRss(report);
  report->verified = report->verify_population = kRollupPairs;
  report->verify_s = verify_ns / 1e9;
  AddEndToEnd(tally, tally.OpsPerSecondOfLatency(), bypass_latency, probe,
              report);
  report->extra["append_p50_ms"] = {Percentile(tally.append_ms, 50), "ms"};
  report->extra["append_p99_ms"] = {Percentile(tally.append_ms, 99), "ms"};

  Finish(&db, traced, tally, timed, /*add_closed=*/false, &log, report);
  const double delta = report->per_layer["recycler.delta_share"].value;
  const double prune = report->per_layer["storage.prune_ratio"].value;
  report->AddCheck("rollup_append: delta share >= 0.9", delta >= 0.9,
                   StrFormat("recycler.delta_share=%.3f", delta));
  report->AddCheck("rollup_append: zone maps prune", prune > 0,
                   StrFormat("storage.prune_ratio=%.4f", prune));
  return traced ? WriteSpans(log, args) : Status::OK();
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "tpch_streams", "sky_restart", "distinct_miss", "rollup_append"};
  return names;
}

Status RunWorkload(const Args& args, Report* report) {
  report->workload = args.workload;
  report->seed = args.seed;
  report->traced = !args.trace_path.empty();
  Status st;
  if (args.workload == "tpch_streams") {
    st = RunTpchStreams(args, report);
  } else if (args.workload == "sky_restart") {
    st = RunSkyRestart(args, report);
  } else if (args.workload == "distinct_miss") {
    st = RunDistinctMiss(args, report);
  } else if (args.workload == "rollup_append") {
    st = RunRollupAppend(args, report);
  } else {
    return Status::InvalidArgument("unknown workload " + args.workload);
  }
  if (st.ok() && report->traced) {
    // The layers' self times must account for the traced op time; the
    // remainder is the harness's own code between the calls.
    const double coverage = report->per_layer["trace.coverage"].value;
    report->AddCheck("traced: layer self times cover >= 95% of op time",
                     coverage >= 0.95,
                     StrFormat("trace.coverage=%.4f", coverage));
  }
  return st;
}

}  // namespace e2e
}  // namespace recycledb
