// Single-core raw-speed pack benchmark.
//
// Section A (zone-map pruning): a narrow-window sweep over a large
// sorted table, once with zone-map pruning and once without, with the
// recycler off so only the scan path differs. The pruned sweep reads a
// handful of 1024-row blocks per query instead of the whole table and
// must be at least 2x faster end to end.
//
// Section B (compressed cold tier): two engines with identical,
// deliberately small cold-tier byte caps absorb the same stream of
// distinct compressible results and are then flushed to disk. The spill
// column codecs shrink each spill file, so the compressing tier must
// retain at least 1.5x as many cold entries under the same cap.
//
// JSON (RECYCLEDB_JSON_OUT): one row per configuration with latency /
// block / cold-entry counters. Exits nonzero when either gate fails
// (CI bench-smoke runs this).
#include <filesystem>

#include "bench_util.h"

using namespace recycledb;
using namespace recycledb::bench;

namespace {

std::string MakeTempDir(const char* tag) {
  std::string tmpl = EnvStr("TMPDIR", "/tmp") + "/rdb-bench-" + tag + "-XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  const char* d = mkdtemp(buf.data());
  RDB_CHECK_MSG(d != nullptr, "cannot create bench spill dir");
  return d;
}

// --- Section A ------------------------------------------------------------

/// Sorted observation table: `ra` ascending (the sweep column) plus a
/// double payload, built column-wise in one batch.
TablePtr MakePointsTable(int64_t rows) {
  Schema s({{"ra", TypeId::kInt32}, {"flux", TypeId::kDouble}});
  TablePtr t = MakeTable(s);
  Batch b;
  b.columns.push_back(MakeColumn(TypeId::kInt32));
  b.columns.push_back(MakeColumn(TypeId::kDouble));
  auto& ra = b.columns[0]->Data<int32_t>();
  auto& flux = b.columns[1]->Data<double>();
  ra.reserve(rows);
  flux.reserve(rows);
  for (int64_t i = 0; i < rows; ++i) {
    ra.push_back(static_cast<int32_t>(i));
    flux.push_back(static_cast<double>((i * 7919) % 100003) * 0.01);
  }
  b.num_rows = rows;
  t->AppendBatch(b);
  return t;
}

PlanPtr WindowQuery(int32_t lo, int32_t hi) {
  return PlanNode::Select(
      PlanNode::Scan("pts", {"ra", "flux"}),
      Expr::And(Expr::Ge(Expr::Column("ra"), Expr::Literal(lo)),
                Expr::Lt(Expr::Column("ra"), Expr::Literal(hi))));
}

struct SweepStats {
  double total_ms = 0;
  int64_t rows_out = 0;
  int64_t blocks_scanned = 0;
  int64_t blocks_pruned = 0;
};

SweepStats RunWindowSweep(Database* db, int64_t rows, int num_queries,
                          int32_t window) {
  // One warmup query outside the timed region.
  RDB_CHECK(db->Execute(WindowQuery(0, window)).ok());
  SweepStats out;
  const int64_t stride = rows / num_queries;
  Stopwatch sw;
  for (int q = 0; q < num_queries; ++q) {
    const int32_t lo = static_cast<int32_t>(q * stride);
    Result r = db->Execute(WindowQuery(lo, lo + window));
    RDB_CHECK_MSG(r.ok(), r.status().ToString().c_str());
    out.rows_out += r.table()->num_rows();
    out.blocks_scanned += r.trace().blocks_scanned;
    out.blocks_pruned += r.trace().blocks_pruned;
  }
  out.total_ms = sw.ElapsedMs();
  return out;
}

// --- Section B ------------------------------------------------------------

/// Base table whose window-select results compress well: a dense int64
/// key (frame-of-reference), a low-cardinality tag (dictionary) and a
/// stepped double (run-length).
TablePtr MakeLogTable(int64_t rows) {
  Schema s({{"k", TypeId::kInt64},
            {"tag", TypeId::kString},
            {"v", TypeId::kDouble}});
  TablePtr t = MakeTable(s);
  Batch b;
  b.columns.push_back(MakeColumn(TypeId::kInt64));
  b.columns.push_back(MakeColumn(TypeId::kString));
  b.columns.push_back(MakeColumn(TypeId::kDouble));
  auto& k = b.columns[0]->Data<int64_t>();
  auto& tag = b.columns[1]->Data<std::string>();
  auto& v = b.columns[2]->Data<double>();
  static const char* kTags[] = {"get", "put", "del", "scan"};
  for (int64_t i = 0; i < rows; ++i) {
    k.push_back(i);
    tag.push_back(kTags[i % 4]);
    v.push_back(static_cast<double>(i / 64) * 1.5);
  }
  b.num_rows = rows;
  t->AppendBatch(b);
  return t;
}

PlanPtr LogWindowQuery(int64_t lo, int64_t hi) {
  return PlanNode::Select(
      PlanNode::Scan("log", {"k", "tag", "v"}),
      Expr::And(Expr::Ge(Expr::Column("k"), Expr::Literal(lo)),
                Expr::Lt(Expr::Column("k"), Expr::Literal(hi))));
}

struct ColdStats {
  int64_t num_cold = 0;
  int64_t spills = 0;
  int64_t stored_bytes = 0;
  int64_t raw_bytes = 0;
};

/// Runs `num_windows` distinct compressible window queries, flushes the
/// hot cache to disk, and reports how much of the workload's coverage
/// the cold tier retained.
ColdStats FillColdTier(const Catalog& catalog, const std::string& spill_dir,
                       int64_t capacity_bytes, bool compress,
                       int num_windows, int64_t window_rows) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kSpeculation;
  cfg.spill_dir = spill_dir;
  cfg.cold_tier_capacity_bytes = capacity_bytes;
  cfg.compress_spill = compress;
  auto db = MakeDatabase(catalog, cfg);
  for (int w = 0; w < num_windows; ++w) {
    const int64_t lo = w * 2 * window_rows;  // disjoint: no subsumption
    Result r = db->Execute(LogWindowQuery(lo, lo + window_rows));
    RDB_CHECK_MSG(r.ok(), r.status().ToString().c_str());
  }
  db->FlushCache();
  ColdStats out;
  out.num_cold = db->graph_stats().num_cold;
  out.spills = db->counters().cold_spills.load();
  out.stored_bytes = db->counters().cold_spill_stored_bytes.load();
  out.raw_bytes = db->counters().cold_spill_raw_bytes.load();
  return out;
}

}  // namespace

int main() {
  const int64_t rows = EnvInt("RECYCLEDB_SPEED_ROWS", 2000000);
  const int num_queries = static_cast<int>(EnvInt("RECYCLEDB_SPEED_QUERIES", 48));
  const int32_t window = 4096;

  JsonResultSink sink;

  // --- Section A: pruned vs. unpruned window sweep ---------------------
  PrintHeader(StrFormat(
      "Speed pack A: zone-map pruning (%lld rows, %d windows of %d)",
      static_cast<long long>(rows), num_queries, window));

  Catalog points;
  RDB_CHECK(points.RegisterTable("pts", MakePointsTable(rows)).ok());

  SweepStats pruned, unpruned;
  for (bool enable : {false, true}) {
    RecyclerConfig cfg;
    cfg.mode = RecyclerMode::kOff;  // isolate the scan path
    cfg.enable_zone_map_pruning = enable;
    auto db = MakeDatabase(points, cfg);
    SweepStats s = RunWindowSweep(db.get(), rows, num_queries, window);
    (enable ? pruned : unpruned) = s;
    std::printf("%-10s  total %8.1f ms   rows %10lld   blocks %8lld scanned"
                " / %8lld pruned\n",
                enable ? "pruned" : "unpruned", s.total_ms,
                static_cast<long long>(s.rows_out),
                static_cast<long long>(s.blocks_scanned),
                static_cast<long long>(s.blocks_pruned));
    std::fflush(stdout);
    JsonObject row;
    row.Set("bench", "speed_pack")
        .Set("section", "pruning")
        .Set("config", enable ? "pruned" : "unpruned")
        .Set("rows", rows)
        .Set("queries", static_cast<int64_t>(num_queries))
        .Set("total_ms", s.total_ms)
        .Set("rows_out", s.rows_out)
        .Set("blocks_scanned", s.blocks_scanned)
        .Set("blocks_pruned", s.blocks_pruned);
    sink.Add(row);
  }
  const double speedup =
      pruned.total_ms > 0 ? unpruned.total_ms / pruned.total_ms : 0;
  std::printf("pruning speedup: %.2fx\n", speedup);

  // --- Section B: cold-tier density with compressed spills -------------
  const int cold_windows = 48;
  const int64_t window_rows = 8192;
  const int64_t capacity = 2ll << 20;
  PrintHeader(StrFormat(
      "Speed pack B: compressed cold tier (%d windows of %lld rows, "
      "%lld-byte cap)",
      cold_windows, static_cast<long long>(window_rows),
      static_cast<long long>(capacity)));

  Catalog logs;
  RDB_CHECK(
      logs.RegisterTable("log", MakeLogTable(2 * cold_windows * window_rows))
          .ok());

  ColdStats with, without;
  for (bool compress : {false, true}) {
    const std::string dir = MakeTempDir(compress ? "comp" : "raw");
    ColdStats s = FillColdTier(logs, dir, capacity, compress, cold_windows,
                               window_rows);
    (compress ? with : without) = s;
    std::printf("%-12s  cold entries %4lld   spills %4lld   stored %9lld B"
                "   raw %9lld B   ratio %.2fx\n",
                compress ? "compressed" : "uncompressed",
                static_cast<long long>(s.num_cold),
                static_cast<long long>(s.spills),
                static_cast<long long>(s.stored_bytes),
                static_cast<long long>(s.raw_bytes),
                s.stored_bytes > 0
                    ? static_cast<double>(s.raw_bytes) / s.stored_bytes
                    : 0.0);
    std::fflush(stdout);
    JsonObject row;
    row.Set("bench", "speed_pack")
        .Set("section", "cold_tier")
        .Set("config", compress ? "compressed" : "uncompressed")
        .Set("capacity_bytes", capacity)
        .Set("cold_entries", s.num_cold)
        .Set("cold_spills", s.spills)
        .Set("stored_bytes", s.stored_bytes)
        .Set("raw_bytes", s.raw_bytes);
    sink.Add(row);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  const double density = without.num_cold > 0
                             ? static_cast<double>(with.num_cold) /
                                   static_cast<double>(without.num_cold)
                             : 0.0;
  std::printf("cold-entry density: %.2fx\n", density);

  std::string json_path = sink.WriteEnvPath();
  if (!json_path.empty()) {
    std::printf("\nJSON results written to %s\n", json_path.c_str());
  }

  std::printf(
      "\nExpected: zone maps skip every block outside each query window "
      "(>= 2x sweep speedup), and spill column codecs let the same cold-tier "
      "byte cap retain >= 1.5x as many spilled results.\n");

  // Gate 1: pruning makes the sweep at least 2x faster, and the pruned
  // engine actually skipped blocks while producing the same rows.
  if (pruned.rows_out != unpruned.rows_out) {
    std::fprintf(stderr, "FAIL: pruned sweep returned %lld rows, unpruned %lld\n",
                 static_cast<long long>(pruned.rows_out),
                 static_cast<long long>(unpruned.rows_out));
    return 1;
  }
  if (pruned.blocks_pruned <= 0) {
    std::fprintf(stderr, "FAIL: pruned sweep skipped no blocks\n");
    return 1;
  }
  if (speedup < 2.0) {
    std::fprintf(stderr, "FAIL: pruning speedup %.2fx below 2x gate\n",
                 speedup);
    return 1;
  }
  // Gate 2: at the same byte cap the compressing tier holds >= 1.5x the
  // cold entries.
  if (without.num_cold <= 0 || with.num_cold <= 0) {
    std::fprintf(stderr, "FAIL: cold tier retained no entries (with=%lld "
                 "without=%lld)\n",
                 static_cast<long long>(with.num_cold),
                 static_cast<long long>(without.num_cold));
    return 1;
  }
  if (density < 1.5) {
    std::fprintf(stderr, "FAIL: cold-entry density %.2fx below 1.5x gate\n",
                 density);
    return 1;
  }
  return 0;
}
