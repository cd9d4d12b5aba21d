// Concurrent query streams at scale (Fig. 7 companion): aggregate
// throughput, latency percentiles, and reuse rates for 1/2/4/8/16
// concurrent streams through ONE shared recycler, in all four modes.
//
// Where bench_fig7_throughput reports the paper's per-stream evaluation
// time at a fixed execution bound (12), this bench scales the execution
// bound WITH the stream count: it measures how the recycler's sharded
// locking and cross-stream reuse turn extra concurrency into aggregate
// queries/sec. Expected shape: in OFF mode throughput is roughly flat
// (same total work, one engine); in SPEC/PA it rises with streams because
// parameter collisions across streams turn into cache hits.
//
// Env knobs (all optional):
//   RECYCLEDB_SF            TPC-H scale factor (default 0.02)
//   RECYCLEDB_STREAMS_MAX   cap on the stream counts swept (default 16)
//   RECYCLEDB_WORKLOAD      "tpch" (default) or "sky"
//   RECYCLEDB_SKY_QUERIES   queries per SkyServer stream (default 25)
//   RECYCLEDB_JSON_OUT      path for the machine-readable JSON results
#include "bench_util.h"

using namespace recycledb;
using namespace recycledb::bench;

int main() {
  const std::string workload = EnvStr("RECYCLEDB_WORKLOAD", "tpch");
  const int64_t max_streams = EnvInt("RECYCLEDB_STREAMS_MAX", 16);
  double sf = tpch::ScaleFromEnv(0.02);
  const int sky_queries =
      static_cast<int>(EnvInt("RECYCLEDB_SKY_QUERIES", 25));

  Catalog catalog;
  if (workload == "sky") {
    skyserver::Setup(skyserver::ObjectsFromEnv(), &catalog);
  } else {
    tpch::Generate(sf, &catalog);
  }

  PrintHeader(StrFormat(
      "Concurrent streams: aggregate throughput, %s workload%s",
      workload.c_str(),
      workload == "sky" ? "" : StrFormat(" (SF=%.3f)", sf).c_str()));
  std::printf("%5s %8s %9s %9s %9s %9s %8s %7s %7s %7s\n", "mode", "streams",
              "wall(ms)", "qps", "avg(ms)", "p95(ms)", "reuse%", "reuses",
              "mats", "stalls");

  const RecyclerMode modes[] = {RecyclerMode::kOff, RecyclerMode::kHistory,
                                RecyclerMode::kSpeculation,
                                RecyclerMode::kProactive};
  JsonResultSink json;
  double spec_qps_1 = 0, spec_qps_8 = 0;

  for (RecyclerMode mode : modes) {
    for (int streams : {1, 2, 4, 8, 16}) {
      if (streams > max_streams) continue;
      auto db = MakeDatabase(catalog, mode);
      // The execution bound scales along with the stream count.
      workload::RunReport report = workload::RunStreams(
          db.get(),
          workload == "sky" ? skyserver::MakeStreams(streams, sky_queries)
                            : tpch::MakeStreams(streams, sf),
          streams);

      const QueryCounts totals = report.Totals();
      double qps = report.QueriesPerSec();
      double avg_ms =
          report.TotalQueries() == 0
              ? 0.0
              : report.TotalQueryMs() /
                    static_cast<double>(report.TotalQueries());
      std::printf(
          "%5s %8d %9.1f %9.2f %9.2f %9.2f %7.1f%% %7lld %7lld %7lld\n",
          RecyclerModeName(mode), streams, report.wall_ms, qps, avg_ms,
          report.LatencyPercentileMs(95), 100.0 * report.ReuseRate(),
          static_cast<long long>(totals.num_reuses),
          static_cast<long long>(totals.num_materialized),
          static_cast<long long>(totals.num_stalls));
      std::fflush(stdout);

      json.Add(JsonObject()
                   .Set("bench", "concurrent_streams")
                   .Set("workload", workload)
                   .Set("mode", RecyclerModeName(mode))
                   .Set("streams", streams)
                   .Set("queries", report.TotalQueries())
                   .Set("wall_ms", report.wall_ms)
                   .Set("qps", qps)
                   .Set("avg_ms", avg_ms)
                   .Set("p50_ms", report.LatencyPercentileMs(50))
                   .Set("p95_ms", report.LatencyPercentileMs(95))
                   .Set("p99_ms", report.LatencyPercentileMs(99))
                   .Set("reuse_rate", report.ReuseRate())
                   .Set("reuses", totals.num_reuses)
                   .Set("subsumption_reuses",
                        static_cast<int64_t>(
                            db->counters().subsumption_reuses.load()))
                   .Set("materializations", totals.num_materialized)
                   .Set("stalls", totals.num_stalls));

      if (mode == RecyclerMode::kSpeculation) {
        if (streams == 1) spec_qps_1 = qps;
        if (streams == 8) spec_qps_8 = qps;
      }
    }
  }

  std::string json_path = json.WriteEnvPath();
  if (!json_path.empty()) {
    std::printf("\nJSON results written to %s\n", json_path.c_str());
  }

  if (spec_qps_1 > 0 && spec_qps_8 > 0) {
    std::printf(
        "\nSPEC aggregate throughput 1 -> 8 streams: %.2f -> %.2f qps "
        "(%.2fx) %s\n",
        spec_qps_1, spec_qps_8, spec_qps_8 / spec_qps_1,
        spec_qps_8 > spec_qps_1 ? "[OK: increasing]" : "[FAIL: not increasing]");
    return spec_qps_8 > spec_qps_1 ? 0 : 1;
  }
  return 0;
}
