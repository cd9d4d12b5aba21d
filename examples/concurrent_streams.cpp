// Concurrent TPC-H streams: the paper's throughput-test setting in
// miniature, through the public facade. Multiple client streams share one
// Database; identical intermediate results are materialized once
// (concurrent requesters stall briefly) and reused by everyone else.
// Also demonstrates async submission on the database's worker pool.
//
//   $ ./build/example_concurrent_streams
#include <cstdio>

#include "recycledb/recycledb.h"

using namespace recycledb;

int main() {
  double sf = tpch::ScaleFromEnv(0.01);

  auto open_db = [&](RecyclerMode mode) {
    DatabaseOptions options;
    options.recycler.mode = mode;
    return Database::OpenOrDie(options);
  };

  const int kStreams = 8;

  // Baseline: recycling off.
  auto off = open_db(RecyclerMode::kOff);
  tpch::Generate(sf, &off->catalog());
  std::printf("TPC-H SF=%.3f generated (%lld lineitems)\n", sf,
              (long long)off->catalog().GetTable("lineitem")->num_rows());
  workload::RunReport off_report =
      workload::RunStreams(off.get(), tpch::MakeStreams(kStreams, sf), 12);

  // Recycling on (speculation), over the same tables (TablePtrs shared).
  auto on = open_db(RecyclerMode::kSpeculation);
  for (const auto& name : off->catalog().TableNames()) {
    if (!on->CreateTable(name, off->catalog().GetTable(name)).ok()) return 1;
  }
  workload::RunReport on_report =
      workload::RunStreams(on.get(), tpch::MakeStreams(kStreams, sf), 12);

  std::printf("\n%d streams x 22 queries, concurrency cap 12\n", kStreams);
  std::printf("  recycling OFF: wall %.0f ms, avg stream %.0f ms\n",
              off_report.wall_ms, off_report.AvgStreamMs());
  std::printf("  recycling ON : wall %.0f ms, avg stream %.0f ms "
              "(%.0f%% faster)\n",
              on_report.wall_ms, on_report.AvgStreamMs(),
              100.0 * (1.0 - on_report.AvgStreamMs() /
                                 off_report.AvgStreamMs()));
  std::printf("  reuses=%lld materializations=%lld stalls=%lld\n",
              (long long)on->counters().reuses.load(),
              (long long)on->counters().materializations.load(),
              (long long)on->counters().stalls.load());

  std::printf("\nper-pattern average (ms), ON vs OFF:\n");
  for (int q = 1; q <= tpch::kNumQueries; ++q) {
    std::string label = "Q" + std::to_string(q);
    double a = off_report.by_label.at(label).AvgMs();
    double b = on_report.by_label.at(label).AvgMs();
    std::printf("  %-4s %8.1f -> %8.1f  (%.2fx)\n", label.c_str(), a, b,
                b > 0 ? a / b : 0.0);
  }

  // Async clients: sessions submit Q6 with colliding parameters through
  // the database's worker pool; futures deliver the results.
  auto session = on->Connect({});
  Rng rng(99);
  std::vector<std::future<Result>> futures;
  for (int i = 0; i < 6; ++i) {
    tpch::QueryParams p = tpch::GenerateParams(6, &rng, sf);
    futures.push_back(
        session->Submit(Query::FromPlan(tpch::BuildQuery(6, p, sf))));
  }
  int async_reused = 0;
  for (auto& f : futures) {
    Result r = f.get();
    if (!r.ok()) return 1;
    async_reused += r.recycled() ? 1 : 0;
  }
  std::printf("\nasync: 6 submitted Q6 instances, %d answered from cache\n",
              async_reused);
  return 0;
}
