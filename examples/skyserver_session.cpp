// SkyServer session: replays the paper's real-world workload pattern — a
// public astronomy portal where most requests repeat the same cone search
// (fGetNearbyObjEq) with identical parameters. The portal is modeled the
// way a real frontend would embed the engine: one Database, a prepared
// cone-search template, and per-request Bind/Execute.
//
//   $ ./build/example_skyserver_session
#include <cstdio>

#include "recycledb/recycledb.h"

using namespace recycledb;

int main() {
  auto db = Database::OpenOrDie([] {
    DatabaseOptions o;
    o.recycler.mode = RecyclerMode::kSpeculation;
    return o;
  }());
  skyserver::Setup(/*num_objects=*/100000, &db->catalog());

  auto session = db->Connect({});

  // The portal's request handler: one prepared template, rebound per hit.
  Status st;
  auto cone = session->Prepare(skyserver::ConeSearchTemplate(), &st);
  if (cone == nullptr) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("%s\n", cone->Explain().c_str());

  // 40 requests: ~70% repeat the dominant cone (195, 2.5, 0.5); the rest
  // probe nearby variants.
  Rng rng(1);
  std::printf("--- 40-request SkyServer session ---\n");
  double cold_ms = 0, warm_ms = 0;
  int warm_queries = 0, dominant_hits = 0;
  for (int i = 0; i < 40; ++i) {
    bool dominant = rng.NextDouble() < 0.7;
    double ra = dominant ? 195.0 : 180.0 + 5.0 * (double)rng.Uniform(0, 5);
    Result r = cone->Execute(
        {{"ra", ra}, {"dec", 2.5}, {"radius", 0.5}});
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      return 1;
    }
    if (i == 0) {
      cold_ms = r.total_ms();
    } else {
      warm_ms += r.total_ms();
      ++warm_queries;
    }
    dominant_hits += dominant && r.recycled() ? 1 : 0;
    if (i < 8 || !r.recycled()) {
      std::printf("q%02d %-9s %8.2f ms  rows=%-3lld %s\n", i + 1,
                  dominant ? "dominant" : "variant", r.total_ms(),
                  (long long)r.num_rows(),
                  r.recycled() ? "[reused]" : "[computed]");
    }
  }
  std::printf("...\n");
  std::printf("first (cold) query: %.2f ms; avg of the remaining %d: %.2f ms "
              "(%.0fx faster)\n",
              cold_ms, warm_queries, warm_ms / warm_queries,
              cold_ms / (warm_ms / warm_queries));
  TemplateStats ts = cone->stats();
  std::printf("cone template: %lld executions, %lld reuses; cache "
              "footprint %.1f KB for %lld results\n",
              (long long)ts.executions, (long long)ts.num_reuses,
              db->graph_stats().cached_bytes / 1024.0,
              (long long)db->graph_stats().num_cached);

  // Simulate an update to the sky catalog: dependents are invalidated,
  // the next dominant request recomputes.
  db->InvalidateTable("photoprimary");
  Result r = cone->Execute({{"ra", 195.0}, {"dec", 2.5}, {"radius", 0.5}});
  std::printf("after update/invalidation: %.2f ms (%s)\n", r.total_ms(),
              r.recycled() ? "reused" : "recomputed");
  return 0;
}
