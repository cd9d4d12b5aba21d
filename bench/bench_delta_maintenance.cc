// Delta maintenance bench: the append-only sliding-window rollup
// workload that pure invalidation turns into the recycler's worst case.
// A fixed rollup statement set (grouped SUM/COUNT/AVG/MIN/MAX plus
// overlapping value-threshold windows) is re-executed after every batch
// of appended event rows, on two arms: delta maintenance ON (append-
// stale entries are stitched/merged with the delta window and re-admitted
// at the new high-water mark) and OFF (every append invalidates every
// dependent entry). Every result on both arms is checked bit-identical
// against a recycler-bypass baseline.
//
// JSON (RECYCLEDB_JSON_OUT): one row per (arm, statement) plus one
// summary row per arm. Gates (exit 1 on failure):
//   - ON  arm hit-rate >= 0.80 (delta hits count as hits)
//   - OFF arm hit-rate <= 0.10 (pure invalidation: repeats never hit)
//   - ON  arm served at least one aggregate merge and one delta hit
//   - ON  arm served at least 0.8 of its delta hits from the exact-hit
//     index (IndexServed: the SQL text probe refreshed the root without
//     parsing or matching); OFF arm none (an append evicts every entry)
//   - bit-identical rows vs the bypass baseline everywhere
#include <algorithm>
#include <string>
#include <variant>
#include <vector>

#include "bench_util.h"
#include "workload/rollup.h"

using namespace recycledb;
using namespace recycledb::bench;

namespace {

/// Exact row rendering (doubles at full precision: the gate asserts
/// bit-identity; the rollup generator's integer-valued doubles keep
/// partial-sum merging exact).
std::vector<std::string> RowStrings(const Table& t) {
  std::vector<std::string> rows;
  rows.reserve(static_cast<size_t>(t.num_rows()));
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    std::string key;
    for (int c = 0; c < t.num_columns(); ++c) {
      const Datum& d = t.Get(r, c);
      if (std::holds_alternative<double>(d)) {
        key += StrFormat("%.17g", std::get<double>(d));
      } else {
        key += DatumToString(d);
      }
      key += "|";
    }
    rows.push_back(std::move(key));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

struct ArmResult {
  int64_t eligible = 0;  // scored executions (seed round excluded)
  int64_t hits = 0;
  int64_t mismatches = 0;
  int64_t delta_hits = 0;
  int64_t agg_merges = 0;
  int64_t index_served = 0;
  double HitRate() const {
    return eligible == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(eligible);
  }
};

}  // namespace

int main() {
  rollup::RollupOptions ropt;
  ropt.initial_rows = EnvInt("RECYCLEDB_DELTA_ROWS", 30000);
  const int64_t rounds = EnvInt("RECYCLEDB_DELTA_ROUNDS", 8);
  const int64_t batch_rows = EnvInt("RECYCLEDB_DELTA_BATCH", 250);
  PrintHeader(StrFormat(
      "Delta maintenance: append-only rollup over %lld-row events, "
      "%lld append rounds of %lld rows, delta on vs off",
      static_cast<long long>(ropt.initial_rows),
      static_cast<long long>(rounds), static_cast<long long>(batch_rows)));

  const std::vector<std::string> queries = rollup::RollupSql(ropt);
  JsonResultSink sink;
  ArmResult arms[2];

  std::printf("%-4s %-9s %8s %6s %6s %8s %8s\n", "arm", "stmt", "rounds",
              "hits", "rate", "delta", "aggmrg");
  for (int arm = 0; arm < 2; ++arm) {
    const bool delta_on = (arm == 0);
    DatabaseOptions options;
    options.recycler.mode = RecyclerMode::kSpeculation;
    options.recycler.enable_delta_maintenance = delta_on;
    auto db = Database::OpenOrDie(options);
    RDB_CHECK(rollup::Setup(db.get(), ropt).ok());
    SessionOptions bypass;
    bypass.bypass_recycler = true;
    auto baseline_session = db->Connect(bypass);

    // Seed round: every statement materializes; it cannot hit.
    for (const std::string& q : queries) {
      Result r = db->Sql(q);
      RDB_CHECK_MSG(r.ok(), r.status().ToString().c_str());
    }

    std::vector<int64_t> hits(queries.size(), 0);
    std::vector<int64_t> delta_served(queries.size(), 0);
    std::vector<int64_t> merges(queries.size(), 0);
    int64_t rows = ropt.initial_rows;
    Stopwatch sw;
    for (int64_t round = 0; round < rounds; ++round) {
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        // Streaming cadence: a batch lands between any two statement
        // executions, so every repeat finds its cached entry append-stale
        // (and, on the off arm, finds every sibling entry invalidated —
        // the hit-rate gap below is delta maintenance alone, not
        // within-round range stitching between the overlapping windows).
        TablePtr batch = rollup::MakeBatch(batch_rows, rows, ropt);
        RDB_CHECK(db->AppendTable("events", *batch).ok());
        rows += batch_rows;
        Result r = db->Sql(queries[qi]);
        RDB_CHECK_MSG(r.ok(), r.status().ToString().c_str());
        Result truth = baseline_session->Sql(queries[qi]);
        RDB_CHECK_MSG(truth.ok(), truth.status().ToString().c_str());
        if (RowStrings(*r.table()) != RowStrings(*truth.table())) {
          std::fprintf(stderr, "result mismatch: arm=%s stmt=%zu round=%lld\n",
                       delta_on ? "on" : "off", qi,
                       static_cast<long long>(round));
          ++arms[arm].mismatches;
        }
        ++arms[arm].eligible;
        if (r.recycled()) {
          ++arms[arm].hits;
          ++hits[qi];
        }
        arms[arm].delta_hits += r.trace().num_delta_reuses;
        arms[arm].agg_merges += r.trace().num_agg_merges;
        arms[arm].index_served += r.trace().num_index_served;
        delta_served[qi] += r.trace().num_delta_reuses;
        merges[qi] += r.trace().num_agg_merges;
      }
    }
    double arm_ms = sw.ElapsedMs();

    for (size_t qi = 0; qi < queries.size(); ++qi) {
      std::printf("%-4s stmt%-5zu %8lld %6lld %5.0f%% %8lld %8lld\n",
                  delta_on ? "on" : "off", qi,
                  static_cast<long long>(rounds),
                  static_cast<long long>(hits[qi]),
                  rounds == 0 ? 0.0 : 100.0 * hits[qi] / rounds,
                  static_cast<long long>(delta_served[qi]),
                  static_cast<long long>(merges[qi]));
      JsonObject row;
      row.Set("bench", "delta_maintenance")
          .Set("arm", delta_on ? "on" : "off")
          .Set("stmt", static_cast<int64_t>(qi))
          .Set("rounds", rounds)
          .Set("hits", hits[qi])
          .Set("delta_hits", delta_served[qi])
          .Set("agg_merges", merges[qi]);
      sink.Add(row);
    }
    JsonObject summary;
    summary.Set("bench", "delta_maintenance")
        .Set("arm", delta_on ? "on" : "off")
        .Set("stmt", "TOTAL")
        .Set("eligible", arms[arm].eligible)
        .Set("hits", arms[arm].hits)
        .Set("hit_rate", arms[arm].HitRate())
        .Set("delta_hits", arms[arm].delta_hits)
        .Set("agg_merges", arms[arm].agg_merges)
        .Set("index_served", arms[arm].index_served)
        .Set("mismatches", arms[arm].mismatches)
        .Set("scored_ms", arm_ms);
    sink.Add(summary);
  }

  std::printf(
      "\ndelta on: %.1f%% hit-rate (%lld delta hits, %lld agg merges, %lld "
      "served from the index); off: %.1f%% (%lld served from the index)\n",
      100.0 * arms[0].HitRate(), static_cast<long long>(arms[0].delta_hits),
      static_cast<long long>(arms[0].agg_merges),
      static_cast<long long>(arms[0].index_served), 100.0 * arms[1].HitRate(),
      static_cast<long long>(arms[1].index_served));

  std::string json_path = sink.WriteEnvPath();
  if (!json_path.empty()) {
    std::printf("JSON results written to %s\n", json_path.c_str());
  }

  // Regression gates.
  int rc = 0;
  if (arms[0].HitRate() < 0.80) {
    std::fprintf(stderr, "FAIL: delta-on hit-rate %.3f below 0.80\n",
                 arms[0].HitRate());
    rc = 1;
  }
  if (arms[1].HitRate() > 0.10) {
    std::fprintf(stderr, "FAIL: delta-off hit-rate %.3f above 0.10\n",
                 arms[1].HitRate());
    rc = 1;
  }
  if (arms[0].delta_hits == 0 || arms[0].agg_merges == 0) {
    std::fprintf(stderr,
                 "FAIL: delta-on arm served no delta hits / agg merges\n");
    rc = 1;
  }
  if (arms[0].index_served < 0.8 * static_cast<double>(arms[0].delta_hits)) {
    std::fprintf(stderr,
                 "FAIL: delta-on arm served %lld statements from the index, "
                 "below 0.8 of its %lld delta hits\n",
                 static_cast<long long>(arms[0].index_served),
                 static_cast<long long>(arms[0].delta_hits));
    rc = 1;
  }
  if (arms[1].index_served != 0) {
    std::fprintf(stderr,
                 "FAIL: delta-off arm served %lld statements from the index\n",
                 static_cast<long long>(arms[1].index_served));
    rc = 1;
  }
  if (arms[0].mismatches + arms[1].mismatches > 0) {
    std::fprintf(stderr, "FAIL: %lld result mismatches vs bypass baseline\n",
                 static_cast<long long>(arms[0].mismatches +
                                        arms[1].mismatches));
    rc = 1;
  }
  return rc;
}
