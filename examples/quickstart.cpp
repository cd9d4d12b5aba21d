// Quickstart: open an embedded Database, run SQL with the one-call API,
// prepare a parameterized SQL template, and watch rebinding the same
// template hit the recycler cache.
//
//   $ ./build/example_quickstart
#include <cstdio>

#include "recycledb/recycledb.h"

using namespace recycledb;

int main() {
  std::printf("%s\n", RecycleDBVersion());

  // 1. Open an engine (speculation mode: never-seen expensive/small
  //    results are materialized on their first run).
  DatabaseOptions options;
  options.recycler.mode = RecyclerMode::kSpeculation;
  options.recycler.cache_bytes = 64 << 20;
  std::unique_ptr<Database> db;
  Status st = Database::Open(options, &db);
  if (!st.ok()) {
    std::fprintf(stderr, "open failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // 2. Register a base table.
  Schema schema({{"city", TypeId::kString},
                 {"year", TypeId::kInt32},
                 {"sales", TypeId::kDouble}});
  TablePtr sales = MakeTable(schema);
  const char* cities[] = {"Edinburgh", "Amsterdam", "Brisbane"};
  Rng rng(7);
  for (int i = 0; i < 300000; ++i) {
    sales->AppendRow({std::string(cities[rng.Uniform(0, 2)]),
                      static_cast<int32_t>(rng.Uniform(2005, 2012)),
                      static_cast<double>(rng.Uniform(10, 5000))});
  }
  if (!db->CreateTable("sales", sales).ok()) return 1;

  // 3. One call, text in, rows out. Parse/bind failures come back as a
  //    Status with line/column and a caret snippet — never an abort.
  Result peek = db->Sql(
      "SELECT city, COUNT(*) AS n FROM sales WHERE year >= 2010 "
      "GROUP BY city ORDER BY n DESC");
  if (!peek.ok()) {
    std::fprintf(stderr, "%s\n", peek.status().ToString().c_str());
    return 1;
  }
  std::printf("\n%s\n", peek.ToString().c_str());

  // 4. Prepare a SQL template once, rebind per request: total sales per
  //    city since :since — the cutoff year is a named parameter.
  //    Repeating a binding is answered from the recycler cache (the
  //    Result stats show the reuse). The canonicalizing rewrite pass
  //    makes every equivalent spelling of this statement share the same
  //    cache entries.
  auto session = db->Connect({});
  auto stmt = session->Prepare(
      "SELECT city, SUM(sales) AS total, COUNT(*) AS orders FROM sales "
      "WHERE year >= :since GROUP BY city ORDER BY total DESC",
      &st);
  if (stmt == nullptr) {
    std::fprintf(stderr, "prepare failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("%s", stmt->Explain().c_str());
  for (int64_t since : {2008, 2010, 2008, 2010}) {
    Result r = stmt->Bind("since", since).Execute();
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      return 1;
    }
    std::printf("since=%lld: %.2f ms, rows=%lld %s\n", (long long)since,
                r.total_ms(), (long long)r.num_rows(),
                r.recycled() ? "[cache hit]" : "[computed]");
  }
  std::printf("%s\n", stmt->Execute({{"since", int64_t{2008}}})
                          .ToString()
                          .c_str());

  // 5. Batch-iterate a result (zero-copy views of the cached table).
  Result r = stmt->Execute();
  int64_t batches = 0;
  for (Batch batch : r.Batches()) batches += batch.num_rows > 0 ? 1 : 0;
  std::printf("result arrives in %lld batch(es)\n", (long long)batches);

  // 6. Template-level accounting + engine state.
  TemplateStats ts = stmt->stats();
  GraphStats gs = db->graph_stats();
  std::printf("template: %lld executions, %lld reuses, %lld materialized\n",
              (long long)ts.executions, (long long)ts.num_reuses,
              (long long)ts.num_materialized);
  std::printf("recycler graph: %lld nodes, %lld cached results (%.1f KB)\n",
              (long long)gs.num_nodes, (long long)gs.num_cached,
              gs.cached_bytes / 1024.0);
  return ts.num_reuses > 0 ? 0 : 2;  // smoke-test gate: rebinding must reuse
}
