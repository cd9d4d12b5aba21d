// OLAP dashboard session: the paper's motivating scenario — an interactive
// tool issuing refinements of the same query pattern (roll-ups, drill-
// downs, filter tweaks, paging). Subsumption and proactive cube caching
// turn the session's tail queries into cache hits. Everything goes
// through the public Database/Session/Query facade; the region filter is
// a prepared-statement parameter.
//
//   $ ./build/example_olap_dashboard
#include <cstdio>

#include "recycledb/recycledb.h"

using namespace recycledb;

namespace {

Query SalesCube(Database& db, std::vector<std::string> dims, ExprPtr filter) {
  Query q = db.Scan("orders",
                    {"region", "product", "month_d", "quantity", "amount"});
  if (filter != nullptr) q = q.Filter(std::move(filter));
  return q.Aggregate(std::move(dims),
                     {{AggFunc::kSum, Expr::Column("amount"), "revenue"},
                      {AggFunc::kCount, Expr::Literal(int64_t{1}),
                       "num_orders"},
                      {AggFunc::kAvg, Expr::Column("amount"), "avg_order"}});
}

void Show(const char* what, const Result& r) {
  std::printf("%-46s %8.2f ms  rows=%-5lld %s%s%s\n", what, r.total_ms(),
              (long long)r.num_rows(), r.recycled() ? "[reused] " : "",
              r.trace().num_subsumption_reuses > 0 ? "[subsumption] " : "",
              r.trace().used_proactive ? "[proactive]" : "");
}

}  // namespace

int main() {
  DatabaseOptions options;
  options.recycler.mode = RecyclerMode::kProactive;  // all techniques on
  std::unique_ptr<Database> db;
  if (!Database::Open(options, &db).ok()) return 1;

  Schema schema({{"region", TypeId::kString},
                 {"product", TypeId::kString},
                 {"month_d", TypeId::kDate},
                 {"quantity", TypeId::kInt32},
                 {"amount", TypeId::kDouble}});
  TablePtr orders = MakeTable(schema);
  const char* regions[] = {"EMEA", "APAC", "AMER"};
  Rng rng(42);
  for (int i = 0; i < 500000; ++i) {
    int y = static_cast<int>(rng.Uniform(2009, 2012));
    int m = static_cast<int>(rng.Uniform(1, 12));
    orders->AppendRow({std::string(regions[rng.Uniform(0, 2)]),
                       "SKU-" + std::to_string(rng.Uniform(1, 40)),
                       MakeDate(y, m, 1),
                       static_cast<int32_t>(rng.Uniform(1, 20)),
                       static_cast<double>(rng.Uniform(5, 900))});
  }
  if (!db->CreateTable("orders", orders).ok()) return 1;

  auto session = db->Connect({});

  std::printf("--- interactive dashboard session ---\n");
  // The analyst opens the dashboard: full cube by (region, product).
  Show("cube by region x product",
       session->Execute(SalesCube(*db, {"region", "product"}, nullptr)));
  // Roll-up to region: derivable from the cached finer cube (subsumption).
  Show("roll-up to region",
       session->Execute(SalesCube(*db, {"region"}, nullptr)));
  Show("roll-up to product",
       session->Execute(SalesCube(*db, {"product"}, nullptr)));

  // Filter refinements on region, prepared once with a $region parameter:
  // cube caching with selections kicks in after it has seen the pattern.
  Status st;
  auto by_region = session->Prepare(
      SalesCube(*db, {"product"},
                Expr::Eq(Expr::Column("region"), Expr::Param("region"))),
      &st);
  if (by_region == nullptr) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  for (const char* r : {"EMEA", "APAC", "AMER", "EMEA"}) {
    Show(("revenue by product where region=" + std::string(r)).c_str(),
         by_region->Execute({{"region", std::string(r)}}));
  }

  // Paging through a ranked product list: top-N caching (the proactive
  // rewrite computes top-10000 once; pages are its prefixes).
  Query ranked = SalesCube(*db, {"product"}, nullptr);
  for (int64_t n : {10, 25, 100}) {
    Show(("top " + std::to_string(n) + " products").c_str(),
         session->Execute(ranked.TopN({{"revenue", false}}, n)));
  }

  SessionStats stats = session->stats();
  std::printf("\nsession totals: %lld queries, reuses=%lld (via "
              "subsumption=%lld), materializations=%lld\n",
              (long long)stats.queries, (long long)stats.num_reuses,
              (long long)stats.num_subsumption_reuses,
              (long long)stats.num_materialized);
  std::printf("region template: %lld executions, %lld reuses\n",
              (long long)by_region->stats().executions,
              (long long)by_region->stats().num_reuses);
  return 0;
}
