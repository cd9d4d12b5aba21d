#include "skyserver/skyserver.h"

#include <cmath>
#include <cstdlib>

#include "common/macros.h"
#include "common/string_util.h"
#include "plan/table_function.h"

namespace recycledb {
namespace skyserver {

namespace {

Schema PhotoPrimarySchema() {
  return Schema({{"objID", TypeId::kInt64},
                 {"run", TypeId::kInt32},
                 {"rerun", TypeId::kInt32},
                 {"camcol", TypeId::kInt32},
                 {"field", TypeId::kInt32},
                 {"obj", TypeId::kInt32},
                 {"type", TypeId::kInt32},
                 {"ra", TypeId::kDouble},
                 {"dec", TypeId::kDouble},
                 {"u_mag", TypeId::kDouble},
                 {"g_mag", TypeId::kDouble},
                 {"r_mag", TypeId::kDouble}});
}

Schema NearbySchema() {
  return Schema({{"nearby_objID", TypeId::kInt64},
                 {"distance", TypeId::kDouble}});
}

constexpr double kDegToRad = 3.14159265358979323846 / 180.0;

/// Angular distance in degrees between two (ra, dec) points; the
/// deliberately-heavy spherical trigonometry makes the function call the
/// workload's expensive common subexpression, like the real SkyServer UDF.
double AngularDistanceDeg(double ra1, double dec1, double ra2, double dec2) {
  double x1 = std::cos(dec1 * kDegToRad) * std::cos(ra1 * kDegToRad);
  double y1 = std::cos(dec1 * kDegToRad) * std::sin(ra1 * kDegToRad);
  double z1 = std::sin(dec1 * kDegToRad);
  double x2 = std::cos(dec2 * kDegToRad) * std::cos(ra2 * kDegToRad);
  double y2 = std::cos(dec2 * kDegToRad) * std::sin(ra2 * kDegToRad);
  double z2 = std::sin(dec2 * kDegToRad);
  double dot = x1 * x2 + y1 * y2 + z1 * z2;
  dot = std::max(-1.0, std::min(1.0, dot));
  return std::acos(dot) / kDegToRad;
}

TablePtr EvalNearby(const Catalog& catalog, const std::vector<Datum>& args) {
  RDB_CHECK_MSG(args.size() == 3, "fGetNearbyObjEq(ra, dec, r)");
  double ra = DatumAsDouble(args[0]);
  double dec = DatumAsDouble(args[1]);
  double radius = DatumAsDouble(args[2]);
  TablePtr photo = catalog.GetTable("photoprimary");
  RDB_CHECK_MSG(photo != nullptr, "photoprimary not registered");
  const int64_t* ids = photo->ColumnByName("objID")->Raw<int64_t>();
  const double* ras = photo->ColumnByName("ra")->Raw<double>();
  const double* decs = photo->ColumnByName("dec")->Raw<double>();
  TablePtr result = MakeTable(NearbySchema());
  for (int64_t i = 0; i < photo->num_rows(); ++i) {
    double d = AngularDistanceDeg(ra, dec, ras[i], decs[i]);
    if (d <= radius) {
      result->AppendRow({ids[i], d});
    }
  }
  return result;
}

}  // namespace

int64_t ObjectsFromEnv(int64_t fallback) {
  const char* env = std::getenv("RECYCLEDB_SKY_OBJECTS");
  if (env == nullptr || env[0] == '\0') return fallback;
  int64_t n = std::atoll(env);
  return n > 0 ? n : fallback;
}

void Setup(int64_t num_objects, Catalog* catalog, uint64_t seed) {
  Rng rng(seed);
  TablePtr photo = MakeTable(PhotoPrimarySchema());
  for (int64_t i = 1; i <= num_objects; ++i) {
    // Cluster ~5% of the sky near the canonical (195, 2.5) cone so the
    // dominant query returns a handful of rows, like the paper's LIMIT 10
    // queries over fGetNearbyObjEq(195, 2.5, 0.5).
    double ra, dec;
    if (rng.Uniform(0, 19) == 0) {
      ra = 195.0 + (rng.NextDouble() - 0.5) * 20.0;
      dec = 2.5 + (rng.NextDouble() - 0.5) * 10.0;
    } else {
      ra = rng.NextDouble() * 360.0;
      dec = (rng.NextDouble() - 0.5) * 180.0;
    }
    photo->AppendRow({i,
                      static_cast<int32_t>(rng.Uniform(94, 8162)),
                      static_cast<int32_t>(rng.Uniform(0, 301)),
                      static_cast<int32_t>(rng.Uniform(1, 6)),
                      static_cast<int32_t>(rng.Uniform(11, 1000)),
                      static_cast<int32_t>(rng.Uniform(0, 1000)),
                      static_cast<int32_t>(rng.Uniform(0, 9)),
                      ra, dec,
                      10.0 + rng.NextDouble() * 15.0,
                      10.0 + rng.NextDouble() * 15.0,
                      10.0 + rng.NextDouble() * 15.0});
  }
  RDB_CHECK(catalog->RegisterTable("photoprimary", photo).ok());

  TableFunction fn;
  fn.name = "fGetNearbyObjEq";
  fn.schema_fn = [](const std::vector<Datum>&) { return NearbySchema(); };
  fn.eval_fn = EvalNearby;
  fn.base_tables = {"photoprimary"};
  fn.arg_types = {TypeId::kDouble, TypeId::kDouble, TypeId::kDouble};
  TableFunctionRegistry::Global().Register(fn);
}

namespace {

/// The dominant pattern (the paper's most frequent log query):
/// SELECT p.<cols> FROM fGetNearbyObjEq(ra,dec,r) n, PhotoPrimary p
/// WHERE n.objID = p.objID LIMIT k;
PlanPtr NearbyJoinQuery(double ra, double dec, double r,
                        std::vector<std::string> cols, int64_t limit) {
  PlanPtr nearby = PlanNode::FunctionScan("fGetNearbyObjEq", {ra, dec, r});
  PlanPtr photo = PlanNode::Scan("photoprimary", std::move(cols));
  PlanPtr join = PlanNode::HashJoin(nearby, photo, JoinKind::kInner,
                                    {"nearby_objID"}, {"objID"});
  return PlanNode::Limit(join, limit);
}

}  // namespace

std::vector<SkyQuery> GenerateWorkload(int num_queries, Rng* rng,
                                       double dominant_fraction) {
  // Column-set / limit variants sharing the dominant function call.
  const std::vector<std::vector<std::string>> col_variants = {
      {"objID", "run", "rerun", "camcol", "field", "obj", "type"},
      {"objID", "ra", "dec", "type"},
      {"objID", "u_mag", "g_mag", "r_mag"},
      {"objID", "run", "field", "ra", "dec"},
      {"objID", "type", "r_mag"},
  };
  std::vector<SkyQuery> workload;
  workload.reserve(num_queries);
  for (int i = 0; i < num_queries; ++i) {
    bool dominant = rng->NextDouble() < dominant_fraction;
    SkyQuery q;
    q.dominant = dominant;
    if (dominant) {
      q.plan = NearbyJoinQuery(195.0, 2.5, 0.5, col_variants[0], 10);
    } else {
      int v = static_cast<int>(rng->Uniform(1, 4));
      int64_t limit = 5 * rng->Uniform(1, 4);
      q.plan = NearbyJoinQuery(195.0, 2.5, 0.5, col_variants[v], limit);
    }
    workload.push_back(std::move(q));
  }
  return workload;
}

std::vector<SkyQuery> GenerateRegionSweep(int num_queries, Rng* rng,
                                          double window_deg,
                                          double step_deg) {
  // Fixed declination band around the clustered region; the RA window
  // drifts by step_deg per query with small jitter, so neighbours
  // overlap by ~(window - step) / window of their width.
  const double dec_lo = -2.5, dec_hi = 7.5;
  std::vector<SkyQuery> workload;
  workload.reserve(num_queries);
  for (int i = 0; i < num_queries; ++i) {
    double lo = 185.0 + step_deg * i + rng->NextDouble() * 0.25 * step_deg;
    double hi = lo + window_deg;
    ExprPtr band =
        Expr::And(Expr::Ge(Expr::Column("dec"), Expr::Literal(dec_lo)),
                  Expr::Lt(Expr::Column("dec"), Expr::Literal(dec_hi)));
    ExprPtr window =
        Expr::And(Expr::Ge(Expr::Column("ra"), Expr::Literal(lo)),
                  Expr::Lt(Expr::Column("ra"), Expr::Literal(hi)));
    SkyQuery q;
    q.dominant = false;
    q.plan = PlanNode::Select(
        PlanNode::Scan("photoprimary", {"objID", "ra", "dec", "type"}),
        Expr::And(band, window));
    workload.push_back(std::move(q));
  }
  return workload;
}

std::vector<std::string> GenerateRegionSweepSql(int num_queries, Rng* rng,
                                                double window_deg,
                                                double step_deg) {
  // Same band/drift/jitter formulas as GenerateRegionSweep, rendered as
  // SQL. %.6f keeps the jittered bounds well above double-rounding noise
  // while the text stays stable for trace fingerprints and goldens.
  // SELECT * (not a column list) so lowering emits no Project and the
  // plan root stays the range Select — the shape partial stitching keys
  // on, matching the plan-built sweep.
  std::vector<std::string> sql;
  sql.reserve(num_queries);
  for (int i = 0; i < num_queries; ++i) {
    double lo = 185.0 + step_deg * i + rng->NextDouble() * 0.25 * step_deg;
    double hi = lo + window_deg;
    sql.push_back(StrFormat(
        "SELECT * FROM photoprimary"
        " WHERE dec >= -2.5 AND dec < 7.5 AND ra >= %.6f AND ra < %.6f",
        lo, hi));
  }
  return sql;
}

Query ConeSearchTemplate(std::vector<std::string> columns, int64_t limit) {
  Query nearby = Query::FunctionScan(
      "fGetNearbyObjEq",
      {Expr::Param("ra"), Expr::Param("dec"), Expr::Param("radius")});
  Query photo = Query::Scan("photoprimary", std::move(columns));
  return nearby
      .Join(photo, JoinKind::kInner, {"nearby_objID"}, {"objID"})
      .Limit(limit);
}

std::vector<workload::StreamSpec> MakeStreams(int num_streams,
                                              int queries_per_stream,
                                              uint64_t seed) {
  std::vector<workload::StreamSpec> streams;
  streams.reserve(num_streams);
  for (int s = 0; s < num_streams; ++s) {
    Rng rng(seed + static_cast<uint64_t>(s) * 7919ULL);
    workload::StreamSpec spec;
    for (auto& q : GenerateWorkload(queries_per_stream, &rng)) {
      spec.labels.push_back(q.dominant ? "sky-dom" : "sky-var");
      spec.plans.push_back(std::move(q.plan));
    }
    streams.push_back(std::move(spec));
  }
  return streams;
}

}  // namespace skyserver
}  // namespace recycledb
