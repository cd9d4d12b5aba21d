// Synthetic SkyServer workload (§V Fig. 6).
//
// Substitution (see DESIGN.md): the 100GB SDSS DR7 subset is replaced by a
// synthetic PhotoPrimary-like sky catalog, and fGetNearbyObjEq(ra, dec, r)
// is implemented as an expensive cone-search table function over it. The
// 100-query log reproduces the structural property the paper's workload
// has: one dominant query pattern whose instances share the computation
// of fGetNearbyObjEq(195, 2.5, 0.5) and mostly also the tiny final result.
#pragma once

#include <cstdint>
#include <vector>

#include "api/query.h"
#include "common/rng.h"
#include "plan/plan.h"
#include "storage/catalog.h"
#include "workload/driver.h"

namespace recycledb {
namespace skyserver {

/// Generates the photoprimary table (`num_objects` rows) into `catalog`
/// and registers the fGetNearbyObjEq table function. Deterministic.
void Setup(int64_t num_objects, Catalog* catalog, uint64_t seed = 20130408);

/// Default object count used by benches (env RECYCLEDB_SKY_OBJECTS).
int64_t ObjectsFromEnv(int64_t fallback = 300000);

/// One query of the log.
struct SkyQuery {
  PlanPtr plan;
  bool dominant;  // instance of the dominant pattern (exact repeat)
};

/// Generates the 100-query workload: `dominant_fraction` of the queries
/// are exact repeats of the dominant pattern; the rest share the same
/// fGetNearbyObjEq(195, 2.5, 0.5) call but differ in projected columns
/// and LIMIT (per §V: "queries are either identical ... or share the
/// computation of fGetNearbyObjEq(195, 2.5, 0.5)").
std::vector<SkyQuery> GenerateWorkload(int num_queries, Rng* rng,
                                       double dominant_fraction = 0.7);

/// Overlapping sky-region sweep: `num_queries` box selections over the
/// photoprimary catalog inside a fixed declination band, with the RA
/// window drifting by a fraction of its width per query. Consecutive
/// regions overlap heavily but none is contained in an earlier one —
/// exact matching and single-superset subsumption both miss, while the
/// recycler's partial-reuse stitching serves each window from the cached
/// neighbours plus a delta scan. Deterministic given `rng`.
std::vector<SkyQuery> GenerateRegionSweep(int num_queries, Rng* rng,
                                          double window_deg = 8.0,
                                          double step_deg = 1.0);

/// The dominant pattern as a parameterized facade template:
///   SELECT p.<columns> FROM fGetNearbyObjEq($ra, $dec, $radius) n,
///          photoprimary p WHERE n.objID = p.objID LIMIT limit
/// Prepare it once, rebind the cone per request — exactly the shape the
/// portal's query log has (§V: most requests repeat identical constants).
Query ConeSearchTemplate(std::vector<std::string> columns = {
                             "objID", "run", "rerun", "camcol", "field",
                             "obj", "type"},
                         int64_t limit = 10);

/// Driver-ready SkyServer streams drawn from the synthetic log generator
/// (dominant exact repeats + variants sharing the cone search).
std::vector<workload::StreamSpec> MakeStreams(int num_streams,
                                              int queries_per_stream,
                                              uint64_t seed = 42);

/// SQL texts of the overlapping region sweep (same formulas and RNG
/// consumption as GenerateRegionSweep, rendered as replayable SQL over
/// photoprimary). The trace/golden corpora use this form so every query
/// has a recordable statement text.
std::vector<std::string> GenerateRegionSweepSql(int num_queries, Rng* rng,
                                                double window_deg = 8.0,
                                                double step_deg = 1.0);

}  // namespace skyserver
}  // namespace recycledb
