// QGEN re-implementation: spec-conformant substitution-parameter domains
// for the 22 TPC-H query patterns.
//
// The TPC-H throughput test's sharing potential comes from these domains:
// each pattern has a limited number of valid parameter values, so
// concurrent streams frequently draw colliding parameters (§V).
#pragma once

#include "common/rng.h"
#include "tpch/queries.h"
#include "workload/driver.h"

namespace recycledb {
namespace tpch {

/// Draws spec-conformant parameters for query `query` (1..22).
QueryParams GenerateParams(int query, Rng* rng, double scale_factor);

/// A stream is a permutation of the 22 patterns with fresh parameters
/// (the spec's per-stream ordering is approximated by a seeded shuffle).
struct StreamQuery {
  int query;  // 1..22
  QueryParams params;
};
std::vector<StreamQuery> GenerateStream(int stream_id, Rng* rng,
                                        double scale_factor);

/// Driver-ready throughput-test streams: `num_streams` spec-conformant
/// permutation streams with fresh parameters, seeded per stream so every
/// recycler mode replays the identical workload. The facade-level entry
/// point examples and benches share.
std::vector<workload::StreamSpec> MakeStreams(int num_streams,
                                              double scale_factor,
                                              uint64_t seed = 77);

}  // namespace tpch
}  // namespace recycledb
