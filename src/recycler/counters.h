// The recycler's counters, declared once.
//
// Every per-query counter lives in RECYCLEDB_QUERY_COUNTERS and nowhere
// else. Each entry names the counter, its field in QueryCounts (and so
// in QueryTrace, SessionStats, TemplateStats and the driver's
// StreamStats, which all derive from QueryCounts), its engine-wide twin
// in RecyclerCounters and its meaning. Counters only the engine sees
// (evictions, the cold and fleet tiers) are listed in
// RECYCLEDB_ENGINE_COUNTERS. A counter added to a list is declared,
// summed, compared by the counter-agreement test and printed everywhere
// without another edit.
#pragma once

#include <atomic>
#include <cstdint>

namespace recycledb {

// X(Name, field, twin, doc)
//   Name    enumerator suffix in QueryCounter (kName)
//   field   QueryCounts member (keeps the historical num_* / blocks_* name)
//   twin    RecyclerCounters atomic, bumped together with the field
//   doc     what one unit of the counter is
#define RECYCLEDB_QUERY_COUNTERS(X)                                          \
  X(Reuses, num_reuses, reuses,                                              \
    "Cached results consumed (exact, subsumed, stitched and delta).")        \
  X(SubsumptionReuses, num_subsumption_reuses, subsumption_reuses,           \
    "Reuses derived by single-superset subsumption.")                        \
  X(PartialReuses, num_partial_reuses, partial_reuses,                       \
    "Reuses answered by stitching overlapping cached range slices.")         \
  X(ColdHits, num_cold_hits, cold_hits,                                      \
    "Reuses served by loading a spilled result from the cold tier.")         \
  X(Adoptions, num_adoptions, cold_adoptions,                                \
    "Cold-tier orphans (restart images or fleet peers' spills) adopted "     \
    "while preparing the query; they make a reuse servable but are not "     \
    "reuses themselves.")                                                    \
  X(DeltaReuses, num_delta_reuses, delta_hits,                               \
    "Reuses of append-stale entries served as cached prefix plus delta.")    \
  X(AggMerges, num_agg_merges, agg_merges,                                   \
    "Delta reuses that merged cached aggregate state with the delta "        \
    "window (no base-row rescan).")                                          \
  X(IndexServed, num_index_served, index_served,                             \
    "Statements served from the exact-hit index, exact or delta-refreshed: " \
    "MatchTree skipped, and the front end from the probe on (a SQL text "    \
    "key skips parsing too).")                                               \
  X(Materialized, num_materialized, materializations,                        \
    "Results added to the cache.")                                           \
  X(SpecAborted, num_spec_aborted, spec_aborts,                              \
    "Speculative stores that backed off.")                                   \
  X(Stalls, num_stalls, stalls,                                              \
    "Waits on another query's in-flight materialization.")                   \
  X(BlocksScanned, blocks_scanned, blocks_scanned,                           \
    "1024-row scan blocks read.")                                            \
  X(BlocksPruned, blocks_pruned, blocks_pruned,                              \
    "1024-row scan blocks skipped by zone-map pruning (pruned + scanned = "  \
    "blocks the scans would touch without zone maps).")

// X(name, doc): engine-wide counters with no per-query field.
#define RECYCLEDB_ENGINE_COUNTERS(X)                                         \
  X(queries, "Queries completed (OnComplete calls).")                        \
  X(evictions, "Hot-cache evictions.")                                       \
  X(invalidations, "Entries dropped by table replacement or appends.")      \
  X(proactive_rewrites, "Proactive rewrites executed.")                      \
  X(cold_spills, "Spill files written (evictions and checkpoints).")         \
  X(cold_readmissions, "Cold entries promoted back into the hot cache.")     \
  X(cold_evictions, "Cold entries dropped by the second-chance sweep.")      \
  X(cold_load_errors, "Corrupt or unreadable spill files dropped.")          \
  X(cold_slice_loads,                                                        \
    "Cold entries consumed as a filtered slice of the encoded image.")       \
  X(cold_orphans_rebuilt,                                                    \
    "Graph nodes rebuilt from an orphan slice's select descriptor.")         \
  X(cold_orphan_key_mismatches,                                              \
    "Orphan slices whose rebuilt node's key differed from the file's "       \
    "(never published).")                                                    \
  X(cold_spill_raw_bytes, "Uncompressed bytes of spill files written.")      \
  X(cold_spill_stored_bytes, "On-disk bytes of spill files written.")        \
  X(fleet_refreshes, "RefreshFleet rounds completed.")                       \
  X(fleet_peer_entries, "Peer spill files tracked as adoptable orphans.")    \
  X(fleet_lease_takeovers, "Dead-owner entries claimed by lease takeover.")  \
  X(fleet_log_bytes_read,                                                    \
    "Manifest log bytes read by fleet refreshes (0 for a refresh that "     \
    "finds nothing appended).")

/// Identifies one per-query counter (an index into kQueryCounters).
enum class QueryCounter : int {
#define RECYCLEDB_COUNTER_ENUM(Name, field, twin, doc) k##Name,
  RECYCLEDB_QUERY_COUNTERS(RECYCLEDB_COUNTER_ENUM)
#undef RECYCLEDB_COUNTER_ENUM
};

/// The per-query counts: one query's in QueryTrace, a sum of queries' in
/// SessionStats, TemplateStats and StreamStats.
struct QueryCounts {
#define RECYCLEDB_COUNTER_FIELD(Name, field, twin, doc) \
  int64_t field = 0;
  RECYCLEDB_QUERY_COUNTERS(RECYCLEDB_COUNTER_FIELD)
#undef RECYCLEDB_COUNTER_FIELD

  /// Adds every count of `other`.
  QueryCounts& operator+=(const QueryCounts& other) {
#define RECYCLEDB_COUNTER_ADD(Name, field, twin, doc) \
  field += other.field;
    RECYCLEDB_QUERY_COUNTERS(RECYCLEDB_COUNTER_ADD)
#undef RECYCLEDB_COUNTER_ADD
    return *this;
  }
};

/// Engine-wide counters across all queries (reported by benches). Each
/// per-query counter's twin moves together with the trace field.
struct RecyclerCounters {
#define RECYCLEDB_COUNTER_TWIN(Name, field, twin, doc) \
  std::atomic<int64_t> twin{0};
  RECYCLEDB_QUERY_COUNTERS(RECYCLEDB_COUNTER_TWIN)
#undef RECYCLEDB_COUNTER_TWIN
#define RECYCLEDB_COUNTER_ATOMIC(name, doc) std::atomic<int64_t> name{0};
  RECYCLEDB_ENGINE_COUNTERS(RECYCLEDB_COUNTER_ATOMIC)
#undef RECYCLEDB_COUNTER_ATOMIC
};

/// One per-query counter, for code that iterates the list at run time.
struct CounterInfo {
  const char* field_name;  ///< "num_reuses", ...
  int64_t QueryCounts::*field;
  std::atomic<int64_t> RecyclerCounters::*twin;
};

/// Every per-query counter, in QueryCounter order.
inline constexpr CounterInfo kQueryCounters[] = {
#define RECYCLEDB_COUNTER_INFO(Name, field, twin, doc) \
  {#field, &QueryCounts::field, &RecyclerCounters::twin},
    RECYCLEDB_QUERY_COUNTERS(RECYCLEDB_COUNTER_INFO)
#undef RECYCLEDB_COUNTER_INFO
};

}  // namespace recycledb
