// The recycler graph: an AND-DAG of relational operators unifying all past
// optimized query plans (§II, §III-A/B of the paper).
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "expr/range.h"
#include "plan/plan.h"
#include "storage/table.h"

namespace recycledb {

/// Materialization state of a recycler-graph node's result.
enum class MatState : uint8_t {
  kNone,      // not materialized
  kInFlight,  // some query is currently computing + materializing it
  kCached,    // result available in the recycler cache (hot tier)
  kCold,      // result spilled to the on-disk cold tier; reuse lookups
              // lazily re-admit it (load -> promote -> serve)
};

/// Adds `delta` to an atomic double (C++17 has no fetch_add for doubles),
/// clamping the result at `floor`.
inline void AtomicAddClamped(std::atomic<double>& a, double delta,
                             double floor) {
  double old = a.load(std::memory_order_relaxed);
  double next = std::max(floor, old + delta);
  while (!a.compare_exchange_weak(old, next, std::memory_order_relaxed)) {
    next = std::max(floor, old + delta);
  }
}

/// Multiplies an atomic double by `factor`.
inline void AtomicScale(std::atomic<double>& a, double factor) {
  double old = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(old, old * factor,
                                  std::memory_order_relaxed)) {
  }
}

/// As-of version of one base table at the time a cached result was
/// computed: the catalog entry's replace-epoch plus its row high-water
/// mark. A cached result stamped {epoch, rows} was computed from exactly
/// rows [0, rows) of that table version (see DESIGN.md "Delta
/// maintenance").
struct TableStamp {
  uint64_t epoch = 0;
  int64_t rows = 0;
};

/// A node of the recycler graph: one relational operator with parameters,
/// annotated with reference statistics and its cached result (if any).
///
/// The node's parameters name no query's columns: a column they read is
/// its ordinal in the output of the child it reads ("#3", OrdinalName),
/// so queries that alias the same columns differently share the node.
/// Only scan leaves carry names, their base table's, which are stable.
///
/// Field guards (see the class comment below for the full discipline):
///  - identity fields (id..base_tables) are immutable once the
///    node is published under the exclusive graph lock; shared-lock
///    readers may touch them freely.
///  - `parents` is structure: mutated only under the exclusive graph
///    lock, read under at least the shared lock.
///  - the statistics block is atomic: no lock is needed for individual
///    reads/writes. Node *lifetime* is what callers must respect: a
///    node pointer stays valid while holding the graph lock (any mode),
///    or between Prepare and OnComplete of the query that matched it —
///    TruncateGraph, the only node-freeing operation, requires that no
///    query be in that window (see Recycler::TruncateGraph). Concurrent
///    updates interleave per-field rather than per-record; the stats are
///    heuristic inputs, so per-record atomicity is deliberately not
///    provided.
///  - `mat_state` transitions kNone->kInFlight by lone CAS (claiming a
///    store); every other transition happens under the node's mat shard
///    mutex and signals the shard condvar.
///  - `cached` (the TablePtr itself) is read and written only under the
///    node's mat shard mutex; `cached_bytes` is atomic so Stats() and the
///    cache can read it without that mutex.
struct RGNode {
  int64_t id = 0;
  OpType type = OpType::kScan;

  /// Positional parameter key (exact-match identity together with `type`
  /// and `children`): the defining plan node's AppendParamKey with
  /// `positional` set, so it names no query's columns.
  std::string param_key;

  std::vector<RGNode*> children;
  /// Parent hash index (the paper's "small hash-indexes attached to each
  /// node"): NodeKeyHash(type, param_key) -> parent node.
  std::unordered_multimap<uint64_t, RGNode*> parents;

  /// The defining plan node's PositionalParams: a childless copy with
  /// every column reference an ordinal of the child's output. Keeps the
  /// parameters (predicates, group-by lists, aggregate items...)
  /// inspectable for subsumption and rewrites.
  PlanPtr param_node;
  /// Select nodes only: the keys of param_node's conjuncts over the
  /// child's output (ConjunctKeys) with their signature, taken once at
  /// insert (InsertOne, RebuildOrphanSlice) so derived-reuse lookups can
  /// rule a candidate out without re-encoding them, most often on the
  /// signature alone, which the derived-reuse index keeps beside each
  /// parent (MaySubsume, subsumption.h; IntervalIndex::Subsumers).
  ConjunctSet conjunct_keys;
  /// Single-child Select nodes only: the range decomposition of
  /// param_node's predicate (ExtractRangeSpecs over PositionalInput of
  /// the child, so each spec's ordinal is set), filled once
  /// under range_specs_once when the node is first materialized
  /// (IntervalIndex::Insert), so a Select that never is keeps none. The
  /// interval index points at these specs while the node is materialized
  /// instead of copying them.
  std::once_flag range_specs_once;
  std::vector<RangeSpec> range_specs;

  /// Output column types, positionally matching the defining plan node's
  /// output schema.
  std::vector<TypeId> output_types;

  /// Base tables under this subtree (for update invalidation).
  std::set<std::string> base_tables;

  // --- statistics (atomic; shared graph lock suffices) ----------------
  /// Measured cost to compute this result from base tables (Eq. 2 input).
  std::atomic<double> bcost_ms{0};
  std::atomic<bool> has_bcost{false};
  /// Measured output cardinality (last run).
  std::atomic<int64_t> rows{-1};
  /// Estimated / measured result footprint in bytes.
  std::atomic<double> size_bytes{0};
  std::atomic<bool> has_size{false};
  /// Importance factor h_R (Eq. 3/4), stored unaged; age with h_epoch.
  std::atomic<double> h{0};
  std::atomic<int64_t> h_epoch{0};
  /// Total times a query exactly-matched this node (diagnostics).
  std::atomic<int64_t> match_count{0};
  /// Epoch of the last match/insert touching this node (drives
  /// truncation: §II "removing subtrees that have not been accessed for
  /// some time").
  std::atomic<int64_t> last_access_epoch{0};
  /// Memo of Recycler::CanonicalSubtreeKey, filled on first use. The key
  /// reads only types, param_key and children, which never change after
  /// insertion.
  std::once_flag canonical_key_once;
  std::string canonical_key;
  /// Cold-tier orphan generation at which this node's parents were last
  /// probed for adoption (Recycler::MaybeAdoptOrphanParents); parents
  /// inserted later were probed at their own insert.
  std::atomic<int64_t> orphan_walk_gen{-1};

  // --- materialization state ------------------------------------------
  /// kNone->kInFlight is claimed by bare CAS (losers skip their store);
  /// all other transitions happen under the mat shard mutex and signal
  /// the shard condvar so stalled queries wake.
  std::atomic<MatState> mat_state{MatState::kNone};
  /// Guarded by the node's mat shard mutex.
  TablePtr cached;  // column names are those of the query that produced it
  std::atomic<int64_t> cached_bytes{0};
  /// Per-base-table as-of versions of the materialized result (one entry
  /// per name in `base_tables`), written when the result is admitted and
  /// cleared when the entry drops back to kNone. Guarded by the node's
  /// mat shard mutex, like `cached`; meaningful only while mat_state is
  /// kCached/kCold (the stamp outlives `cached` across the spill tier).
  /// A base table without a stamp makes the entry unjudgeable:
  /// CheckFreshness reports it kIncompatible and OnTableAppended evicts
  /// it. The map is legitimately empty only for a subtree that reads no
  /// base table.
  std::map<std::string, TableStamp> stamps;
};

/// The input a node's positional parameters read, as a schema: `child`'s
/// output types under their ordinal names (OrdinalName). A graph node's
/// stored parameters key over it exactly as the query node they came
/// from keys over its child's output.
Schema PositionalInput(const RGNode& child);

/// The graph's index hash of a node: its op type and positional param
/// key. Both the leaf index and the parent indexes are keyed by it; a
/// collision is resolved by comparing the key bytes.
uint64_t NodeKeyHash(OpType type, std::string_view param_key);

/// Statistics snapshot of the graph (diagnostics & Fig. 10 bench).
struct GraphStats {
  int64_t num_nodes = 0;
  int64_t num_leaves = 0;
  int64_t num_cached = 0;
  int64_t cached_bytes = 0;
  /// Nodes whose result currently lives only in the cold tier.
  int64_t num_cold = 0;
};

/// The recycler graph container.
///
/// Locking discipline (lock order: graph mutex -> Recycler cache mutex ->
/// mat shard mutex; see DESIGN.md "Concurrency model"):
///
///  - `mutex()` (shared_mutex) guards the graph *structure*: the node
///    list, leaf index and parent indexes. Matching runs
///    under the shared lock; insertion and truncation take the exclusive
///    lock and *re-validate* the match candidates before inserting (the
///    paper's backwards validation at node granularity, collapsed into
///    revalidate-under-exclusive-lock: if an exactly matching node
///    appeared since the shared-lock match, the insert aborts and adopts
///    it). Per-node statistics are atomics, so statistic updates — h
///    bumps, cost/size annotations — only need the shared lock; fully
///    matched queries never serialize on the exclusive lock.
///
///  - Materialization state transitions use an array of shard mutexes +
///    condvars (sharded by node id) so queries can stall on in-flight
///    results without holding the graph lock and without funnelling every
///    stall/wake through one global mutex.
class RecyclerGraph {
 public:
  explicit RecyclerGraph(double aging_alpha = 1.0)
      : aging_alpha_(aging_alpha) {}

  // Non-copyable.
  RecyclerGraph(const RecyclerGraph&) = delete;
  RecyclerGraph& operator=(const RecyclerGraph&) = delete;

  /// Shared lock guarding graph structure (see class comment).
  std::shared_mutex& mutex() { return mu_; }

  /// Mutex + condvar shard guarding MatState transitions and `cached` of
  /// the given node. Sharded by node id to spread contention.
  struct MatShard {
    std::mutex mu;
    std::condition_variable cv;
  };
  MatShard& mat_shard(const RGNode* node) {
    return mat_shards_[static_cast<uint64_t>(node->id) % kNumMatShards];
  }

  /// Advances the aging epoch (call once per query invocation) and
  /// returns the new epoch.
  int64_t AdvanceEpoch() { return ++epoch_; }
  int64_t epoch() const { return epoch_.load(); }
  double aging_alpha() const { return aging_alpha_; }

  /// The benefit stamp: the epoch plus the number of NoteBenefitWrite
  /// calls. Both only grow, so the stamp reads the same twice only if no
  /// input of Recycler::BenefitOf was written in between (the cache
  /// reuses a size group's benefit ranking on that; cache.h).
  uint64_t benefit_stamp() const {
    return static_cast<uint64_t>(epoch_.load()) + benefit_writes_.load();
  }
  /// Call after every write of a field BenefitOf reads: h or h_epoch
  /// (FoldAging calls it itself), bcost_ms, rows, size_bytes/has_size,
  /// cached_bytes, and mat_state (SetMatState). One call may follow
  /// several writes.
  void NoteBenefitWrite() { benefit_writes_.fetch_add(1); }

  /// h of `node` aged to the current epoch (Eq. 5, lazy). Caller holds at
  /// least the shared lock on mutex().
  double AgedH(const RGNode* node) const;

  /// Folds pending aging into node->h and stamps the epoch. Caller holds
  /// at least the shared lock; concurrent folds race benignly (the CAS on
  /// h_epoch elects one folder per epoch advance; an h bump landing
  /// between the election and the scale is scaled once too often — an
  /// acceptable imprecision in a decay heuristic).
  void FoldAging(RGNode* node);

  /// Leaves whose NodeKeyHash is `key_hash`. Caller holds a lock.
  auto Leaves(uint64_t key_hash) const {
    return leaf_index_.equal_range(key_hash);
  }

  /// Allocates a node (exclusive lock held by caller) and registers it
  /// under its NodeKeyHash: in the leaf index when it has no children,
  /// else in each child's parent index.
  RGNode* AddNode(std::unique_ptr<RGNode> node);

  /// Next node id (exclusive lock held by caller).
  int64_t NextId() { return next_id_++; }

  /// All nodes (shared lock held by caller); for diagnostics and tests.
  const std::vector<std::unique_ptr<RGNode>>& nodes() const { return nodes_; }

  /// Removes every node that (a) has not been accessed for at least
  /// `idle_epochs` epochs, (b) is not cached or in flight, and (c) has no
  /// surviving parents (subtrees are removed top-down so shared prefixes
  /// still referenced by fresh parents are kept). Returns the number of
  /// nodes removed. Caller holds the exclusive lock.
  int64_t Truncate(int64_t idle_epochs);

  /// Node count, O(1) and lock-free (Stats() walks every node under the
  /// shared lock).
  int64_t num_nodes() const { return num_nodes_.load(); }

  GraphStats Stats() const;

 private:
  static constexpr uint64_t kNumMatShards = 16;

  mutable std::shared_mutex mu_;
  MatShard mat_shards_[kNumMatShards];

  std::vector<std::unique_ptr<RGNode>> nodes_;
  /// nodes_.size(), kept in step under the exclusive lock.
  std::atomic<int64_t> num_nodes_{0};
  /// Global leaf hash table (the paper's "global hash table for
  /// efficiently matching table scans"): NodeKeyHash -> nodes.
  std::unordered_multimap<uint64_t, RGNode*> leaf_index_;

  std::atomic<int64_t> epoch_{0};
  std::atomic<uint64_t> benefit_writes_{0};
  int64_t next_id_ = 1;
  double aging_alpha_;
};

}  // namespace recycledb
