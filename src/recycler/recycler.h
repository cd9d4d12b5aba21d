// The recycler: matching, benefit-based result selection, speculation,
// subsumption and proactive rewriting for a pipelined query engine.
// This is the paper's primary contribution (Sections II-IV).
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"
#include "exec/executor.h"
#include "recycler/cache.h"
#include "recycler/cold_tier.h"
#include "recycler/counters.h"
#include "recycler/delta.h"
#include "recycler/graph.h"
#include "recycler/interval_index.h"

namespace recycledb {

/// Execution modes evaluated in the paper (§V):
///  kOff        - no recycling (the "naive"/OFF baseline).
///  kHistory    - HIST: materialize only results seen in previous queries,
///                decided at rewrite time from recorded statistics.
///  kSpeculation- SPEC: HIST + speculative stores with run-time estimates
///                on never-seen expensive/small results.
///  kProactive  - PA: SPEC + proactive query rewriting (top-N caching,
///                cube caching with selections / with binning).
enum class RecyclerMode : uint8_t { kOff, kHistory, kSpeculation, kProactive };

const char* RecyclerModeName(RecyclerMode mode);

/// Tunables for the recycler.
struct RecyclerConfig {
  RecyclerMode mode = RecyclerMode::kSpeculation;
  /// Recycler cache budget in bytes; < 0 means unlimited.
  int64_t cache_bytes = 256ll << 20;
  /// Aging factor alpha (Eq. 5); 1.0 disables aging.
  double aging_alpha = 1.0;
  /// Hard cap for speculative buffering per store operator.
  int64_t speculation_buffer_cap = 64ll << 20;
  /// Enables subsumption-based reuse (§IV-A).
  bool enable_subsumption = true;
  /// Enables partial reuse of range selections (stitching overlapping
  /// cached slices with a compensated delta scan). Independent of
  /// enable_subsumption: disabling single-superset subsumption alone
  /// does not turn stitching off.
  bool enable_partial_reuse = true;
  /// Upper bound on stalling for a concurrent materialization.
  int64_t stall_timeout_ms = 30000;
  /// Replacement policy. kBenefit is the paper's. kLru stays only for
  /// the cold-tier tests, whose evictions must not depend on the cost
  /// model's per-process calibration probe; it goes once speculative
  /// admission no longer does.
  CachePolicy cache_policy = CachePolicy::kBenefit;
  /// Cold-tier spill directory; empty disables the tier. When set, hot
  /// evictions spill still-beneficial results to disk, a shutdown
  /// checkpoint persists the hot cache, and Database::Open over the same
  /// directory warms the recycler up from the previous process's
  /// coverage. Without a fleet_instance the directory must be private to
  /// one engine instance; with one, it is shared by the fleet. Either way
  /// it must stay paired with the same base data (ReplaceTable purges).
  std::string spill_dir;
  /// Byte cap on the spill directory (second-chance replacement).
  /// Must be positive when spill_dir is set.
  int64_t cold_tier_capacity_bytes = 1ll << 30;
  /// Compress cold-tier spill payloads (per-column codecs).
  /// Stored results are bit-identical either way; compression only
  /// changes how many entries fit under cold_tier_capacity_bytes.
  bool compress_spill = true;
  // --- fleet tier (shared cold directory) ------------------------------
  // Every cold tier records its spill files in the directory's manifest
  // log (fleet/manifest.h) under an instance id. A private tier is a
  // fleet of one under the default id.
  /// This process's identity in the manifest log: filename-safe
  /// ([A-Za-z0-9_-]) and stable across restarts, so a restarted member
  /// reclaims its own files at once. Requires spill_dir. Empty means the
  /// default id (ColdTier's kDefaultInstanceId): a private tier.
  std::string fleet_instance;
  /// Adopt-only fleet member: discover and serve peers' spills but never
  /// create, delete or lock anything in the directory (standby on a
  /// read-only mount). Implies no spills and no checkpoint. Requires
  /// spill_dir.
  bool spill_read_only = false;
  /// Fleet liveness lease; an instance that has not renewed within this
  /// window is presumed dead and its entries become claimable
  /// (stale-lease takeover). Must be positive when spill_dir is set.
  int64_t fleet_lease_ms = 30000;
  /// Consult base-table zone maps to skip scan blocks that cannot match
  /// a query's range predicate. Pruning is conservative (never skips a
  /// possibly-matching block), so results are identical either way.
  bool enable_zone_map_pruning = true;
  /// Delta maintenance of cached results under append-only growth
  /// (recycler/delta.h): cached entries stale only by appended rows are
  /// served as UnionAll(cached as-of N, delta scan over [N, now)) — or an
  /// aggregate merge for decomposable Aggregate roots — and re-admitted
  /// at the new high-water mark. When off, an append hard-invalidates
  /// every dependent entry (the pre-delta behavior). Results are
  /// bit-identical either way.
  bool enable_delta_maintenance = true;
  /// Capture the post-rewrite plan's Explain text into
  /// QueryTrace::plan_explain for every query. Off by default: the text
  /// is only needed by trace recording / golden tests and rendering it
  /// per query is not free.
  bool capture_plan_explain = false;
};

/// The reuse decision the recycler made for one query, derived uniformly
/// from the QueryTrace counters (precedence: an aggregate merge outranks
/// the generic delta flag it also sets, delta outranks stitch, and so on
/// down to the plain exact hit). One value per query even when a plan
/// consumes several cached results: the most specialized mechanism wins,
/// which is also the one whose regression a golden diff should name.
enum class ReuseMode : uint8_t {
  kNone = 0,        ///< no cached result consumed (miss / cold start)
  kExact = 1,       ///< exact hot-cache hit
  kColdReadmit = 2, ///< exact hit served by re-admitting a cold-tier entry
  kSubsumption = 3, ///< single-superset subsumption rewrite
  kPartialStitch = 4, ///< stitched UnionAll of cached slices (+ delta scan)
  kDelta = 5,       ///< append-stale entry served as cached-prefix + delta
  kAggMerge = 6,    ///< delta served as an aggregate merge (no rescan)
};

/// Stable lower-case name for `mode` ("none", "exact", "cold-readmit",
/// "subsumption", "partial-stitch", "delta", "agg-merge"). Used verbatim
/// in trace files and golden snapshots — do not reword existing names.
const char* ReuseModeName(ReuseMode mode);

/// Inverse of ReuseModeName. Returns false when `name` is not a known
/// mode name (trace files from a newer engine may carry unknown modes).
bool ParseReuseMode(const std::string& name, ReuseMode* mode);

/// Derives the uniform reuse mode from a trace's counters (see ReuseMode
/// for the precedence). Exposed so replay tooling can classify traces
/// recorded before the reuse_mode field existed.
ReuseMode ReuseModeFromCounters(const struct QueryTrace& trace);

/// Per-query observability record (session traces, trace replay and
/// Fig. 10).
/// The reuse counters come from QueryCounts (recycler/counters.h).
struct QueryTrace : QueryCounts {
  int64_t query_id = 0;
  /// Identity of the prepared-statement template this query was bound
  /// from (0 = ad-hoc query). Copied from PlanNode::template_hash.
  uint64_t template_hash = 0;
  /// Prior executions of the same template (before this query).
  int64_t template_prior_runs = 0;
  bool used_proactive = false;     // a proactive rewrite was executed
  double match_ms = 0;             // matching + insertion cost (Fig. 10)
  double stall_ms = 0;
  int64_t graph_nodes_at_match = 0;
  /// The chosen reuse mode, set uniformly by Recycler::Execute from the
  /// counters (bypass-recycler traces stay kNone).
  ReuseMode reuse_mode = ReuseMode::kNone;
  /// Hash of the TreeKey of the plan as executed (post-canonicalization,
  /// PRE-rewrite): restart-stable identity of "the same statement".
  uint64_t plan_fingerprint = 0;
  /// Explain text of the POST-rewrite plan (CachedScans, stitched
  /// unions, delta windows visible). Only filled when
  /// RecyclerConfig::capture_plan_explain is on.
  std::string plan_explain;
};

/// Reuse accounting aggregated per prepared-statement template: the unit
/// the paper's workloads share at (§V — queries differing only in
/// constants). Keyed by PlanNode::template_hash.
struct TemplateStats : QueryCounts {
  int64_t executions = 0;
  double total_ms = 0;
};

class Recycler;

/// A statement's exact-hit index key (see Recycler::ProbeExactHit): its
/// TreeKey followed by every name the plan introduces, computed from the
/// plan as submitted — unbound and unvalidated is fine.
struct StatementKey {
  std::string text;
  /// Length of the TreeKey prefix of `text`.
  size_t tree_key_size = 0;
};

/// A query prepared for execution: the (possibly rewritten) plan plus the
/// store-operator configuration, and the bookkeeping needed to annotate
/// the recycler graph after execution.
class PreparedQuery {
 public:
  PreparedQuery();
  ~PreparedQuery();

  const PlanPtr& plan() const { return plan_; }
  const std::map<const PlanNode*, StoreRequest>& stores() const {
    return stores_;
  }
  const QueryTrace& trace() const { return trace_; }

 private:
  friend class Recycler;
  friend struct RecyclerPeer;  // white-box access for tests
  struct MNode;     // matched-tree node (internal)
  struct ExactHit;  // exact-hit index entry (internal)

  PlanPtr plan_;
  std::map<const PlanNode*, StoreRequest> stores_;
  QueryTrace trace_;
  std::unique_ptr<MNode> matched_;  // matched tree over the ORIGINAL plan
  /// Executed plan node -> graph node (for post-run annotation).
  std::map<const PlanNode*, RGNode*> exec_to_gnode_;
  /// CachedScan plan node -> bcost of the subtree it replaced (Eq. 2
  /// bookkeeping: bcost must stay cost-from-base-tables).
  std::map<const PlanNode*, double> replaced_cost_;
  /// Nodes whose result this query loaded from the cold tier (a load may
  /// promote the node to hot before the reuse that consumes it is
  /// chosen, so cold-hit accounting goes through this set rather than
  /// the node's state at consumption time).
  std::unordered_set<const RGNode*> cold_loaded_;
  /// As-of snapshots of every base table the query reads, captured once
  /// at Prepare. Freshness checks compare cached-entry stamps against
  /// these, and execution pins scans to them (pins_), so one query sees
  /// one consistent version of each table even while appends land.
  std::map<std::string, TableSnapshot> snapshots_;
  Executor::TablePins pins_;
  /// The exact-hit index keys OnComplete registers for the root when it
  /// is hot by then. On the full path: the prepared plan's key, the key
  /// of the spelling it was submitted in when that differs, and the SQL
  /// text key of a Sql() statement. On an index hit: the root's keys
  /// again after a delta refresh (which drops them), with a new text key
  /// in place of the old; else only a text key the root lacked, or none.
  /// Empty in off and proactive modes.
  std::vector<std::string> exact_hit_keys_;
  /// The index entry an index hit was served from, registered again
  /// under exact_hit_keys_ (null on the full path, whose entry OnComplete
  /// builds from the matched tree).
  std::shared_ptr<const ExactHit> exact_hit_;
};

/// Matched-tree node: pairs each query plan node with its recycler-graph
/// node.
struct PreparedQuery::MNode {
  /// The query plan node; on an exact-hit index hit the entry's plan,
  /// null when the entry keeps none (a fresh hit reads no plan).
  const PlanNode* plan = nullptr;
  PlanPtr plan_ref;
  RGNode* gnode = nullptr;
  /// The node's positional param key (PlanNode::AppendParamKey), taken
  /// once by MatchTree for both of the node's MatchOne calls and its
  /// InsertOne; empty on an exact-hit index hit, which matches nothing.
  std::string param_key;
  bool inserted = false;   // inserted into the graph by this invocation
  bool replaced = false;   // subtree replaced by a cached result
  /// Subtree replaced by a stitched partial-reuse plan: the node's result
  /// is still produced in full (union of cached slices + delta scans), so
  /// unlike `replaced` it remains a store candidate — but its children
  /// are not walked for stores (delta branches may share plan nodes).
  bool stitched = false;
  /// For a node TryDeltaRewrite stitched (BuildDeltaStitch): the cached
  /// prefix the refreshed result extends (StoreRequest::prefix).
  TablePtr delta_prefix;
  /// Plan node actually present in the executed (rewritten) plan; null for
  /// nodes inside replaced subtrees.
  const PlanNode* exec_plan = nullptr;
  std::vector<std::unique_ptr<MNode>> children;
};

/// One exact-hit index entry: what MatchTree returned for a statement
/// whose root was hot when the statement completed, and what a hit needs
/// to serve without the submitted plan. The base tables to pin are the
/// root's (RGNode::base_tables).
struct PreparedQuery::ExactHit {
  RGNode* root = nullptr;
  std::vector<RGNode*> nodes;  // every matched node, pre-order (root first)
  /// The root's output names in query space: the served result's names.
  std::vector<std::string> output_names;
  /// QueryTrace::plan_fingerprint of the canonical plan.
  uint64_t plan_fingerprint = 0;
  /// The root's canonical plan, bound: what a delta refresh rewrites.
  /// Kept only for a delta-eligible root over a table that appends have
  /// grown, the only roots a refresh serves (a two-node plan holds ~6 KB;
  /// else null). A schema change evicts the root, so its binding stays
  /// valid.
  PlanPtr plan;
};

/// The recycler facade.
///
/// Thread-safe: Prepare/OnComplete/Execute may be called from concurrent
/// query streams. Lock order (never acquired in reverse): graph mutex
/// (shared for matching/stats, exclusive for structure changes) ->
/// cache mutex -> mat shard mutex. A query whose plan fully matches the
/// graph never takes the exclusive lock. See graph.h and DESIGN.md
/// ("Concurrency model") for the full discipline.
class Recycler {
 public:
  Recycler(const Catalog* catalog, RecyclerConfig config);

  /// Checkpoints the hot cache into the cold tier (see
  /// CheckpointColdTier); sessions/streams must already be quiescent.
  ~Recycler();

  /// Full pipeline for one query: Prepare -> Execute -> OnComplete.
  /// `trace_out` (optional) receives the query's trace record.
  ExecResult Execute(const PlanPtr& query_plan, QueryTrace* trace_out = nullptr);
  /// Runs an already prepared query, then OnComplete.
  ExecResult Execute(PreparedQuery* prepared, QueryTrace* trace_out = nullptr);

  /// The exact-hit index probe: serves a repeated statement keyed on
  /// `query_plan` exactly as handed in, bound or not. Reads nothing of the
  /// plan but its key and template hash, and neither binds nor validates
  /// it. On a hit — an entry whose hot root is fresh against the current
  /// snapshots of its base tables — returns the prepared root CachedScan;
  /// when the root is stale only by rows appended to one table, returns
  /// its delta refresh (TryDeltaRewrite on the entry's plan, whose store
  /// re-admits the root, and OnComplete registers its keys again). Any
  /// other entry is a miss that changes no state, so the full path makes
  /// every decision. On a miss returns null with the key in `*key`, for
  /// Prepare(plan, key) to register at completion. `text_key`, when not
  /// empty, is the TextKey of the SQL the plan was lowered from: a hit
  /// registers it for the root. Off and proactive modes never probe:
  /// null, with `*key` empty.
  std::unique_ptr<PreparedQuery> ProbeExactHit(
      const PlanPtr& query_plan, StatementKey* key,
      const std::string& text_key = std::string());

  /// ProbeExactHit keyed on SQL text before it is lexed: the same hits,
  /// under TextKey(sql), which `*text_key` receives for the caller to
  /// pass on to the plan probe and Prepare on a miss. The template hash
  /// is 0, as for every Sql() statement. Off and proactive modes never
  /// probe: null, with `*text_key` empty.
  std::unique_ptr<PreparedQuery> ProbeSqlText(std::string_view sql,
                                              std::string* text_key);

  /// Exact-hit index key of SQL text: a byte no plan key starts with
  /// (a plan key starts with an OpType byte), then the text verbatim.
  /// Never coarser than the plan key: lowering depends only on the text
  /// and the schemas of the tables it names, and a schema change evicts
  /// every root over the table. A whitespace variant keys apart.
  static std::string TextKey(std::string_view sql);

  /// Exact-hit index key of a plan, bound or not: its TreeKey, then the
  /// count of the names its Projects and Aggregates introduce and each
  /// name length-prefixed, pre-order. The tree key leaves introduced
  /// names out, yet they decide which column a later name reads: `a AS
  /// x, b AS y` and `a AS y, b AS x` key alike under the same parent
  /// predicate on `x`. A FunctionScan's output names follow from its
  /// function and arguments, which the tree key holds.
  static StatementKey ExactHitKey(const PlanNode& plan);

  /// ProbeExactHit keyed on `query_plan`, then on a miss the full path.
  std::unique_ptr<PreparedQuery> Prepare(PlanPtr query_plan);

  /// The full path: matches `query_plan` against the recycler graph,
  /// inserts unseen nodes, rewrites for reuse, and injects store
  /// operators. The input plan is not modified. Binds both input and
  /// output plans. Does not probe the exact-hit index. `key` must be
  /// ExactHitKey(*query_plan) (ProbeExactHit's on this plan), or empty:
  /// its tree-key prefix is hashed for the trace, and it is registered
  /// at completion when the root is hot. `aliases` are registered beside
  /// it: the key of the spelling the statement was submitted in, where
  /// that differs from `query_plan` (a non-canonical spelling), and the
  /// TextKey of a SQL statement; empty ones are skipped.
  std::unique_ptr<PreparedQuery> Prepare(
      PlanPtr query_plan, StatementKey key,
      std::vector<std::string> aliases = std::vector<std::string>());

  /// Post-execution hook: annotates graph nodes with measured statistics.
  void OnComplete(PreparedQuery* prepared, const ExecResult& result);

  /// Evicts every cached result that depends on `table` (update commit).
  void InvalidateTable(const std::string& table);

  /// Append hook (Database::AppendTable, after Catalog::AppendRows):
  /// walks every materialized entry depending on `table` and keeps the
  /// ones delta maintenance can refresh (same epoch, delta-eligible
  /// shape); everything else — nodes with joins or non-decomposable
  /// roots — is evicted as a hard invalidation. A kept root keeps its
  /// exact-hit index entry, which the next probe refreshes by delta.
  /// With enable_delta_maintenance off it evicts every such entry.
  /// Unlike InvalidateTable it leaves restart orphans alone: their row
  /// marks re-anchor on adoption.
  void OnTableAppended(const std::string& table);

  /// Evicts everything from the cache (simulated refresh, Fig. 6).
  void FlushCache();

  /// Removes recycler-graph subtrees not accessed for `idle_epochs` query
  /// invocations (the paper's periodic truncation for production
  /// deployments, §II). Cached / in-flight nodes and shared prefixes that
  /// fresher plans still reference are kept. Returns nodes removed.
  /// Must be called at a quiescent point (no queries between Prepare and
  /// OnComplete): prepared queries hold raw graph-node references.
  int64_t TruncateGraph(int64_t idle_epochs);

  /// Benefit of a node per Eq. 1/2 with lazily-aged h. Caller must hold
  /// at least a shared lock on graph().mutex(); exposed for tests/benches.
  double BenefitOf(const RGNode* node) const;

  /// True cost (Eq. 2): bcost minus the bcost of direct materialized
  /// descendants. Caller holds a lock on graph().mutex().
  double TrueCost(const RGNode* node) const;

  /// Per-template reuse stats for `template_hash` (zeroes if unseen).
  TemplateStats TemplateStatsFor(uint64_t template_hash) const;

  /// Number of (materialized slice, column) registrations in the
  /// interval index (diagnostics / tests).
  int64_t interval_index_entries() const;

  /// Writes a spill file for every hot-cache entry that has no live file
  /// yet (results already demoted once keep their file, so this skips
  /// them). Called by the destructor so a graceful shutdown persists
  /// accumulated coverage; exposed for tests/benches. Returns the number
  /// of files written. Drains the spill queue before returning, so every
  /// checkpointed entry is on disk when this returns.
  int64_t CheckpointColdTier();

  /// Fleet tier: one manifest log refresh round — discovers peers' new
  /// spills as adoptable orphans, applies purge records, performs
  /// stale-lease takeover, renews this instance's lease, and demotes
  /// nodes whose entries a purge retired. `new_peer_entries` (optional)
  /// receives the number of newly discovered peer entries. No-op OK
  /// without a spill_dir. Called periodically by the standby
  /// tailer (fleet/standby.h) and on demand by tests/benches. Must not
  /// be called while holding engine locks.
  Status RefreshFleet(int64_t* new_peer_entries = nullptr);

  /// Canonical, restart-stable key of the graph subtree rooted at
  /// `node`, pre-order: per node its type byte, its length-prefixed
  /// param_key and its child count. Parameter keys are positional and
  /// scan leaves name base-table columns, so the same logical subtree
  /// produces the same key in every process. Cold-tier identity.
  /// Computed once per node. Caller holds at least the shared lock on
  /// graph().mutex(), which keeps the returned reference valid.
  const std::string& CanonicalSubtreeKey(RGNode* node) const;

  /// Roots in the exact-hit index (diagnostics / tests). Never more than
  /// the hot cache's entry count: each indexed root is hot.
  int64_t exact_hit_entries() const;

  /// Checks that the structures holding one fact agree, and returns the
  /// first disagreement (naming the node) as an Internal status:
  ///  - the cold tier (ColdTier::CheckConsistency, after its spill worker
  ///    went idle): its entries against the manifest log and the files;
  ///  - the cache: a node is kCached exactly when it holds a table, and
  ///    used_bytes is the sum of the kCached nodes' bytes;
  ///  - the exact-hit index: exact_hits_ and exact_hit_keys_ are inverses
  ///    (each key listed under its entry's root, once);
  ///  - each index entry: its root is kCached, fresh or stale only by
  ///    appended rows against the catalog's current tables, and first in
  ///    the entry's nodes.
  /// Takes the locks in rank order. For tests, at a quiescent point: a
  /// statement between Prepare and OnComplete may hold a state the check
  /// rejects.
  Status CheckConsistency();

  RecyclerGraph& graph() { return graph_; }
  RecyclerCache& cache() { return cache_; }
  const ColdTier& cold_tier() const { return cold_tier_; }
  ColdTier& cold_tier() { return cold_tier_; }
  const RecyclerConfig& config() const { return config_; }
  const RecyclerCounters& counters() const { return counters_; }
  const Catalog* catalog() const { return catalog_; }

 private:
  friend struct RecyclerPeer;  // white-box access for tests
  using MNode = PreparedQuery::MNode;
  using ExactHit = PreparedQuery::ExactHit;

  /// The paper's constant h for the benefit of a result no query has
  /// reused yet (§III-D): speculative stores and never-seen nodes.
  static constexpr double kSpeculationH = 0.001;
  /// The proactive top-N limit L (§IV-B: topN(Q, 10000) subsumes
  /// topN(Q, N) for every N <= L).
  static constexpr int64_t kProactiveTopNLimit = 10000;

  /// Adds `n` to `prepared`'s trace field for `counter` and to its
  /// RecyclerCounters twin.
  void Count(PreparedQuery* prepared, QueryCounter counter, int64_t n = 1);
  /// Estimated result size in bytes (measured when available, else
  /// cardinality x estimated row width; §III-C "size(R)").
  double EstimatedSize(const RGNode* node) const;
  /// Prepare head (probe hit and full path): the query id, the template
  /// hash and the template's prior runs.
  void StartTrace(PreparedQuery* prepared, uint64_t template_hash);
  /// Pins a snapshot of each of `tables` for `prepared`.
  void PinTables(const std::set<std::string>& tables,
                 PreparedQuery* prepared) const;
  /// Prepare tail (both mode paths): derives the uniform reuse_mode from
  /// the counters and captures the post-rewrite Explain when configured.
  void FinalizeTrace(PreparedQuery* prepared);

  // --- matching & insertion (§III-A/B), recycler_match.cc -------------
  std::unique_ptr<MNode> MatchTree(const PlanPtr& plan);
  void InsertMissing(MNode* m, PreparedQuery* prepared);
  /// The graph node a query node of `type` with positional param key
  /// `param_key` exactly matches over its matched children `child_g`:
  /// same type, same children, equal key.
  RGNode* MatchOne(OpType type, const std::string& param_key,
                   const std::vector<RGNode*>& child_g) const;
  /// Inserts `node`, whose positional param key is `param_key`, over
  /// `child_g` (exclusive lock held).
  RGNode* InsertOne(const PlanNode& node, const std::string& param_key,
                    const std::vector<RGNode*>& child_g);
  /// Computed results only: a base-table scan's data is already resident.
  static bool CacheableType(OpType type);

  // --- h maintenance (§III-C) ------------------------------------------
  void BumpImportance(MNode* m, bool has_materialized_ancestor);
  void UpdateHrOnMaterialize(RGNode* node);          // Eq. 3 / Algorithm 2
  void UpdateHrOnEvict(RGNode* node);                // Eq. 4
  void UpdateHrChildren(RGNode* node, double delta); // shared walker

  // --- exact-hit index, recycler_match.cc ------------------------------
  /// Off and proactive modes never probe (proactive mode may swap the
  /// plan before matching).
  bool ProbesIndex() const;
  /// The probe behind ProbeExactHit and ProbeSqlText: serves the entry
  /// under `key`, fresh or delta-refreshed, for a statement of
  /// `template_hash`; a hit registers `text_key` (when not empty) for the
  /// root. `match_sw` started with the probe.
  std::unique_ptr<PreparedQuery> ServeFromIndex(const std::string& key,
                                                uint64_t template_hash,
                                                const std::string& text_key,
                                                const Stopwatch& match_sw);
  /// The index entry for `root`'s matched tree; it keeps the plan when
  /// the root is delta-eligible over a table in grown_tables_.
  std::shared_ptr<const ExactHit> MakeExactHit(const MNode& root,
                                               uint64_t plan_fingerprint);
  /// `root`'s keys, with `text_key` (when not empty) in place of its text
  /// key: a root keeps one text key, the latest.
  std::vector<std::string> KeysOf(const RGNode* root,
                                  const std::string& text_key);
  /// Records `hit` under each of `keys` if its root is still hot. A root
  /// keeps the keys of its latest registration only, and a key one root.
  /// Caller holds the shared graph lock.
  void RememberExactHit(std::vector<std::string> keys,
                        std::shared_ptr<const ExactHit> hit);
  /// Drops the keys of `root` (its result left the hot cache).
  void ForgetExactHit(const RGNode* root);
  /// ForgetExactHit with exact_mu_ held.
  void ForgetExactHitLocked(const RGNode* root);

  // --- reuse rules (§III-A, §IV-A), recycler_reuse.cc ------------------
  struct DerivedCandidates;  // what TrySubsume and TryStitch derive from
  /// The first rule that serves `m` wins, in this order: TryExact,
  /// TrySubsume, TryStitch; else recurses into the children. A rule
  /// returns the rewritten plan, or null when it declines. No lock held.
  PlanPtr RewriteForReuse(MNode* m, const PlanPtr& plan,
                          PreparedQuery* prepared);
  /// `m->gnode`'s own result, hot or cold, after any stall. An
  /// append-stale entry goes on to TryDeltaRewrite; another stale entry,
  /// unless ahead of the query, is dropped.
  PlanPtr TryExact(MNode* m, const PlanPtr& plan, PreparedQuery* prepared);
  /// Fills `out` from the derived-reuse index in one cache_mu_ section.
  /// False when neither derived rule applies to `m`.
  bool GatherDerived(MNode* m, const PlanPtr& plan, PreparedQuery* prepared,
                     DerivedCandidates* out);
  /// Single-superset subsumption (§IV-A).
  PlanPtr TrySubsume(MNode* m, const DerivedCandidates& cands,
                     PreparedQuery* prepared);
  /// Range stitching: the union of overlapping cached slices plus
  /// compensated delta scans of the remainder.
  PlanPtr TryStitch(MNode* m, const PlanPtr& plan,
                    const DerivedCandidates& cands, PreparedQuery* prepared);
  /// Eq. 2 credit for `scan`, a CachedScan that replaced `share` of
  /// `source`'s work: its cache key, the replaced cost and, if `bump_h`, a
  /// reference of weight `share`. Caller holds the graph lock.
  void CreditReuse(RGNode* source, PlanNode* scan, double share, bool bump_h,
                   PreparedQuery* prepared);
  /// Replaces `m`'s subtree by a CachedScan over `snapshot`, `m->gnode`'s
  /// hot or cold-loaded result, whose columns it names `column_names`:
  /// cache key, Eq. 2 credit, reuse counters and the LRU touch. Caller
  /// holds the shared graph lock.
  PlanPtr ServeExact(MNode* m, std::vector<std::string> column_names,
                     TablePtr snapshot, bool from_cold,
                     PreparedQuery* prepared);
  /// Append-stale exact match: builds the delta rewrite (stitch or
  /// aggregate merge) over `snapshot`, drops the superseded cache entry,
  /// and marks `m` stitched so InjectStores re-admits the refreshed
  /// result at the new high-water mark. Returns null when the entry is
  /// not delta-eligible (caller evicts and falls through to a miss).
  /// Caller must not hold the graph lock.
  PlanPtr TryDeltaRewrite(MNode* m, const PlanPtr& plan, RGNode* g,
                          TablePtr snapshot, const StaleWindow& window,
                          PreparedQuery* prepared);
  /// Drops a superseded (append-stale) entry from both tiers without
  /// eviction-side h/counter noise: its data lives on in the delta
  /// rewrite that replaces it. Caller must not hold the graph lock.
  void DropSupersededEntry(RGNode* g);
  /// Freshness of `node`'s materialized result against the query's
  /// pinned snapshots (checked in place under the node's mat shard
  /// mutex). Caller may hold the shared graph lock but not cache_mu_.
  Freshness NodeFreshness(RGNode* node, const PreparedQuery* prepared,
                          StaleWindow* window);

  // --- admission and eviction, recycler_admission.cc -------------------
  void InjectStores(MNode* m, PreparedQuery* prepared, bool in_store_chain);
  /// Shared admission decision for one store candidate: history-based
  /// materialization when measured (benefit admit at h >= 1, gated by
  /// `history_ok`), else a speculative store when `speculative_ok`.
  /// Returns true if a store was injected. Caller holds the shared
  /// graph lock.
  bool MaybeInjectStore(RGNode* g, const PlanNode* exec_plan, bool history_ok,
                        bool speculative_ok, PreparedQuery* prepared);
  StoreRequest MakeStoreRequest(RGNode* gnode, StoreMode mode,
                                PreparedQuery* prepared);
  void OfferResult(RGNode* node, TablePtr result, double subtree_ms,
                   PreparedQuery* prepared);
  /// Admits `table` as `node`'s hot result if `node` is still in state
  /// `from` (kInFlight for a store, kCold for a promotion), evicting the
  /// victims, and publishes it kCached. A rejected node keeps its state.
  /// Caller holds the shared graph lock, not cache_mu_.
  bool AdmitHot(RGNode* node, TablePtr table, MatState from);
  bool SpeculationKeepGoing(RGNode* node, const SpeculationEstimate& est);
  /// Publishes a MatState transition under the node's mat shard mutex and
  /// wakes stalled queries. `clear_cached` also drops the node's cached
  /// TablePtr inside the same critical section (eviction).
  void SetMatState(RGNode* node, MatState state, bool clear_cached = false);
  /// Claims the kNone -> kInFlight transition by CAS; the loser of a race
  /// simply skips its store. No wakeup needed: queries only stall on the
  /// transitions *out* of kInFlight, which SetMatState publishes.
  static bool TryClaimInFlight(RGNode* node);
  /// Drops `node`'s entry from both tiers; an `invalidation` also gives
  /// back a hot entry's h (Eq. 4) and is counted. Caller holds at least
  /// the shared graph lock AND cache_mu_.
  void EvictNode(RGNode* node, bool invalidation);
  /// Handles one hot-cache eviction: Eq. 4 h-update, then spill-or-drop —
  /// a spilled victim flips to kCold and keeps its interval-index
  /// registrations (cold slices still stitch); a dropped one goes to
  /// kNone. Caller holds at least the shared graph lock AND cache_mu_.
  void HandleHotEviction(RGNode* victim);

  // --- cold tier and fleet bridge, recycler_cold.cc --------------------
  /// Queues `node`'s result for the cold tier when the tier is enabled
  /// (no-op true when a live file or pending spill already exists).
  /// Caller holds at least the shared graph lock AND cache_mu_.
  bool MaybeSpill(RGNode* node);

  /// Demotes nodes whose cold entries the tier dropped: a kCold node
  /// loses its registrations and becomes kNone; a node that is (also) hot
  /// keeps its hot state. Caller holds the shared graph lock AND cache_mu_.
  void OnColdEntriesDropped(const std::vector<const RGNode*>& nodes);

  /// Pinned snapshot of `node`'s result from either tier: the hot table
  /// when kCached, else a lazy re-admission from the cold tier (load ->
  /// promote-if-admittable -> serve). nullptr when the node has no
  /// result in either tier. A load is recorded in `prepared`'s
  /// cold-loaded set; `*from_cold` reports whether THIS query pulled the
  /// node from disk (now or earlier in its rewrite), so call sites count
  /// cold hits only for reuses actually consumed. With a `clip` (derived
  /// reuse of a Select only), a kCold node loads just the rows whose
  /// output column `clip_ordinal` lies in `*clip`, decoded from the spill
  /// image and not promoted: the rewrite's compensation drops the other
  /// rows anyway. Caller must NOT hold the graph lock (promotion takes
  /// it).
  TablePtr SnapshotEitherTier(RGNode* node, PreparedQuery* prepared,
                              bool* from_cold, int clip_ordinal = -1,
                              const ColumnInterval* clip = nullptr);

  /// The cold half of SnapshotEitherTier.
  TablePtr ReadmitCold(RGNode* node);

  /// Probes the cold tier's orphan map for a restart or fleet-peer image
  /// of the just-inserted `node` and adopts it (re-seed stats, kCold
  /// state, interval registration). Returns true on adoption. Caller
  /// holds the exclusive graph lock.
  bool TryAdoptOrphan(RGNode* node);
  /// Cold-tier restart recovery: before a derived-reuse
  /// (subsumption/stitch) candidate scan over `child_gnode`'s parents,
  /// adopt any restart orphans those parents still have on disk, and
  /// rebuild and adopt the orphan slices filed under the child
  /// (RebuildOrphanSlice), so they are servable without an exact
  /// re-insertion. Caller must not hold the graph lock; takes it
  /// exclusive briefly when the orphan set grew since `child_gnode`'s last
  /// walk (ColdTier::orphan_generation).
  /// Adoptions are counted into `prepared`'s trace.
  void MaybeAdoptOrphanParents(RGNode* child_gnode, PreparedQuery* prepared);
  /// Rebuilds the graph node of an orphan slice filed under `child` from
  /// its select descriptor (`meta`) and publishes it, still kNone, when
  /// its canonical key equals the file's; otherwise counts a key mismatch
  /// and returns nullptr, leaving the orphan to an exact insert. Caller
  /// holds the exclusive graph lock.
  RGNode* RebuildOrphanSlice(RGNode* child, const SpillFileMeta& meta);

  const Catalog* catalog_;
  RecyclerConfig config_;
  RecyclerGraph graph_;
  /// Guards cache_ (admission, eviction planning, LRU touches) and makes
  /// admit-then-publish atomic with respect to concurrent evictions.
  /// Decoupled from the graph mutex so reuse lookups and stat updates on
  /// other streams never serialize behind replacement decisions.
  /// Lock order: graph mutex -> cache_mu_ -> mat shard mutex.
  mutable std::mutex cache_mu_;
  RecyclerCache cache_;
  /// Derived-reuse index: each child's materialized parents and the
  /// range slices of materialized selections. Guarded by cache_mu_: a
  /// node is inserted where it enters kCached/kCold and removed where it
  /// drops to kNone, so it changes exactly when cache residency does
  /// (cold entries count as resident: they still subsume and stitch).
  IntervalIndex interval_index_;
  /// On-disk cold tier below the hot cache. Internally synchronized
  /// (leaf mutex); ordered after graph/cache, see DESIGN.md "Cold tier".
  ColdTier cold_tier_;
  /// Guards template_stats_ (independent of the graph/cache locks; taken
  /// last and never while holding them longer than the map update).
  mutable std::mutex template_mu_;
  std::map<uint64_t, TemplateStats> template_stats_;
  /// Exact-hit index: statement key (ExactHitKey or TextKey) -> entry,
  /// and root -> its keys, at most three: the canonical plan's, the
  /// submitted spelling's and one SQL text's (pointers to the keys
  /// exact_hits_ holds; map keys never move). Guarded by exact_mu_, a
  /// leaf taken after the graph lock and cache_mu_, never with another
  /// lock acquired inside. Entries point into the graph: TruncateGraph
  /// clears the index under the exclusive lock. Every root is hot:
  /// SetMatState forgets a root that leaves kCached. An append keeps a
  /// delta-eligible root's entry, stale until a probe refreshes it.
  mutable std::mutex exact_mu_;
  std::unordered_map<std::string, std::shared_ptr<const ExactHit>>
      exact_hits_;
  std::unordered_map<const RGNode*, std::vector<const std::string*>>
      exact_hit_keys_;
  /// Tables OnTableAppended has seen grow (guarded by exact_mu_): an
  /// entry keeps its plan for a delta refresh only over one of them.
  std::set<std::string> grown_tables_;
  Executor executor_;
  RecyclerCounters counters_;
  std::atomic<int64_t> next_query_id_{1};
};

}  // namespace recycledb
