// The recycler's core: construction, the benefit metric, h maintenance
// (§III-C) and Prepare -> Execute -> OnComplete. The mechanisms live in
// recycler_{match,reuse,admission,cold}.cc.
#include "recycler/recycler.h"

#include <algorithm>

#include "common/hash.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "exec/cost_model.h"
#include "recycler/proactive.h"

namespace recycledb {

const char* RecyclerModeName(RecyclerMode mode) {
  switch (mode) {
    case RecyclerMode::kOff:
      return "OFF";
    case RecyclerMode::kHistory:
      return "HIST";
    case RecyclerMode::kSpeculation:
      return "SPEC";
    case RecyclerMode::kProactive:
      return "PA";
  }
  return "?";
}

const char* ReuseModeName(ReuseMode mode) {
  switch (mode) {
    case ReuseMode::kNone:
      return "none";
    case ReuseMode::kExact:
      return "exact";
    case ReuseMode::kColdReadmit:
      return "cold-readmit";
    case ReuseMode::kSubsumption:
      return "subsumption";
    case ReuseMode::kPartialStitch:
      return "partial-stitch";
    case ReuseMode::kDelta:
      return "delta";
    case ReuseMode::kAggMerge:
      return "agg-merge";
  }
  return "?";
}

bool ParseReuseMode(const std::string& name, ReuseMode* mode) {
  for (ReuseMode m :
       {ReuseMode::kNone, ReuseMode::kExact, ReuseMode::kColdReadmit,
        ReuseMode::kSubsumption, ReuseMode::kPartialStitch, ReuseMode::kDelta,
        ReuseMode::kAggMerge}) {
    if (name == ReuseModeName(m)) {
      *mode = m;
      return true;
    }
  }
  return false;
}

ReuseMode ReuseModeFromCounters(const QueryTrace& trace) {
  if (trace.num_agg_merges > 0) return ReuseMode::kAggMerge;
  if (trace.num_delta_reuses > 0) return ReuseMode::kDelta;
  if (trace.num_partial_reuses > 0) return ReuseMode::kPartialStitch;
  if (trace.num_subsumption_reuses > 0) return ReuseMode::kSubsumption;
  if (trace.num_reuses > 0) {
    return trace.num_cold_hits > 0 ? ReuseMode::kColdReadmit
                                   : ReuseMode::kExact;
  }
  return ReuseMode::kNone;
}

PreparedQuery::PreparedQuery() = default;
PreparedQuery::~PreparedQuery() = default;

namespace {

/// Estimated row width in bytes for size estimation (§III-C: measured
/// cardinality x tuple width; strings estimated at 16 bytes).
double EstRowWidth(const std::vector<TypeId>& types) {
  double w = 0;
  for (TypeId t : types) {
    switch (t) {
      case TypeId::kBool:
        w += 1;
        break;
      case TypeId::kInt32:
      case TypeId::kDate:
        w += 4;
        break;
      case TypeId::kInt64:
      case TypeId::kDouble:
        w += 8;
        break;
      case TypeId::kString:
        w += 16;
        break;
    }
  }
  return w;
}

/// Depth-first walk below `node` down to (and including) the first kCached
/// node on each path, calling `visit(n, cached)` once per distinct node.
/// The benefit metric runs this for every entry of a size group on every
/// admission test, so it allocates nothing once warm: the stack and the
/// visited list are thread-local buffers, which is also why `visit` must
/// not start another walk. Subtrees are plan-sized, so a linear visited
/// check is enough.
template <typename Node, typename Visit>
void WalkToMaterialized(Node* node, Visit&& visit) {
  thread_local std::vector<Node*> stack;
  thread_local std::vector<Node*> visited;
  stack.assign(node->children.begin(), node->children.end());
  visited.clear();
  while (!stack.empty()) {
    Node* n = stack.back();
    stack.pop_back();
    if (std::find(visited.begin(), visited.end(), n) != visited.end()) {
      continue;
    }
    visited.push_back(n);
    const bool cached = n->mat_state.load() == MatState::kCached;
    visit(n, cached);
    if (cached) continue;
    stack.insert(stack.end(), n->children.begin(), n->children.end());
  }
}

}  // namespace

bool Recycler::CacheableType(OpType type) {
  return type != OpType::kScan && type != OpType::kCachedScan;
}

Recycler::Recycler(const Catalog* catalog, RecyclerConfig config)
    : catalog_(catalog),
      config_(config),
      graph_(config.aging_alpha),
      cache_(config.cache_bytes,
             [this](const RGNode* n) { return BenefitOf(n); },
             [this] { return graph_.benefit_stamp(); }, config.cache_policy),
      executor_(catalog) {
  RDB_CHECK(catalog != nullptr);
  executor_.set_zone_map_pruning(config_.enable_zone_map_pruning);
  // Calibrate the shared cost model now so the micro-probe never lands
  // inside a query's timing.
  CostModel::Global();
  cold_tier_.set_compress(config_.compress_spill);
  // Nodes dropped off the recycler's synchronous paths (spill failures,
  // commit-time sweeps, fleet purges applied by RefreshFleet)
  // arrive here with no cold-tier lock held; demotion takes the normal
  // graph/cache locks.
  cold_tier_.set_drop_callback([this](const std::vector<const RGNode*>& ns) {
    std::shared_lock<std::shared_mutex> glock(graph_.mutex());
    std::lock_guard<std::mutex> clock(cache_mu_);
    OnColdEntriesDropped(ns);
  });
  // Spill accounting runs at commit time, on the tier's worker.
  cold_tier_.set_spilled_callback(
      [this](const RGNode*, int64_t stored, int64_t raw) {
        counters_.cold_spills.fetch_add(1);
        counters_.cold_spill_stored_bytes.fetch_add(stored);
        counters_.cold_spill_raw_bytes.fetch_add(raw);
      });
  // Database::Open returns the tier's open Status; direct constructions
  // with an unusable spill_dir degrade to memory-only behavior rather
  // than aborting.
  if (!config_.spill_dir.empty()) {
    ColdTierOptions copts;
    copts.dir = config_.spill_dir;
    copts.capacity_bytes = config_.cold_tier_capacity_bytes;
    copts.read_only = config_.spill_read_only;
    copts.lease_ms = config_.fleet_lease_ms;
    copts.instance_id = config_.fleet_instance;
    cold_tier_.Open(copts).ok();
  }
}

Recycler::~Recycler() {
  CheckpointColdTier();  // drains the spill queue before returning
}

void Recycler::Count(PreparedQuery* prepared, QueryCounter counter,
                     int64_t n) {
  const CounterInfo& info = kQueryCounters[static_cast<int>(counter)];
  prepared->trace_.*info.field += n;
  (counters_.*info.twin).fetch_add(n);
}

// ---------------------------------------------------------------------------
// Benefit metric (Eq. 1 and 2)
// ---------------------------------------------------------------------------

double Recycler::TrueCost(const RGNode* node) const {
  // The direct materialized descendants' base cost is subtracted because
  // the recycler would reuse them (Eq. 2).
  double dmd_cost = 0;
  WalkToMaterialized(node, [&dmd_cost](const RGNode* n, bool cached) {
    if (cached) dmd_cost += n->bcost_ms.load();
  });
  return std::max(0.0, node->bcost_ms.load() - dmd_cost);
}

double Recycler::EstimatedSize(const RGNode* node) const {
  if (node->has_size.load()) return node->size_bytes.load();
  int64_t rows = node->rows.load();
  if (rows >= 0) {
    return std::max(1.0, static_cast<double>(rows) *
                             EstRowWidth(node->output_types));
  }
  return 1 << 20;  // unknown: assume 1MB
}

double Recycler::BenefitOf(const RGNode* node) const {
  double h = graph_.AgedH(node);
  if (h <= 0) h = kSpeculationH;
  double size = std::max(1.0, EstimatedSize(node));
  return TrueCost(node) * h / size;
}

// ---------------------------------------------------------------------------
// Importance factor maintenance (§III-C)
// ---------------------------------------------------------------------------

void Recycler::BumpImportance(MNode* m, bool has_materialized_ancestor) {
  // Runs under at least the shared graph lock: all statistic fields are
  // atomic, so concurrent fully-matched queries bump h without ever
  // taking the exclusive lock.
  RGNode* g = m->gnode;
  g->last_access_epoch.store(graph_.epoch());
  if (!m->inserted && !has_materialized_ancestor) {
    graph_.FoldAging(g);
    AtomicAddClamped(g->h, 1.0, 0.0);
    graph_.NoteBenefitWrite();
    g->match_count.fetch_add(1);
  }
  bool flag =
      has_materialized_ancestor || g->mat_state.load() == MatState::kCached;
  for (auto& c : m->children) BumpImportance(c.get(), flag);
}

void Recycler::UpdateHrChildren(RGNode* node, double delta) {
  // Algorithm 2: adjust h of all descendants down to (and including) the
  // first materialized node on each path.
  WalkToMaterialized(node, [this, delta](RGNode* n, bool) {
    graph_.FoldAging(n);
    AtomicAddClamped(n->h, delta, 0.0);
  });
  graph_.NoteBenefitWrite();
}

void Recycler::UpdateHrOnMaterialize(RGNode* node) {
  graph_.FoldAging(node);
  UpdateHrChildren(node, -node->h.load());  // Eq. 3
}

void Recycler::UpdateHrOnEvict(RGNode* node) {
  graph_.FoldAging(node);
  UpdateHrChildren(node, +node->h.load());  // Eq. 4
}

// ---------------------------------------------------------------------------
// Prepare / OnComplete / Execute
// ---------------------------------------------------------------------------

void Recycler::StartTrace(PreparedQuery* prepared, uint64_t template_hash) {
  prepared->trace_.query_id = next_query_id_.fetch_add(1);
  prepared->trace_.template_hash = template_hash;
  if (template_hash != 0) {
    std::lock_guard<std::mutex> lock(template_mu_);
    prepared->trace_.template_prior_runs =
        template_stats_[template_hash].executions;
  }
}

void Recycler::PinTables(const std::set<std::string>& tables,
                         PreparedQuery* prepared) const {
  for (const std::string& t : tables) {
    TableSnapshot snap = catalog_->Snapshot(t);
    if (snap.table != nullptr) {
      prepared->pins_[t] = snap.table;
      prepared->snapshots_[t] = std::move(snap);
    }
  }
}

std::unique_ptr<PreparedQuery> Recycler::Prepare(PlanPtr plan) {
  StatementKey key;
  std::unique_ptr<PreparedQuery> hit = ProbeExactHit(plan, &key);
  if (hit != nullptr) return hit;
  return Prepare(std::move(plan), std::move(key));
}

std::unique_ptr<PreparedQuery> Recycler::Prepare(
    PlanPtr plan, StatementKey key, std::vector<std::string> aliases) {
  auto prepared = std::make_unique<PreparedQuery>();
  StartTrace(prepared.get(), plan->template_hash());
  plan->Bind(*catalog_);
  // Identity of the statement as submitted (post-canonicalization,
  // pre-rewrite): trace/golden tooling keys replay diffs on this. The
  // plan's exact-hit key already holds its tree key.
  prepared->trace_.plan_fingerprint =
      key.text.empty() ? HashString(plan->TreeKey())
                       : HashString(std::string_view(key.text).substr(
                             0, key.tree_key_size));

  // Pin one consistent as-of snapshot of every base table for this
  // query (pinned in every mode: scans must not see rows appended
  // mid-query even with the recycler off). Freshness checks compare
  // cached-entry stamps against these, and Execute scans through pins_.
  PinTables(plan->base_tables(), prepared.get());

  if (config_.mode == RecyclerMode::kOff) {
    prepared->plan_ = std::move(plan);
    FinalizeTrace(prepared.get());
    return prepared;
  }

  Stopwatch match_sw;
  graph_.AdvanceEpoch();

  if (config_.mode != RecyclerMode::kProactive && !key.text.empty()) {
    for (std::string& alias : aliases) {
      if (!alias.empty()) prepared->exact_hit_keys_.push_back(std::move(alias));
    }
    prepared->exact_hit_keys_.push_back(std::move(key.text));
  }

  // --- proactive rewriting (PA mode, §IV-B) ---------------------------
  std::unique_ptr<MNode> matched;
  if (config_.mode == RecyclerMode::kProactive) {
    PlanPtr topn = RewriteTopNProactive(plan, kProactiveTopNLimit);
    if (topn != plan) {
      plan = std::move(topn);
      plan->Bind(*catalog_);
      prepared->trace_.used_proactive = true;
      counters_.proactive_rewrites.fetch_add(1);
    }
    auto cube =
        TryCubeRewrite(plan, *catalog_, kCubeDistinctThreshold);
    if (cube.has_value()) {
      // Match + insert the proactive variant WITHOUT committing to execute
      // it; its shared parts accumulate benefit each time the strategy
      // triggers. Execute it only when the gate aggregate was recycled or
      // has enough history for a store decision.
      cube->plan->Bind(*catalog_);
      auto pm = MatchTree(cube->plan);
      bool gate_go = false;
      {
        std::unique_lock<std::shared_mutex> lock(graph_.mutex());
        InsertMissing(pm.get(), prepared.get());
        BumpImportance(pm.get(), false);
        // Find the gate node's MNode.
        std::vector<MNode*> stack{pm.get()};
        RGNode* gate_gnode = nullptr;
        while (!stack.empty()) {
          MNode* m = stack.back();
          stack.pop_back();
          if (m->plan == cube->gate.get()) {
            gate_gnode = m->gnode;
            break;
          }
          for (auto& c : m->children) stack.push_back(c.get());
        }
        if (gate_gnode != nullptr) {
          gate_go = gate_gnode->mat_state.load() == MatState::kCached ||
                    graph_.AgedH(gate_gnode) >= 1.0;
        }
      }
      if (gate_go) {
        plan = cube->plan;
        matched = std::move(pm);
        prepared->trace_.used_proactive = true;
        counters_.proactive_rewrites.fetch_add(1);
      }
    }
  }

  // --- matching + insertion (§III-A/B) --------------------------------
  if (matched == nullptr) {
    matched = MatchTree(plan);  // phase 1, shared lock
    if (matched->gnode != nullptr) {
      // Fully matched (a node only matches once all its children have):
      // the hot steady-state path. Statistics are atomic, so the h bumps
      // run under the shared lock and concurrent streams never serialize
      // on the exclusive lock.
      std::shared_lock<std::shared_mutex> lock(graph_.mutex());
      BumpImportance(matched.get(), false);  // §III-C
    } else {
      std::unique_lock<std::shared_mutex> lock(graph_.mutex());
      InsertMissing(matched.get(), prepared.get());  // phase 2 + OCC
      BumpImportance(matched.get(), false);               // §III-C
    }
  }
  prepared->trace_.match_ms = match_sw.ElapsedMs();
  prepared->trace_.graph_nodes_at_match = graph_.num_nodes();
  prepared->matched_ = std::move(matched);

  // --- reuse rewriting (may stall on in-flight results) ----------------
  PlanPtr rewritten =
      RewriteForReuse(prepared->matched_.get(), plan, prepared.get());
  rewritten->Bind(*catalog_);

  // --- store injection --------------------------------------------------
  {
    std::shared_lock<std::shared_mutex> lock(graph_.mutex());
    InjectStores(prepared->matched_.get(), prepared.get(), false);
  }

  prepared->plan_ = std::move(rewritten);
  FinalizeTrace(prepared.get());
  return prepared;
}

void Recycler::FinalizeTrace(PreparedQuery* prepared) {
  prepared->trace_.reuse_mode = ReuseModeFromCounters(prepared->trace_);
  if (config_.capture_plan_explain) {
    prepared->trace_.plan_explain = prepared->plan_->Explain();
  }
}

void Recycler::OnComplete(PreparedQuery* prepared, const ExecResult& result) {
  counters_.queries.fetch_add(1);
  // Zone-map accounting applies in every mode (pruning also serves the
  // kOff baseline), so it lands before the early return below.
  Count(prepared, QueryCounter::kBlocksScanned, result.blocks_scanned);
  Count(prepared, QueryCounter::kBlocksPruned, result.blocks_pruned);
  if (prepared->trace_.template_hash != 0) {
    std::lock_guard<std::mutex> lock(template_mu_);
    TemplateStats& ts = template_stats_[prepared->trace_.template_hash];
    ++ts.executions;
    ts += prepared->trace_;
    ts.total_ms += result.total_ms;
  }
  if (config_.mode == RecyclerMode::kOff) return;

  // Annotation writes are atomic per-field; the shared lock only pins the
  // nodes so completion never serializes behind other streams' matching.
  std::shared_lock<std::shared_mutex> lock(graph_.mutex());

  // A root that is hot now (this run admitted it, or served it as an
  // exact hit) lets the statement's next run skip MatchTree. A root
  // served by subsumption is left out; a replaced root is the plan's only
  // reuse, so the subsumption counter tells.
  const MNode* root = prepared->matched_.get();
  if (!prepared->exact_hit_keys_.empty() &&
      root->gnode->mat_state.load() == MatState::kCached &&
      !(root->replaced && prepared->trace_.num_subsumption_reuses > 0)) {
    std::shared_ptr<const ExactHit> hit = prepared->exact_hit_;
    if (hit == nullptr) {
      hit = MakeExactHit(*root, prepared->trace_.plan_fingerprint);
    }
    RememberExactHit(std::move(prepared->exact_hit_keys_), std::move(hit));
  }

  // bcost must always reflect cost-from-base-tables (Eq. 2): add back the
  // base cost of every subtree a CachedScan replaced.
  struct CostWalker {
    const PreparedQuery* q;
    const ExecResult* r;
    // Returns the replaced base cost under `node` (inclusive).
    double ReplacedBelow(const PlanNode* node) const {
      double total = 0;
      auto it = q->replaced_cost_.find(node);
      if (it != q->replaced_cost_.end()) total += it->second;
      for (const auto& c : node->children()) total += ReplacedBelow(c.get());
      return total;
    }
  };
  CostWalker walker{prepared, &result};

  for (const auto& [node, gnode] : prepared->exec_to_gnode_) {
    auto it = result.node_runtime.find(node);
    if (it == result.node_runtime.end()) continue;
    const NodeRuntime& rt = it->second;
    // Subtree cost from the calibrated model: deterministic in plan shape
    // and observed cardinalities, so identical workloads produce
    // identical benefit rankings.
    double bcost = CostModel::Global().SubtreeMs(*node, result.node_runtime) +
                   walker.ReplacedBelow(node);
    gnode->bcost_ms.store(bcost);
    gnode->has_bcost.store(true);
    gnode->rows.store(rt.rows_out);
    if (!gnode->has_size.load()) {
      gnode->size_bytes.store(std::max(
          1.0, static_cast<double>(rt.rows_out) *
                   EstRowWidth(gnode->output_types)));
    }
  }
  graph_.NoteBenefitWrite();
}

TemplateStats Recycler::TemplateStatsFor(uint64_t template_hash) const {
  std::lock_guard<std::mutex> lock(template_mu_);
  auto it = template_stats_.find(template_hash);
  return it == template_stats_.end() ? TemplateStats{} : it->second;
}

Status Recycler::CheckConsistency() {
  // First, with no recycler lock held: the check waits for the spill
  // worker, whose drop callback takes the graph and cache locks.
  RDB_RETURN_NOT_OK(cold_tier_.CheckConsistency());
  std::shared_lock<std::shared_mutex> glock(graph_.mutex());
  std::lock_guard<std::mutex> clock(cache_mu_);
  auto fail = [](int64_t id, const std::string& what) {
    return Status::Internal(
        StrFormat("node %lld: %s", static_cast<long long>(id), what.c_str()));
  };
  int64_t cached_bytes = 0;
  for (const auto& n : graph_.nodes()) {
    std::lock_guard<std::mutex> slock(graph_.mat_shard(n.get()).mu);
    const bool cached = n->mat_state.load() == MatState::kCached;
    if (cached != (n->cached != nullptr)) {
      return fail(n->id, cached ? "kCached without a table"
                                : "holds a table but is not kCached");
    }
    if (cached) cached_bytes += n->cached_bytes.load();
  }
  if (cached_bytes != cache_.used_bytes()) {
    return Status::Internal(StrFormat(
        "cache: used_bytes %lld, but the kCached nodes hold %lld",
        static_cast<long long>(cache_.used_bytes()),
        static_cast<long long>(cached_bytes)));
  }

  std::vector<std::shared_ptr<const ExactHit>> hits;
  {
    std::lock_guard<std::mutex> elock(exact_mu_);
    std::unordered_set<const std::string*> listed;
    for (const auto& [root, keys] : exact_hit_keys_) {
      if (keys.empty()) return fail(root->id, "indexed under no key");
      for (const std::string* k : keys) {
        auto it = exact_hits_.find(*k);
        if (it == exact_hits_.end() || &it->first != k) {
          return fail(root->id, "lists a key the index does not hold");
        }
        if (it->second->root != root) {
          return fail(root->id, "lists a key of another root");
        }
        if (!listed.insert(k).second) return fail(root->id, "lists a key twice");
      }
      hits.push_back(exact_hits_.find(*keys.front())->second);
    }
    if (listed.size() != exact_hits_.size()) {
      return Status::Internal(StrFormat(
          "exact-hit index: %zu keys, %zu of them listed under their root",
          exact_hits_.size(), listed.size()));
    }
  }
  for (const std::shared_ptr<const ExactHit>& hit : hits) {
    const RGNode* g = hit->root;
    if (hit->nodes.empty() || hit->nodes.front() != g) {
      return fail(g->id, "index entry's nodes do not start at its root");
    }
    PreparedQuery current;
    PinTables(g->base_tables, &current);
    std::lock_guard<std::mutex> slock(graph_.mat_shard(g).mu);
    if (g->mat_state.load() != MatState::kCached) {
      return fail(g->id, "indexed but not kCached");
    }
    const Freshness fresh =
        CheckFreshness(g->stamps, g->base_tables, current.snapshots_, nullptr);
    if (fresh != Freshness::kFresh && fresh != Freshness::kAppendStale) {
      return fail(g->id, "indexed with stamps of another table version");
    }
  }
  return Status::OK();
}

ExecResult Recycler::Execute(const PlanPtr& query_plan, QueryTrace* trace_out) {
  return Execute(Prepare(query_plan).get(), trace_out);
}

ExecResult Recycler::Execute(PreparedQuery* prepared, QueryTrace* trace_out) {
  ExecResult result =
      executor_.Run(prepared->plan(), &prepared->stores(), &prepared->pins_);
  OnComplete(prepared, result);
  if (trace_out != nullptr) *trace_out = prepared->trace();
  return result;
}

}  // namespace recycledb
