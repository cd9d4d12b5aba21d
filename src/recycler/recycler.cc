#include "recycler/recycler.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <unordered_set>

#include "common/hash.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "exec/cost_model.h"
#include "recycler/proactive.h"
#include "recycler/subsumption.h"

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

uint64_t MappedSignature(const PlanNode& node, const NameMap& mapping) {
  uint64_t sig = 0;
  for (const auto& c : node.ParamInputColumns()) {
    auto it = mapping.find(c);
    sig |= ColumnSignatureBit(it == mapping.end() ? c : it->second);
  }
  return sig;
}

/// Types whose results are worth caching. Base-table scans are excluded:
/// their data already lives in the buffer pool and the copy would be pure
/// overhead (the paper only materializes computed results).
bool CacheableType(OpType type) {
  return type != OpType::kScan && type != OpType::kCachedScan;
}

/// Operators the speculation rule targets: expected expensive with small
/// results (§III-D: "final result of a query, or the result of an
/// aggregation"). Table functions are included: the SkyServer workload's
/// fGetNearbyObjEq is exactly the expensive-small case the paper's
/// recycler materializes.
bool SpeculationTargetType(OpType type) {
  return type == OpType::kAggregate || type == OpType::kTopN ||
         type == OpType::kOrderBy || type == OpType::kFunctionScan;
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

Recycler::Recycler(const Catalog* catalog, RecyclerConfig config)
    : catalog_(catalog),
      config_(config),
      graph_(config.aging_alpha),
      cache_(config.cache_bytes,
             [this](const RGNode* n) { return BenefitOf(n); },
             config.cache_policy),
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
    for (const RGNode* n : ns) OnColdEntryDropped(const_cast<RGNode*>(n));
  });
  // Spill accounting runs at commit time, on the tier's worker.
  cold_tier_.set_spilled_callback(
      [this](const RGNode*, int64_t stored, int64_t raw) {
        counters_.cold_spills.fetch_add(1);
        counters_.cold_spill_stored_bytes.fetch_add(stored);
        counters_.cold_spill_raw_bytes.fetch_add(raw);
      });
  // Database::Open pre-validates the directory and returns an actionable
  // Status; direct constructions with an unusable spill_dir degrade to
  // memory-only behavior rather than aborting.
  if (!config_.spill_dir.empty()) {
    ColdTierOptions copts;
    copts.dir = config_.spill_dir;
    copts.capacity_bytes = config_.cold_tier_capacity_bytes;
    copts.shared = config_.shared_spill_dir;
    copts.read_only = config_.spill_read_only;
    copts.lease_ms = config_.fleet_lease_ms;
    if (config_.shared_spill_dir && !config_.spill_read_only) {
      copts.instance_id = config_.fleet_instance.empty()
                              ? StrFormat("pid%d", static_cast<int>(getpid()))
                              : config_.fleet_instance;
    }
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
// Cold tier (the persistent second-tier result cache)
// ---------------------------------------------------------------------------

namespace {

/// Rewrites every "#<digits>" node-id suffix in `s` through `canon_ids`
/// (graph node id -> subtree pre-order index). Ids outside the map are
/// kept verbatim (base-table column names never carry a suffix; the only
/// way to hit this is a user column literally named like a suffix, which
/// at worst costs a cold miss because the key never matches again).
std::string CanonicalizeIdSuffixes(
    const std::string& s, const std::map<int64_t, int>& canon_ids) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size();) {
    if (s[i] != '#') {
      out.push_back(s[i++]);
      continue;
    }
    size_t j = i + 1;
    while (j < s.size() && s[j] >= '0' && s[j] <= '9') ++j;
    if (j == i + 1) {
      out.push_back(s[i++]);
      continue;
    }
    int64_t id = std::atoll(s.substr(i + 1, j - i - 1).c_str());
    auto it = canon_ids.find(id);
    if (it == canon_ids.end()) {
      out.append(s, i, j - i);
    } else {
      out += "#@" + std::to_string(it->second);
    }
    i = j;
  }
  return out;
}

/// Appends `node`'s TreeFingerprint to `fp` and the names its subtree
/// introduces (Project and Aggregate outputs) to `names`, pre-order.
void AppendExactHitKey(const PlanNode& node, std::string* fp,
                       std::string* names) {
  node.AppendParamFingerprint(fp, nullptr);
  if (node.type() == OpType::kProject) {
    for (const ProjItem& p : node.projections()) {
      *names += '|';
      *names += p.out_name;
    }
  } else if (node.type() == OpType::kAggregate) {
    for (const AggItem& a : node.aggregates()) {
      *names += '|';
      *names += a.out_name;
    }
  }
  if (node.children().empty()) return;
  *fp += '(';
  for (size_t i = 0; i < node.children().size(); ++i) {
    if (i > 0) *fp += ';';
    AppendExactHitKey(*node.children()[i], fp, names);
  }
  *fp += ')';
}

std::string ComputeCanonicalSubtreeKey(const RGNode* node) {
  // Pre-order id numbering makes the rewritten suffixes independent of
  // graph insertion order (and therefore stable across restarts).
  std::map<int64_t, int> canon_ids;
  struct Numberer {
    std::map<int64_t, int>* ids;
    void Walk(const RGNode* n) {
      if (ids->emplace(n->id, static_cast<int>(ids->size())).second) {
        for (const RGNode* c : n->children) Walk(c);
      }
    }
  };
  Numberer{&canon_ids}.Walk(node);

  struct Printer {
    const std::map<int64_t, int>* ids;
    std::string Walk(const RGNode* n) {
      std::string out = std::to_string(static_cast<int>(n->type)) + "{" +
                        CanonicalizeIdSuffixes(n->param_fp, *ids) + "}";
      if (!n->children.empty()) {
        out += "(";
        for (size_t i = 0; i < n->children.size(); ++i) {
          if (i > 0) out += ";";
          out += Walk(n->children[i]);
        }
        out += ")";
      }
      return out;
    }
  };
  return Printer{&canon_ids}.Walk(node);
}

}  // namespace

StatementKey Recycler::ExactHitKey(const PlanNode& plan) {
  StatementKey key;
  std::string names;
  AppendExactHitKey(plan, &key.text, &names);
  key.fingerprint_size = key.text.size();
  key.text += names;
  return key;
}

const std::string& Recycler::CanonicalSubtreeKey(RGNode* node) const {
  std::call_once(node->canonical_key_once, [node] {
    node->canonical_key = ComputeCanonicalSubtreeKey(node);
  });
  return node->canonical_key;
}


bool Recycler::MaybeSpill(RGNode* node) {
  if (!cold_tier_.enabled()) return false;
  if (cold_tier_.Has(node)) return true;  // demotion fast path
  const double benefit = BenefitOf(node);
  TablePtr snapshot;
  std::map<std::string, TableStamp> stamps;
  {
    RecyclerGraph::MatShard& shard = graph_.mat_shard(node);
    std::lock_guard<std::mutex> slock(shard.mu);
    snapshot = node->cached;
    stamps = node->stamps;
  }
  if (snapshot == nullptr) return false;

  SpillFileMeta meta;
  meta.canon_key = CanonicalSubtreeKey(node);
  meta.column_names = node->output_names;
  meta.column_types = node->output_types;
  meta.num_rows = snapshot->num_rows();
  meta.bcost_ms = node->bcost_ms.load();
  graph_.FoldAging(node);
  meta.h = node->h.load();
  meta.benefit = benefit;
  meta.base_tables.assign(node->base_tables.begin(), node->base_tables.end());
  for (const auto& [t, stamp] : stamps) {
    meta.table_versions.emplace_back(t, stamp.rows);
  }
  // Select descriptor: a restarted process rebuilds this node from the
  // header once a derived-reuse lookup reaches the child.
  if (node->type == OpType::kSelect && node->children.size() == 1) {
    RGNode* child = node->children[0];
    if (EncodeExprOrdinal(*node->param_node->predicate(), child->output_names,
                          &meta.select_predicate)) {
      meta.select_child_key = CanonicalSubtreeKey(child);
    } else {
      meta.select_predicate.clear();
    }
  }

  // The file write happens on the tier's worker, off the cache mutex
  // the caller holds; the pinned snapshot serves loads until the commit.
  // Failures and commit-time sweep victims come back through the drop
  // callback, and spill accounting fires in the spilled callback at
  // commit.
  return cold_tier_.SpillAsync(node, meta.canon_key, snapshot, meta);
}

void Recycler::OnColdEntryDropped(RGNode* node) {
  // All kCold transitions are serialized by cache_mu_ (held here), so
  // the state cannot flip between the check and the store.
  counters_.cold_evictions.fetch_add(1);
  if (node->mat_state.load() != MatState::kCold) return;  // hot copy stays
  interval_index_.Remove(node);
  SetMatState(node, MatState::kNone, /*clear_cached=*/true);
}

void Recycler::HandleHotEviction(RGNode* victim) {
  UpdateHrOnEvict(victim);
  counters_.evictions.fetch_add(1);
  if (MaybeSpill(victim)) {
    // The result survives below the hot tier: keep the interval-index
    // registrations (cold slices still serve stitch lookups) and flip
    // to kCold. The cached TablePtr itself is released.
    SetMatState(victim, MatState::kCold, /*clear_cached=*/true);
  } else {
    interval_index_.Remove(victim);
    SetMatState(victim, MatState::kNone, /*clear_cached=*/true);
  }
}

TablePtr Recycler::SnapshotOrReadmit(RGNode* node, PreparedQuery* prepared,
                                     bool* from_cold) {
  *from_cold = prepared->cold_loaded_.count(node) > 0;
  {
    RecyclerGraph::MatShard& shard = graph_.mat_shard(node);
    std::lock_guard<std::mutex> slock(shard.mu);
    MatState ms = node->mat_state.load();
    if (ms == MatState::kCached) return node->cached;
    if (ms != MatState::kCold) return nullptr;
  }
  TablePtr loaded = ReadmitCold(node);
  if (loaded != nullptr) {
    prepared->cold_loaded_.insert(node);
    *from_cold = true;
  }
  return loaded;
}

TablePtr Recycler::ReadmitCold(RGNode* node) {
  TablePtr loaded;
  Status st = cold_tier_.Load(node, &loaded);
  if (st.code() == StatusCode::kNotFound) {
    // Swept away between the state check and the load: a plain miss.
    return nullptr;
  }
  if (!st.ok()) {
    // Corrupt/truncated file: recoverable — drop the dead entry so no
    // later query retries it, and re-execute this one.
    counters_.cold_load_errors.fetch_add(1);
    std::shared_lock<std::shared_mutex> glock(graph_.mutex());
    std::lock_guard<std::mutex> clock(cache_mu_);
    cold_tier_.Remove(node);
    if (node->mat_state.load() == MatState::kCold) {
      interval_index_.Remove(node);
      SetMatState(node, MatState::kNone, /*clear_cached=*/true);
    }
    return nullptr;
  }
  TablePtr named = loaded->RenameColumns(node->output_names);

  // Promote to the hot tier when admission allows; a rejected promotion
  // still serves the loaded snapshot (one-shot) and leaves the entry
  // cold for the next hit.
  std::shared_lock<std::shared_mutex> glock(graph_.mutex());
  graph_.FoldAging(node);
  bool admitted = false;
  {
    std::lock_guard<std::mutex> clock(cache_mu_);
    MatState ms = node->mat_state.load();
    if (ms == MatState::kCached) {
      // Another stream promoted it while we were loading.
      RecyclerGraph::MatShard& shard = graph_.mat_shard(node);
      std::lock_guard<std::mutex> slock(shard.mu);
      return node->cached != nullptr ? node->cached : named;
    }
    if (ms != MatState::kCold) return named;  // purged meanwhile
    const int64_t bytes = std::max<int64_t>(1, named->ByteSize());
    node->cached_bytes.store(bytes);
    node->size_bytes.store(static_cast<double>(bytes));
    node->has_size.store(true);
    std::vector<RGNode*> evicted;
    admitted = cache_.Admit(node, BenefitOf(node), &evicted);
    for (RGNode* v : evicted) HandleHotEviction(v);
    if (admitted) {
      RecyclerGraph::MatShard& shard = graph_.mat_shard(node);
      {
        std::lock_guard<std::mutex> slock(shard.mu);
        node->cached = named;
        node->mat_state.store(MatState::kCached);
      }
      shard.cv.notify_all();
      interval_index_.Insert(node);  // no-op: kept while cold
    }
  }
  if (admitted) {
    UpdateHrOnMaterialize(node);
    counters_.cold_readmissions.fetch_add(1);
  }
  return named;
}

TablePtr Recycler::SnapshotOrLoadSlice(RGNode* node, const std::string& column,
                                       const ColumnInterval& range,
                                       PreparedQuery* prepared,
                                       bool* from_cold) {
  {
    RecyclerGraph::MatShard& shard = graph_.mat_shard(node);
    std::lock_guard<std::mutex> slock(shard.mu);
    if (node->mat_state.load() == MatState::kCached) {
      *from_cold = prepared->cold_loaded_.count(node) > 0;
      return node->cached;
    }
  }
  if (node->mat_state.load() == MatState::kCold) {
    // Filtered slice: run the selection on the encoded spill image and
    // materialize only in-range rows. `column` is in graph space, as are
    // the node's output names; a candidate that renames or computes the
    // column falls through to a full load.
    int idx = -1;
    for (size_t i = 0; i < node->output_names.size(); ++i) {
      if (node->output_names[i] == column) {
        idx = static_cast<int>(i);
        break;
      }
    }
    if (idx >= 0) {
      TablePtr sliced;
      if (cold_tier_.LoadSlice(node, idx, range, &sliced).ok()) {
        prepared->cold_loaded_.insert(node);
        *from_cold = true;
        counters_.cold_slice_loads.fetch_add(1);
        return sliced->RenameColumns(node->output_names);
      }
    }
  }
  return SnapshotOrReadmit(node, prepared, from_cold);
}

bool Recycler::TryAdoptOrphan(RGNode* node) {
  // Caller holds the exclusive graph lock, which excludes every spill /
  // sweep path (those hold it shared), so the adopted entry cannot be
  // evicted mid-adoption.
  if (!cold_tier_.has_orphans() || !CacheableType(node->type)) return false;
  if (node->mat_state.load() != MatState::kNone) return false;
  SpillFileMeta meta;
  int64_t bytes = 0;
  if (!cold_tier_.AdoptOrphan(CanonicalSubtreeKey(node), node, &meta,
                              &bytes)) {
    return false;
  }
  if (meta.column_types != node->output_types) {
    // Schema drift (same structure, different types): never serve it.
    cold_tier_.Remove(node);
    return false;
  }
  // Re-anchor row stamps against the live catalog: replace-epochs are
  // process-local, so an image is adoptable iff every row mark still fits
  // inside the current table (appends since the spill leave it usable as
  // an as-of prefix; a shrunk or missing base does not). Unstamped images
  // adopt unstamped (same-base-data contract).
  std::map<std::string, TableStamp> stamps;
  for (const auto& [tname, rows] : meta.table_versions) {
    TableSnapshot snap = catalog_->Snapshot(tname);
    if (snap.table == nullptr || rows > snap.rows) {
      cold_tier_.Remove(node);
      return false;
    }
    stamps[tname] = TableStamp{snap.epoch, rows};
  }
  node->bcost_ms.store(meta.bcost_ms);
  node->has_bcost.store(true);
  node->rows.store(meta.num_rows);
  node->size_bytes.store(static_cast<double>(std::max<int64_t>(1, bytes)));
  node->has_size.store(true);
  node->h.store(meta.h);
  node->h_epoch.store(graph_.epoch());
  if (!stamps.empty()) {
    RecyclerGraph::MatShard& shard = graph_.mat_shard(node);
    std::lock_guard<std::mutex> slock(shard.mu);
    node->stamps = std::move(stamps);
  }
  SetMatState(node, MatState::kCold);
  {
    std::lock_guard<std::mutex> clock(cache_mu_);
    interval_index_.Insert(node);
  }
  return true;
}

int64_t Recycler::CheckpointColdTier() {
  if (!cold_tier_.enabled()) return 0;
  int64_t written = 0;
  {
    std::shared_lock<std::shared_mutex> glock(graph_.mutex());
    std::lock_guard<std::mutex> clock(cache_mu_);
    for (RGNode* node : cache_.Entries()) {
      if (cold_tier_.Has(node)) continue;
      if (MaybeSpill(node)) ++written;
    }
  }
  // The drain barrier runs OUTSIDE the graph/cache locks: the worker's
  // drop callback acquires them to demote sweep victims, so draining
  // under them would deadlock. After this returns every checkpointed
  // entry is on disk and in the manifest.
  cold_tier_.Drain();
  return written;
}

Status Recycler::RefreshFleet(int64_t* new_peer_entries) {
  if (new_peer_entries != nullptr) *new_peer_entries = 0;
  if (!cold_tier_.enabled()) return Status::OK();
  std::vector<const RGNode*> dropped;
  int64_t peers = 0, takeovers = 0;
  Status st = cold_tier_.RefreshPeers(&dropped, &peers, &takeovers);
  if (!dropped.empty()) {
    // Fleet purges retired entries of live nodes: demote them exactly
    // like a sweep drop.
    std::shared_lock<std::shared_mutex> glock(graph_.mutex());
    std::lock_guard<std::mutex> clock(cache_mu_);
    for (const RGNode* d : dropped) OnColdEntryDropped(const_cast<RGNode*>(d));
  }
  counters_.fleet_refreshes.fetch_add(1);
  counters_.fleet_peer_entries.fetch_add(peers);
  counters_.fleet_lease_takeovers.fetch_add(takeovers);
  if (new_peer_entries != nullptr) *new_peer_entries = peers;
  return st;
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
  if (h <= 0) h = config_.speculation_h;
  double size = std::max(1.0, EstimatedSize(node));
  return TrueCost(node) * h / size;
}

// ---------------------------------------------------------------------------
// Matching and insertion (§III-A, §III-B)
// ---------------------------------------------------------------------------

std::string Recycler::LeafKey(const PlanNode& node) {
  if (node.type() == OpType::kScan) return "t:" + node.table_name();
  if (node.type() == OpType::kFunctionScan) {
    return "f:" + node.ParamFingerprint(nullptr);
  }
  return "";
}

RGNode* Recycler::MatchOne(const PlanNode& node,
                           const std::vector<RGNode*>& child_g,
                           const NameMap& mapping) const {
  if (child_g.empty()) {
    // Leaf: probe the global leaf hash table (Algorithm 1 lines 1-5).
    for (RGNode* cand : graph_.LeafCandidates(LeafKey(node), node.HashKey())) {
      if (cand->type == node.type() &&
          cand->param_fp == node.ParamFingerprint(nullptr)) {
        return cand;
      }
    }
    return nullptr;
  }
  // Non-leaf: candidates are the parents of the first matched child
  // (Algorithm 1 lines 8-13), pre-filtered by hash key and signature.
  uint64_t sig = MappedSignature(node, mapping);
  auto range = child_g[0]->parents.equal_range(node.HashKey());
  for (auto it = range.first; it != range.second; ++it) {
    RGNode* cand = it->second;
    if (cand->type != node.type()) continue;
    if (cand->signature != sig) continue;
    if (cand->children.size() != child_g.size()) continue;
    bool same_children = true;
    for (size_t i = 0; i < child_g.size(); ++i) {
      if (cand->children[i] != child_g[i]) {
        same_children = false;
        break;
      }
    }
    if (!same_children) continue;
    if (cand->param_fp != node.ParamFingerprint(&mapping)) continue;
    return cand;
  }
  return nullptr;
}

RGNode* Recycler::InsertOne(const PlanNode& node,
                            const std::vector<RGNode*>& child_g,
                            NameMap* mapping, int64_t query_id) {
  auto gnode = std::make_unique<RGNode>();
  gnode->id = graph_.NextId();
  gnode->type = node.type();
  gnode->hash_key = node.HashKey();
  gnode->signature = MappedSignature(node, *mapping);
  gnode->param_fp = node.ParamFingerprint(mapping);
  gnode->param_node = node.CloneParamsRenamed(*mapping);
  if (gnode->type == OpType::kSelect) {
    gnode->conjunct_fps =
        ConjunctFingerprints(gnode->param_node->predicate(), nullptr);
  }
  gnode->children = child_g;
  gnode->base_tables = node.base_tables();
  gnode->inserted_by = query_id;
  gnode->h_epoch = graph_.epoch();

  // Output names: new names get the "#<id>" suffix (the paper appends a
  // query-unique identifier); pass-through names keep their graph name.
  std::vector<std::string> new_names = node.NewNames();
  std::unordered_set<std::string> new_set(new_names.begin(), new_names.end());
  const Schema& schema = node.output_schema();
  for (int i = 0; i < schema.num_fields(); ++i) {
    const std::string& q = schema.field(i).name;
    std::string graph_name;
    if (new_set.count(q) > 0) {
      graph_name = q + "#" + std::to_string(gnode->id);
      (*mapping)[q] = graph_name;
    } else {
      auto it = mapping->find(q);
      graph_name = it == mapping->end() ? q : it->second;
      (*mapping)[q] = graph_name;
    }
    gnode->output_names.push_back(graph_name);
    gnode->output_types.push_back(schema.field(i).type);
  }
  return graph_.AddNode(std::move(gnode), LeafKey(node));
}

std::unique_ptr<Recycler::MNode> Recycler::MatchTree(const PlanPtr& plan) {
  // Phase 1: optimistic matching under the shared lock.
  struct Walker {
    const Recycler* self;
    std::unique_ptr<MNode> Walk(const PlanPtr& p) {
      auto m = std::make_unique<MNode>();
      m->plan = p.get();
      m->plan_ref = p;
      bool all_matched = true;
      std::vector<RGNode*> child_g;
      for (const auto& c : p->children()) {
        auto cm = Walk(c);
        if (cm->gnode == nullptr) {
          all_matched = false;
        } else {
          child_g.push_back(cm->gnode);
        }
        m->children.push_back(std::move(cm));
      }
      if (!all_matched) return m;
      // Merge child mappings.
      for (const auto& cm : m->children) {
        m->mapping.insert(cm->mapping.begin(), cm->mapping.end());
      }
      RGNode* g = self->MatchOne(*p, child_g, m->mapping);
      if (g != nullptr) {
        m->gnode = g;
        // Extend the mapping across this node's outputs (positional).
        const Schema& schema = p->output_schema();
        for (int i = 0; i < schema.num_fields(); ++i) {
          m->mapping[schema.field(i).name] = g->output_names[i];
        }
      }
      return m;
    }
  };
  std::shared_lock<std::shared_mutex> lock(graph_.mutex());
  Walker w{this};
  return w.Walk(plan);
}

void Recycler::InsertMissing(MNode* m, PreparedQuery* prepared) {
  // Phase 2 (caller holds the exclusive lock): re-validate unmatched nodes
  // (a concurrent query may have inserted them since phase 1 — the
  // backwards-validation step of the paper's OCC scheme) and insert the
  // rest.
  if (m->gnode != nullptr) return;
  std::vector<RGNode*> child_g;
  for (auto& cm : m->children) {
    InsertMissing(cm.get(), prepared);
    child_g.push_back(cm->gnode);
  }
  m->mapping.clear();
  for (const auto& cm : m->children) {
    m->mapping.insert(cm->mapping.begin(), cm->mapping.end());
  }
  RGNode* g = MatchOne(*m->plan, child_g, m->mapping);
  if (g != nullptr) {
    m->gnode = g;
    m->inserted = false;
    const Schema& schema = m->plan->output_schema();
    for (int i = 0; i < schema.num_fields(); ++i) {
      m->mapping[schema.field(i).name] = g->output_names[i];
    }
    return;
  }
  m->gnode = InsertOne(*m->plan, child_g, &m->mapping, prepared->query_id_);
  m->inserted = true;
  // Warm-up: a node inserted for the first time in this process may have
  // a spilled image from a previous one — or from a fleet peer — so
  // adopt it and the reuse rewriter below serves this very query from
  // disk.
  if (TryAdoptOrphan(m->gnode)) Count(prepared, QueryCounter::kAdoptions);
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
// Exact-hit index
// ---------------------------------------------------------------------------

std::unique_ptr<PreparedQuery> Recycler::ProbeExactHit(
    const PlanPtr& plan, StatementKey* key) {
  *key = StatementKey{};
  // Proactive mode may swap the plan before matching, so it never uses
  // the index.
  if (config_.mode == RecyclerMode::kOff ||
      config_.mode == RecyclerMode::kProactive) {
    return nullptr;
  }
  Stopwatch match_sw;
  *key = ExactHitKey(*plan);
  std::unique_ptr<PreparedQuery> prepared;
  PlanPtr cs;
  {
    std::shared_lock<std::shared_mutex> glock(graph_.mutex());
    std::shared_ptr<const ExactHit> hit;
    {
      std::lock_guard<std::mutex> lock(exact_mu_);
      auto it = exact_hits_.find(key->text);
      if (it == exact_hits_.end()) return nullptr;
      hit = it->second;
    }
    RGNode* g = hit->root;
    prepared = std::make_unique<PreparedQuery>();
    PinTables(g->base_tables, prepared.get());
    TablePtr snapshot;
    {
      RecyclerGraph::MatShard& shard = graph_.mat_shard(g);
      std::lock_guard<std::mutex> slock(shard.mu);
      if (g->mat_state.load() != MatState::kCached ||
          CheckFreshness(g->stamps, g->base_tables, prepared->snapshots_,
                         nullptr) != Freshness::kFresh) {
        return nullptr;
      }
      snapshot = g->cached;
    }
    StartTrace(prepared.get(), plan->template_hash());
    prepared->trace_.plan_fingerprint = hit->plan_fingerprint;
    // BumpImportance on a fully matched plan with a cached root: every
    // node is accessed, only the root gains a reference.
    graph_.AdvanceEpoch();
    const int64_t epoch = graph_.epoch();
    for (RGNode* n : hit->nodes) n->last_access_epoch.store(epoch);
    graph_.FoldAging(g);
    AtomicAddClamped(g->h, 1.0, 0.0);
    g->match_count.fetch_add(1);

    auto m = std::make_unique<MNode>();
    m->plan = plan.get();
    m->plan_ref = plan;
    m->gnode = g;
    cs = ServeExact(m.get(), hit->output_names, std::move(snapshot),
                    /*from_cold=*/false, prepared.get());
    prepared->matched_ = std::move(m);
  }
  prepared->trace_.match_ms = match_sw.ElapsedMs();
  prepared->trace_.graph_nodes_at_match = graph_.num_nodes();
  cs->Bind(*catalog_);
  prepared->plan_ = std::move(cs);
  FinalizeTrace(prepared.get());
  return prepared;
}

void Recycler::RememberExactHit(std::string key, std::string alias,
                                const MNode& root,
                                uint64_t plan_fingerprint) {
  auto hit = std::make_shared<ExactHit>();
  hit->root = root.gnode;
  hit->output_names = root.plan->output_schema().Names();
  hit->plan_fingerprint = plan_fingerprint;
  std::vector<const MNode*> stack{&root};
  while (!stack.empty()) {
    const MNode* m = stack.back();
    stack.pop_back();
    hit->nodes.push_back(m->gnode);
    for (auto it = m->children.rbegin(); it != m->children.rend(); ++it) {
      stack.push_back(it->get());
    }
  }
  std::lock_guard<std::mutex> lock(exact_mu_);
  // Checked under exact_mu_: a root that leaves kCached after this check
  // is forgotten by SetMatState, which takes exact_mu_ after its store.
  if (hit->root->mat_state.load() != MatState::kCached) return;
  // A root keeps the keys of its latest registration, and a key one
  // root: drop the root's older keys, and each key's other root.
  ForgetExactHitLocked(hit->root);
  std::vector<const std::string*>& root_keys = exact_hit_keys_[hit->root];
  for (std::string* k : {&key, &alias}) {
    if (k->empty()) continue;
    auto [it, fresh_key] = exact_hits_.try_emplace(std::move(*k));
    if (!fresh_key) {
      if (it->second->root == hit->root) continue;  // alias == key
      std::vector<const std::string*>& other =
          exact_hit_keys_[it->second->root];
      other.erase(std::find(other.begin(), other.end(), &it->first));
      if (other.empty()) exact_hit_keys_.erase(it->second->root);
    }
    it->second = hit;
    root_keys.push_back(&it->first);
  }
}

void Recycler::ForgetExactHit(const RGNode* root) {
  std::lock_guard<std::mutex> lock(exact_mu_);
  ForgetExactHitLocked(root);
}

void Recycler::ForgetExactHitLocked(const RGNode* root) {
  auto it = exact_hit_keys_.find(root);
  if (it == exact_hit_keys_.end()) return;
  for (const std::string* key : it->second) {
    exact_hits_.erase(exact_hits_.find(*key));
  }
  exact_hit_keys_.erase(it);
}

int64_t Recycler::exact_hit_entries() const {
  std::lock_guard<std::mutex> lock(exact_mu_);
  return static_cast<int64_t>(exact_hit_keys_.size());
}

// ---------------------------------------------------------------------------
// Reuse rewriting (+ stalls and subsumption)
// ---------------------------------------------------------------------------

Freshness Recycler::NodeFreshness(RGNode* node, const PreparedQuery* prepared,
                                  StaleWindow* window) {
  RecyclerGraph::MatShard& shard = graph_.mat_shard(node);
  std::lock_guard<std::mutex> slock(shard.mu);
  return CheckFreshness(node->stamps, node->base_tables, prepared->snapshots_,
                        window);
}

void Recycler::DropSupersededEntry(RGNode* g) {
  std::shared_lock<std::shared_mutex> glock(graph_.mutex());
  std::lock_guard<std::mutex> clock(cache_mu_);
  MatState ms = g->mat_state.load();
  if (ms != MatState::kCached && ms != MatState::kCold) return;
  // Unlike EvictNode, no Eq. 4 h-giveback and no eviction counter: the
  // entry's data lives on inside the delta rewrite that replaces it, and
  // the refreshed result is about to be re-admitted. A concurrent stream
  // re-admitting the same node in this window loses its entry — benign,
  // the next hit re-materializes.
  cache_.Remove(g);
  interval_index_.Remove(g);
  cold_tier_.Remove(g);
  SetMatState(g, MatState::kNone, /*clear_cached=*/true);
}

PlanPtr Recycler::TryDeltaRewrite(MNode* m, const PlanPtr& plan, RGNode* g,
                                  TablePtr snapshot, const StaleWindow& window,
                                  PreparedQuery* prepared) {
  if (!DeltaEligiblePlan(*plan, window.table)) return nullptr;
  const bool agg_merge = plan->type() == OpType::kAggregate;
  PlanPtr cached_scan;
  PlanPtr delta_plan =
      agg_merge
          ? BuildAggMerge(*plan, std::move(snapshot), window, &cached_scan)
          : BuildDeltaStitch(*plan, std::move(snapshot), window, &cached_scan);
  {
    std::shared_lock<std::shared_mutex> glock(graph_.mutex());
    cached_scan->set_cache_key(CanonicalSubtreeKey(g));
    // Eq. 2 credit: the cached prefix replaced the share of the node's
    // from-base-tables work proportional to the rows it covers. No extra
    // h bump — the exact match already bumped in BumpImportance.
    double frac = window.to_rows > 0
                      ? static_cast<double>(window.from_rows) /
                            static_cast<double>(window.to_rows)
                      : 1.0;
    prepared->replaced_cost_[cached_scan.get()] = g->bcost_ms.load() * frac;
  }
  // The rewrite supersedes the stale entry; dropping it to kNone lets
  // InjectStores' stitched branch claim the node, so the refreshed full
  // result re-admits at the new high-water mark (OfferResult stamps it
  // with this query's snapshots).
  DropSupersededEntry(g);
  m->stitched = true;
  if (!agg_merge) m->delta_prefix = cached_scan->cached_result();
  m->exec_plan = delta_plan.get();
  prepared->exec_to_gnode_[delta_plan.get()] = g;
  Count(prepared, QueryCounter::kReuses);
  Count(prepared, QueryCounter::kDeltaReuses);
  if (agg_merge) Count(prepared, QueryCounter::kAggMerges);
  if (prepared->cold_loaded_.count(g) > 0) {
    Count(prepared, QueryCounter::kColdHits);
  }
  return delta_plan;
}

PlanPtr Recycler::ServeExact(MNode* m, std::vector<std::string> column_names,
                             TablePtr snapshot, bool from_cold,
                             PreparedQuery* prepared) {
  RGNode* g = m->gnode;
  PlanPtr cs = PlanNode::CachedScan(std::move(snapshot),
                                    std::move(column_names));
  cs->set_cache_key(CanonicalSubtreeKey(g));
  prepared->replaced_cost_[cs.get()] = g->bcost_ms.load();
  m->replaced = true;
  Count(prepared, QueryCounter::kReuses);
  if (from_cold) Count(prepared, QueryCounter::kColdHits);
  if (config_.cache_policy == CachePolicy::kLru) {
    std::lock_guard<std::mutex> clock(cache_mu_);
    cache_.TouchForLru(g);
  }
  return cs;
}

void Recycler::MaybeAdoptOrphanParents(RGNode* child_gnode,
                                       PreparedQuery* prepared) {
  if (!cold_tier_.has_orphans()) return;
  // Derived reuse probes this child's parents for cached results; restart
  // and fleet-peer orphans among them are invisible until some query
  // re-inserts the exact node. Adopt them here by canonical key so a
  // subsumption/stitch lookup can serve them directly, and rebuild the
  // nodes of the orphan slices filed under this child that no statement
  // has inserted yet. Only the orphan set's growth can make a walk adopt
  // anything: a parent inserted since the last walk was probed at its
  // own insert (InsertMissing), so the walk repeats only when the
  // generation moved.
  const int64_t gen = cold_tier_.orphan_generation();
  if (child_gnode->orphan_walk_gen.load() == gen) return;
  std::unique_lock<std::shared_mutex> glock(graph_.mutex());
  std::unordered_set<RGNode*> seen;
  for (const auto& [hk, parent] : child_gnode->parents) {
    if (seen.insert(parent).second && TryAdoptOrphan(parent)) {
      Count(prepared, QueryCounter::kAdoptions);
    }
  }
  std::vector<SpillFileMeta> slices =
      cold_tier_.OrphanSlicesUnder(CanonicalSubtreeKey(child_gnode));
  if (!slices.empty()) {
    // A parent that already has the slice's identity but could not adopt
    // (in flight or hot) must not get a twin.
    std::unordered_set<std::string> existing;
    for (RGNode* parent : seen) existing.insert(CanonicalSubtreeKey(parent));
    for (const SpillFileMeta& meta : slices) {
      if (existing.count(meta.canon_key) > 0) continue;
      RGNode* node = RebuildOrphanSlice(child_gnode, meta);
      if (node != nullptr && TryAdoptOrphan(node)) {
        Count(prepared, QueryCounter::kAdoptions);
      }
    }
  }
  child_gnode->orphan_walk_gen.store(gen);
}

RGNode* Recycler::RebuildOrphanSlice(RGNode* child, const SpillFileMeta& meta) {
  // A Select passes its child's columns through; other types never
  // adopt (TryAdoptOrphan would drop the file).
  if (meta.column_types != child->output_types) return nullptr;
  ExprPtr pred = DecodeExprOrdinal(meta.select_predicate, child->output_names);
  if (pred == nullptr) {
    counters_.cold_orphan_key_mismatches.fetch_add(1);
    return nullptr;
  }
  // The fields a statement's InsertOne would set, from the graph-space
  // predicate directly (a Select's graph parameters are its predicate
  // renamed into the child's output names).
  auto node = std::make_unique<RGNode>();
  node->param_node = PlanNode::Select(nullptr, pred)->CloneParamsRenamed({});
  node->id = graph_.NextId();
  node->type = OpType::kSelect;
  node->hash_key = node->param_node->HashKey();
  node->signature = MappedSignature(*node->param_node, {});
  node->param_fp = node->param_node->ParamFingerprint(nullptr);
  node->conjunct_fps = ConjunctFingerprints(pred, nullptr);
  node->children = {child};
  node->base_tables = child->base_tables;
  node->h_epoch = graph_.epoch();
  node->output_names = child->output_names;
  node->output_types = child->output_types;
  // Publish only what a statement with this predicate would match: a
  // node under another key would serve the slice as a result it is not.
  if (CanonicalSubtreeKey(node.get()) != meta.canon_key) {
    counters_.cold_orphan_key_mismatches.fetch_add(1);
    return nullptr;
  }
  counters_.cold_orphans_rebuilt.fetch_add(1);
  return graph_.AddNode(std::move(node), "");
}

PlanPtr Recycler::RewriteForReuse(MNode* m, const PlanPtr& plan,
                                  PreparedQuery* prepared) {
  RGNode* g = m->gnode;

  if (CacheableType(plan->type())) {
    // Exact reuse, stalling on an in-flight materialization first. The
    // snapshot TablePtr taken under the node's mat shard mutex pins the
    // result for this query: scans emit zero-copy views of its columns,
    // and shared ownership (plan -> TablePtr -> ColumnPtr -> batch views)
    // keeps the data alive even if the recycler evicts the entry mid-scan
    // (see DESIGN.md, "Zero-copy views and result lifetime").
    //
    // The wait is race-free: every transition out of kInFlight happens
    // under the same shard mutex before the condvar is signalled, so the
    // predicate cannot flip between its evaluation and the wait.
    TablePtr snapshot;
    {
      RecyclerGraph::MatShard& shard = graph_.mat_shard(g);
      std::unique_lock<std::mutex> lock(shard.mu);
      if (g->mat_state.load() == MatState::kInFlight) {
        Count(prepared, QueryCounter::kStalls);
        Stopwatch sw;
        shard.cv.wait_for(
            lock, std::chrono::milliseconds(config_.stall_timeout_ms),
            [g] { return g->mat_state.load() != MatState::kInFlight; });
        prepared->trace_.stall_ms += sw.ElapsedMs();
      }
      if (g->mat_state.load() == MatState::kCached) {
        snapshot = g->cached;
      }
    }
    bool exact_from_cold = false;
    if (snapshot == nullptr) {
      // Cold tier: a spilled result answers an exact match by lazy
      // re-admission (load from disk, promote when admittable, serve).
      snapshot = SnapshotOrReadmit(g, prepared, &exact_from_cold);
    }
    if (snapshot != nullptr) {
      // Delta maintenance: a snapshot stamped behind this query's pinned
      // base tables is not served as-is. Append-only staleness rewrites
      // into cached-prefix + delta-window (or an aggregate merge);
      // anything else drops the superseded entry and falls through to a
      // miss. kAhead (a concurrent refresh already re-admitted at a
      // newer mark than this query's older snapshot) is a miss WITHOUT
      // eviction: the entry is perfectly fresh for later queries.
      StaleWindow window;
      Freshness fresh = NodeFreshness(g, prepared, &window);
      if (fresh != Freshness::kFresh) {
        if (fresh == Freshness::kAppendStale &&
            config_.enable_delta_maintenance && !window.table.empty()) {
          PlanPtr delta = TryDeltaRewrite(m, plan, g, std::move(snapshot),
                                          window, prepared);
          if (delta != nullptr) return delta;
        }
        if (fresh != Freshness::kAhead) {
          DropSupersededEntry(g);
          counters_.invalidations.fetch_add(1);
        }
        snapshot = nullptr;
        exact_from_cold = false;
      }
    }
    if (snapshot != nullptr) {
      // The canonical subtree key walks graph structure (children).
      std::shared_lock<std::shared_mutex> glock(graph_.mutex());
      return ServeExact(m, plan->output_schema().Names(), std::move(snapshot),
                        exact_from_cold, prepared);
    }

    // Derived reuse: only consulted when exact matching failed to
    // produce a cached result. Both paths need the single shared child's
    // graph node; each is gated by its own config flag.
    if ((config_.enable_subsumption || config_.enable_partial_reuse) &&
        m->children.size() == 1 && m->children[0]->gnode != nullptr) {
      RGNode* child_gnode = m->children[0]->gnode;
      const NameMap& child_mapping = m->children[0]->mapping;
      // Restart orphans among this child's parents become directly
      // servable subsumption/stitch candidates (adoption by canonical
      // key), instead of waiting for an exact re-insertion.
      MaybeAdoptOrphanParents(child_gnode, prepared);

      // A range selection's interval decomposition serves both paths:
      // subsumption loads cold candidates through it, stitching keys the
      // interval index on it.
      std::vector<RangeSpec> specs;
      if (plan->type() == OpType::kSelect) {
        specs = ExtractRangeSpecs(plan->predicate(), &child_mapping);
      }
      const bool stitch =
          config_.enable_partial_reuse && plan->type() == OpType::kSelect;
      std::set<std::string> query_fps;
      if (config_.enable_subsumption && plan->type() == OpType::kSelect) {
        query_fps = ConjunctFingerprints(plan->predicate(), &child_mapping);
      }

      // Both paths take their candidates from the derived-reuse index in
      // one cache_mu_ section, which covers only what is materialized
      // under this child. Snapshots are taken outside it because a kCold
      // candidate re-admits from disk, and promotion itself acquires the
      // graph lock and cache_mu_. The raw pointers stay valid: truncation
      // requires a quiescent point, and this query is inside its Prepare
      // window.
      //
      // Subsumption candidates: hot ones first, then cold ones, each in
      // ascending node id. Cold ones cost a disk load just to probe
      // (TrySubsumption needs the table), so they are only consulted when
      // no in-memory candidate derives. Either kind is dropped before its
      // freshness check and snapshot or load when it cannot derive
      // (MaySubsume), so a cold file is read only to serve.
      std::vector<RGNode*> sub_cands;
      std::vector<std::vector<IntervalIndex::Entry>> entries_per_spec(
          stitch ? specs.size() : 0);
      bool any_entries = false;
      {
        std::lock_guard<std::mutex> clock(cache_mu_);
        if (config_.enable_subsumption) {
          const std::vector<RGNode*>& parents =
              interval_index_.Parents(child_gnode->id);
          std::vector<RGNode*> cold_cands;
          for (RGNode* parent : parents) {
            if (parent == g || !MaySubsume(*parent, plan->type(), query_fps)) {
              continue;
            }
            const MatState ms = parent->mat_state.load();
            if (ms == MatState::kCached) sub_cands.push_back(parent);
            if (ms == MatState::kCold) cold_cands.push_back(parent);
          }
          sub_cands.insert(sub_cands.end(), cold_cands.begin(),
                           cold_cands.end());
        }
        for (size_t si = 0; si < entries_per_spec.size(); ++si) {
          interval_index_.Overlapping(child_gnode->id, specs[si],
                                      &entries_per_spec[si]);
          any_entries = any_entries || !entries_per_spec[si].empty();
        }
      }

      // Single-superset subsumption (§IV-A).
      if (config_.enable_subsumption) {
        // When the query is a range selection, a cold candidate loads as
        // a filtered slice: the selection runs on the encoded image and
        // only in-range rows materialize. Sound because the subsumption
        // compensation either already implies the range (shared
        // conjunct) or re-applies it (residual).
        const RangeSpec* sub_spec = specs.empty() ? nullptr : &specs[0];
        SubsumptionPlan derived;
        RGNode* subsumer = nullptr;
        bool subsumer_from_cold = false;
        for (RGNode* parent : sub_cands) {
          // A stale candidate never derives: its result may lack
          // appended rows the query's pinned snapshot contains.
          if (NodeFreshness(parent, prepared, nullptr) != Freshness::kFresh) {
            continue;
          }
          bool from_cold = false;
          TablePtr cached =
              sub_spec != nullptr
                  ? SnapshotOrLoadSlice(parent, sub_spec->mapped_column,
                                        sub_spec->range, prepared, &from_cold)
                  : SnapshotOrReadmit(parent, prepared, &from_cold);
          if (cached == nullptr) continue;
          derived = TrySubsumption(*m->plan, m->children[0]->mapping,
                                   *parent, cached);
          if (derived.plan != nullptr) {
            subsumer = parent;
            subsumer_from_cold = from_cold;
            break;
          }
        }
        if (derived.plan != nullptr) {
          {
            // Exclusive: the subsumption edge list is graph structure.
            std::unique_lock<std::shared_mutex> glock(graph_.mutex());
            graph_.FoldAging(subsumer);
            AtomicAddClamped(subsumer->h, 1.0, 0.0);  // subsumption reference
            bool have_edge = false;
            for (RGNode* s : subsumer->subsumes) have_edge |= (s == g);
            if (!have_edge) subsumer->subsumes.push_back(g);
            derived.cached_scan->set_cache_key(CanonicalSubtreeKey(subsumer));
            prepared->replaced_cost_[derived.cached_scan.get()] =
                subsumer->bcost_ms.load();
          }
          m->replaced = true;
          Count(prepared, QueryCounter::kReuses);
          Count(prepared, QueryCounter::kSubsumptionReuses);
          if (subsumer_from_cold) Count(prepared, QueryCounter::kColdHits);
          return derived.plan;
        }
      }

      // Partial reuse (range stitching): no single cached result covers
      // the query, but overlapping cached range slices over the same
      // child may cover parts of it. Answer from their union plus
      // compensated delta scans for the remainder; credit contributors
      // proportionally to the share of the interval they serve.
      //
      // Candidate slices come from the interval index (which retains
      // cold entries: a spilled slice still stitches), collected above.
      if (any_entries) {
        // Delta scans prefer the child's own result — from either
        // tier — over re-executing the child subtree (stitching must
        // not preempt a reuse the plain miss path would have gotten).
        PlanPtr delta_child = plan->children()[0];
        bool delta_child_cached = false;
        bool delta_child_from_cold = false;
        if (NodeFreshness(child_gnode, prepared, nullptr) ==
            Freshness::kFresh) {
          TablePtr child_snap =
              SnapshotOrReadmit(child_gnode, prepared, &delta_child_from_cold);
          if (child_snap != nullptr) {
            delta_child = PlanNode::CachedScan(
                std::move(child_snap),
                plan->children()[0]->output_schema().Names());
            delta_child_cached = true;
          }
        }
        // Lay the stitch out on intervals for every spec and keep the
        // best; only then read the cold slices it uses, each filtered to
        // its clip. Hot candidates carry their snapshot, cold ones none.
        std::vector<std::vector<IntervalCandidate>> cands(specs.size());
        StitchLayout layout;
        size_t layout_spec = 0;
        for (size_t si = 0; si < specs.size(); ++si) {
          for (const IntervalIndex::Entry& e : entries_per_spec[si]) {
            if (e.node == g) continue;  // exact reuse handled above
            // Stale slices never stitch (appended rows missing).
            if (NodeFreshness(e.node, prepared, nullptr) !=
                Freshness::kFresh) {
              continue;
            }
            TablePtr snapshot;
            {
              RecyclerGraph::MatShard& shard = graph_.mat_shard(e.node);
              std::lock_guard<std::mutex> slock(shard.mu);
              const MatState ms = e.node->mat_state.load();
              if (ms == MatState::kCached) {
                snapshot = e.node->cached;
              } else if (ms != MatState::kCold) {
                continue;  // dropped since the index lookup
              }
            }
            cands[si].push_back({e.node, std::move(snapshot), e.spec});
          }
          if (cands[si].empty()) continue;
          StitchLayout attempt =
              PlanPartialStitch(*plan, specs[si], cands[si]);
          if (!attempt.uses.empty() &&
              attempt.covered_fraction > layout.covered_fraction) {
            layout = std::move(attempt);
            layout_spec = si;
          }
        }
        PartialPlan stitched;
        if (!layout.uses.empty()) {
          const RangeSpec& spec = specs[layout_spec];
          // A cold slice is read once, filtered to the hull of its clips
          // (a hot slice inside it splits its share in two); each use
          // still compensates to its own clip.
          std::map<const RGNode*, ColumnInterval> hulls;
          for (const StitchLayout::Use& use : layout.uses) {
            if (use.source->cached != nullptr) continue;
            auto [it, fresh] = hulls.try_emplace(use.source->node, use.clip);
            if (fresh) continue;
            ColumnInterval& hull = it->second;
            if (LoTighter(hull.lo, use.clip.lo)) hull.lo = use.clip.lo;
            if (HiTighter(hull.hi, use.clip.hi)) hull.hi = use.clip.hi;
          }
          std::map<const RGNode*, TablePtr> reads;
          for (const auto& [node, hull] : hulls) {
            bool from_cold = false;
            reads[node] = SnapshotOrLoadSlice(const_cast<RGNode*>(node),
                                              spec.mapped_column, hull,
                                              prepared, &from_cold);
          }
          std::vector<TablePtr> tables;
          for (const StitchLayout::Use& use : layout.uses) {
            tables.push_back(use.source->cached != nullptr
                                 ? use.source->cached
                                 : reads[use.source->node]);
          }
          stitched = BuildPartialStitch(*plan, child_mapping, delta_child,
                                        spec, layout, tables);
        }
        if (stitched.plan != nullptr) {
          std::set<const RGNode*> cold_sources;
          std::shared_lock<std::shared_mutex> glock(graph_.mutex());
          for (const PartialPiece& piece : stitched.reuse_pieces) {
            RGNode* src = const_cast<RGNode*>(piece.source);
            graph_.FoldAging(src);
            AtomicAddClamped(src->h, piece.fraction, 0.0);
            piece.cached_scan->set_cache_key(CanonicalSubtreeKey(src));
            // Eq. 2 bookkeeping: the slice replaced `fraction` of the
            // contributor's from-base-tables work.
            prepared->replaced_cost_[piece.cached_scan.get()] =
                src->bcost_ms.load() * piece.fraction;
            if (prepared->cold_loaded_.count(piece.source) > 0) {
              cold_sources.insert(piece.source);
            }
          }
          int stitch_cold_hits = static_cast<int>(cold_sources.size());
          if (delta_child_cached && stitched.num_delta_pieces > 0) {
            // The single delta branch replaced the child's base cost
            // exactly once (Eq. 2).
            graph_.FoldAging(child_gnode);
            AtomicAddClamped(child_gnode->h, 1.0, 0.0);
            delta_child->set_cache_key(CanonicalSubtreeKey(child_gnode));
            prepared->replaced_cost_[delta_child.get()] =
                child_gnode->bcost_ms.load();
            if (delta_child_from_cold) ++stitch_cold_hits;
          }
          m->stitched = true;
          m->exec_plan = stitched.plan.get();
          prepared->exec_to_gnode_[stitched.plan.get()] = g;
          Count(prepared, QueryCounter::kReuses);
          Count(prepared, QueryCounter::kPartialReuses);
          if (delta_child_cached && stitched.num_delta_pieces > 0) {
            // The child reuse in the delta pieces.
            Count(prepared, QueryCounter::kReuses);
          }
          if (stitch_cold_hits > 0) {
            Count(prepared, QueryCounter::kColdHits, stitch_cold_hits);
          }
          return stitched.plan;
        }
      }
    }
  }

  // No reuse here: recurse into children.
  bool changed = false;
  std::vector<PlanPtr> new_children;
  for (size_t i = 0; i < m->children.size(); ++i) {
    PlanPtr nc =
        RewriteForReuse(m->children[i].get(), plan->children()[i], prepared);
    changed = changed || nc != plan->children()[i];
    new_children.push_back(std::move(nc));
  }
  PlanPtr out = changed ? plan->WithChildren(std::move(new_children)) : plan;
  m->exec_plan = out.get();
  prepared->exec_to_gnode_[out.get()] = g;
  return out;
}

// ---------------------------------------------------------------------------
// Store injection (admission decisions before execution)
// ---------------------------------------------------------------------------

StoreRequest Recycler::MakeStoreRequest(RGNode* gnode, StoreMode mode,
                                        PreparedQuery* prepared) {
  StoreRequest req;
  req.mode = mode;
  req.token = gnode;
  req.buffer_cap_bytes = config_.speculation_buffer_cap;
  req.keep_going = [this](void* token, const SpeculationEstimate& est) {
    return SpeculationKeepGoing(static_cast<RGNode*>(token), est);
  };
  req.on_complete = [this, prepared](void* token, TablePtr result,
                                     double subtree_ms) {
    RGNode* node = static_cast<RGNode*>(token);
    if (result != nullptr) {
      OfferResult(node, std::move(result), subtree_ms, prepared);
    } else {
      Count(prepared, QueryCounter::kSpecAborted);
      SetMatState(node, MatState::kNone);
    }
  };
  return req;
}

bool Recycler::MaybeInjectStore(RGNode* g, const PlanNode* exec_plan,
                                bool history_ok, bool speculative_ok,
                                PreparedQuery* prepared) {
  if (exec_plan == nullptr || g->mat_state.load() != MatState::kNone ||
      prepared->stores_.count(exec_plan) > 0) {
    return false;
  }
  if (g->has_bcost.load()) {
    // History-based decision (§V HIST): the result has been computed
    // before, so cost and size are known; materialize when the benefit
    // metric admits it.
    if (!history_ok || graph_.AgedH(g) < 1.0) return false;
    double benefit = BenefitOf(g);
    int64_t size = static_cast<int64_t>(EstimatedSize(g));
    bool would_admit;
    {
      std::lock_guard<std::mutex> clock(cache_mu_);
      would_admit = cache_.WouldAdmit(benefit, size);
    }
    if (would_admit && TryClaimInFlight(g)) {
      prepared->stores_[exec_plan] =
          MakeStoreRequest(g, StoreMode::kMaterialize, prepared);
      return true;
    }
    return false;
  }
  // Speculation (§III-D): never executed before; buffer and decide at
  // run time.
  if (speculative_ok && TryClaimInFlight(g)) {
    prepared->stores_[exec_plan] =
        MakeStoreRequest(g, StoreMode::kSpeculative, prepared);
    return true;
  }
  return false;
}

void Recycler::InjectStores(MNode* m, PreparedQuery* prepared,
                            bool in_store_chain) {
  // Caller holds the *shared* graph lock: the decision reads structure
  // and atomic stats, consults the cache under cache_mu_, and claims the
  // node by CAS — concurrent streams injecting stores for disjoint nodes
  // proceed in parallel, and two streams racing for the same node are
  // arbitrated by TryClaimInFlight (the loser executes without storing).
  if (m->replaced) return;  // subtree not executed
  RGNode* g = m->gnode;
  const bool spec_mode = config_.mode == RecyclerMode::kSpeculation ||
                         config_.mode == RecyclerMode::kProactive;
  bool stored_here = false;

  if (m->stitched) {
    // Stitched-admission policy: the union of cached slices + delta scans
    // produces the node's FULL result, so it is a store candidate — caching
    // it widens the indexed coverage and turns future overlapping queries
    // into full covers. Every stitched node is a speculation target (its
    // overlap history is exactly what predicts the next overlapping
    // query). Children are not walked: delta branches may share plan
    // nodes, and a shared store target would double-offer its result.
    if (MaybeInjectStore(g, m->exec_plan, /*history_ok=*/!in_store_chain,
                         /*speculative_ok=*/spec_mode, prepared)) {
      prepared->stores_[m->exec_plan].prefix = m->delta_prefix;
    }
    return;
  }

  if (CacheableType(m->plan->type())) {
    // Within a chain only the most beneficial node is stored
    // (in_store_chain gates history stores below a chosen store);
    // speculation targets expected expensive/small operators and the
    // final result.
    const bool is_root = m == prepared->matched_.get();
    stored_here = MaybeInjectStore(
        g, m->exec_plan, /*history_ok=*/!in_store_chain,
        /*speculative_ok=*/
        spec_mode && (SpeculationTargetType(m->plan->type()) || is_root),
        prepared);
  }

  for (auto& c : m->children) {
    // History stores below an existing history store are suppressed
    // ("the result with the highest benefit of every subtree"); stores are
    // injected top-down so the ancestor wins. Speculative stores do not
    // suppress descendants (the paper materializes intermediates and the
    // final result of the same query).
    bool chain = in_store_chain ||
                 (stored_here && prepared->stores_[m->exec_plan].mode ==
                                     StoreMode::kMaterialize);
    InjectStores(c.get(), prepared, chain);
  }
}

// ---------------------------------------------------------------------------
// Store callbacks
// ---------------------------------------------------------------------------

void Recycler::SetMatState(RGNode* node, MatState state, bool clear_cached) {
  RecyclerGraph::MatShard& shard = graph_.mat_shard(node);
  MatState prev = MatState::kNone;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    prev = node->mat_state.load();
    if (clear_cached) {
      node->cached = nullptr;
      // The stamps describe the materialized result, which outlives the
      // hot TablePtr across the cold tier: only the final drop to kNone
      // clears them (a kCold demotion keeps its as-of identity).
      if (state == MatState::kNone) node->stamps.clear();
    }
    node->mat_state.store(state);
  }
  shard.cv.notify_all();
  if (prev == MatState::kCached && state != MatState::kCached) {
    ForgetExactHit(node);
  }
}

bool Recycler::TryClaimInFlight(RGNode* node) {
  MatState expected = MatState::kNone;
  return node->mat_state.compare_exchange_strong(expected,
                                                 MatState::kInFlight);
}

bool Recycler::SpeculationKeepGoing(RGNode* node,
                                    const SpeculationEstimate& est) {
  double h;
  {
    std::shared_lock<std::shared_mutex> lock(graph_.mutex());
    h = graph_.AgedH(node);
  }
  if (h <= 0) h = config_.speculation_h;
  double size = std::max(1.0, est.est_size_bytes);
  double benefit = est.est_cost_ms * h / size;
  std::lock_guard<std::mutex> clock(cache_mu_);
  return cache_.WouldAdmit(benefit, static_cast<int64_t>(size));
}

void Recycler::OfferResult(RGNode* node, TablePtr result, double subtree_ms,
                           PreparedQuery* prepared) {
  // The shared graph lock pins the structure (TrueCost/UpdateHr walk
  // children); all statistic writes are atomic, the cached TablePtr is
  // published under the node's mat shard mutex, and admission runs under
  // cache_mu_. Concurrent offers from other streams only serialize on the
  // admission decision itself, never on matching.
  std::shared_lock<std::shared_mutex> lock(graph_.mutex());
  graph_.FoldAging(node);
  node->rows.store(result->num_rows());
  if (!node->has_bcost.load()) {
    node->bcost_ms.store(subtree_ms);
    node->has_bcost.store(true);
  }
  // Store the result under graph-space column names.
  TablePtr graph_table = result->RenameColumns(node->output_names);
  const int64_t bytes = std::max<int64_t>(1, graph_table->ByteSize());
  {
    RecyclerGraph::MatShard& shard = graph_.mat_shard(node);
    std::lock_guard<std::mutex> slock(shard.mu);
    node->cached = std::move(graph_table);
    // Stamp the result with the as-of versions it was computed from
    // (delta maintenance). A dependency without a pinned snapshot leaves
    // the entry unstamped; appends then hard-invalidate it.
    node->stamps.clear();
    for (const std::string& t : node->base_tables) {
      auto it = prepared->snapshots_.find(t);
      if (it == prepared->snapshots_.end()) {
        node->stamps.clear();
        break;
      }
      node->stamps[t] = TableStamp{it->second.epoch, it->second.rows};
    }
  }
  node->cached_bytes.store(bytes);
  node->size_bytes.store(static_cast<double>(bytes));
  node->has_size.store(true);

  double benefit = BenefitOf(node);
  std::vector<RGNode*> evicted;
  bool admitted;
  {
    // One cache_mu_ critical section covers the admission decision, the
    // victims' transitions, and this node's kCached publication: a
    // concurrent Admit can therefore never evict this node between its
    // admission and its state flip, and every node a replacement decision
    // sees is in a settled state.
    std::lock_guard<std::mutex> clock(cache_mu_);
    admitted = cache_.Admit(node, benefit, &evicted);
    for (RGNode* v : evicted) HandleHotEviction(v);
    if (admitted) {
      SetMatState(node, MatState::kCached);
      interval_index_.Insert(node);
    } else {
      SetMatState(node, MatState::kNone, /*clear_cached=*/true);
    }
  }
  if (admitted) {
    // Every exact hit on this entry carries its cache key; computing the
    // memo now puts that cost on the miss that produced the result.
    CanonicalSubtreeKey(node);
    UpdateHrOnMaterialize(node);
    Count(prepared, QueryCounter::kMaterialized);
  }
}

// ---------------------------------------------------------------------------
// Eviction / invalidation
// ---------------------------------------------------------------------------

void Recycler::EvictNode(RGNode* node, bool update_h) {
  // Caller holds at least the shared graph lock and cache_mu_. Dropping
  // node->cached (inside SetMatState's shard critical section) only
  // releases the graph's reference: concurrent streams that already took
  // a snapshot keep the table (and any column views into it) alive until
  // their scans drain. This is the invalidation path, so the node's
  // spill file (if any) is deleted too — stale cold results must never
  // be re-admitted.
  cache_.Remove(node);
  interval_index_.Remove(node);
  cold_tier_.Remove(node);
  if (update_h) UpdateHrOnEvict(node);
  SetMatState(node, MatState::kNone, /*clear_cached=*/true);
  counters_.evictions.fetch_add(1);
}

int64_t Recycler::interval_index_entries() const {
  std::lock_guard<std::mutex> clock(cache_mu_);
  return interval_index_.num_entries();
}

void Recycler::InvalidateTable(const std::string& table) {
  // Shared lock: the node list is only iterated, never changed; evictions
  // happen under cache_mu_ + the shard mutexes, so concurrent streams can
  // keep matching (and draining snapshots they already hold) while an
  // update commit sweeps the cache.
  std::shared_lock<std::shared_mutex> lock(graph_.mutex());
  std::lock_guard<std::mutex> clock(cache_mu_);
  for (const auto& n : graph_.nodes()) {
    MatState ms = n->mat_state.load();
    if ((ms == MatState::kCached || ms == MatState::kCold) &&
        n->base_tables.count(table) > 0) {
      EvictNode(n.get(), /*update_h=*/ms == MatState::kCached);
      counters_.invalidations.fetch_add(1);
    }
  }
  // Orphan spill files from a previous process also derive from the
  // table; purge them so a later adoption cannot resurrect stale data.
  std::vector<const RGNode*> dropped;
  cold_tier_.PurgeTable(table, &dropped);
  for (const RGNode* d : dropped) {
    // Live entries over the table were already evicted above; anything
    // the purge still reports is demoted defensively.
    OnColdEntryDropped(const_cast<RGNode*>(d));
  }
}

void Recycler::OnTableAppended(const std::string& table) {
  // Same locking shape as InvalidateTable, but append-only growth is
  // survivable: a materialized entry is KEPT when delta maintenance can
  // refresh it — stamped at the current epoch with a mark not past the
  // table, and of a delta-eligible shape (single-table chain with an
  // optionally decomposable aggregate root). Everything else — unstamped
  // legacy entries, joins, non-decomposable roots — hard-invalidates.
  TableSnapshot snap = catalog_->Snapshot(table);
  std::shared_lock<std::shared_mutex> lock(graph_.mutex());
  std::lock_guard<std::mutex> clock(cache_mu_);
  for (const auto& n : graph_.nodes()) {
    MatState ms = n->mat_state.load();
    if ((ms != MatState::kCached && ms != MatState::kCold) ||
        n->base_tables.count(table) == 0) {
      continue;
    }
    bool keep = false;
    if (config_.enable_delta_maintenance && snap.table != nullptr &&
        DeltaEligibleNode(*n, table)) {
      RecyclerGraph::MatShard& shard = graph_.mat_shard(n.get());
      std::lock_guard<std::mutex> slock(shard.mu);
      auto it = n->stamps.find(table);
      keep = it != n->stamps.end() && it->second.epoch == snap.epoch &&
             it->second.rows <= snap.rows;
    }
    if (!keep) {
      EvictNode(n.get(), /*update_h=*/ms == MatState::kCached);
      counters_.invalidations.fetch_add(1);
    } else if (ms == MatState::kCached) {
      // Kept for a delta rewrite, but stale for every later snapshot: an
      // index entry on it could only fail its freshness check.
      ForgetExactHit(n.get());
    }
  }
  // Orphan images from a previous process carry row marks and re-anchor
  // on adoption (TryAdoptOrphan drops any whose mark exceeds the live
  // table), so they survive appends. Unstamped files (spilled while a
  // dependency had no pinned snapshot) are indistinguishable from stale
  // — purge those.
  std::vector<const RGNode*> dropped;
  cold_tier_.PurgeUnversionedOrphans(table, &dropped);
  for (const RGNode* d : dropped) {
    OnColdEntryDropped(const_cast<RGNode*>(d));
  }
}

int64_t Recycler::TruncateGraph(int64_t idle_epochs) {
  std::unique_lock<std::shared_mutex> lock(graph_.mutex());
  {
    // Entries hold raw node pointers; truncation may free any of them.
    std::lock_guard<std::mutex> elock(exact_mu_);
    exact_hits_.clear();
    exact_hit_keys_.clear();
  }
  return graph_.Truncate(idle_epochs);
}

void Recycler::FlushCache() {
  // A flush is memory-pressure relief, not invalidation: with the cold
  // tier enabled, still-beneficial results are demoted to disk instead
  // of discarded (use InvalidateTable/ReplaceTable to drop stale data).
  {
    std::shared_lock<std::shared_mutex> lock(graph_.mutex());
    std::lock_guard<std::mutex> clock(cache_mu_);
    std::vector<RGNode*> evicted;
    cache_.Flush(&evicted);
    for (RGNode* n : evicted) HandleHotEviction(n);
  }
  // Flush promises the demotions are durable on return; the drain
  // barrier runs outside the graph/cache locks (the spill worker's drop
  // callback acquires them).
  cold_tier_.Drain();
}

// ---------------------------------------------------------------------------
// Prepare / OnComplete / Execute
// ---------------------------------------------------------------------------

void Recycler::StartTrace(PreparedQuery* prepared, uint64_t template_hash) {
  prepared->query_id_ = next_query_id_.fetch_add(1);
  prepared->trace_.query_id = prepared->query_id_;
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

std::unique_ptr<PreparedQuery> Recycler::Prepare(PlanPtr plan,
                                                 StatementKey key,
                                                 std::string alias) {
  auto prepared = std::make_unique<PreparedQuery>();
  StartTrace(prepared.get(), plan->template_hash());
  plan->Bind(*catalog_);
  // Identity of the statement as submitted (post-canonicalization,
  // pre-rewrite): trace/golden tooling keys replay diffs on this. The
  // plan's key already holds its fingerprint.
  prepared->trace_.plan_fingerprint =
      key.text.empty() ? HashString(plan->TreeFingerprint())
                       : HashString(std::string_view(key.text).substr(
                             0, key.fingerprint_size));

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

  if (config_.mode != RecyclerMode::kProactive) {
    prepared->exact_hit_key_ = std::move(key.text);
    prepared->exact_hit_alias_ = std::move(alias);
  }

  // --- proactive rewriting (PA mode, §IV-B) ---------------------------
  std::unique_ptr<MNode> matched;
  if (config_.mode == RecyclerMode::kProactive) {
    PlanPtr topn = RewriteTopNProactive(plan, config_.proactive_topn_limit);
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
  if (!prepared->exact_hit_key_.empty() &&
      root->gnode->mat_state.load() == MatState::kCached &&
      !(root->replaced && prepared->trace_.num_subsumption_reuses > 0)) {
    RememberExactHit(std::move(prepared->exact_hit_key_),
                     std::move(prepared->exact_hit_alias_), *root,
                     prepared->trace_.plan_fingerprint);
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
}

TemplateStats Recycler::TemplateStatsFor(uint64_t template_hash) const {
  std::lock_guard<std::mutex> lock(template_mu_);
  auto it = template_stats_.find(template_hash);
  return it == template_stats_.end() ? TemplateStats{} : it->second;
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
