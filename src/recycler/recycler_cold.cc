// The bridge to the cold tier and the fleet: the restart-stable subtree
// key, spills, either-tier snapshots and re-admission, orphan adoption and
// rebuild, checkpoints and fleet refreshes.
#include <algorithm>
#include <map>
#include <unordered_set>

#include "recycler/recycler.h"
#include "recycler/subsumption.h"
#include "storage/wire_format.h"

namespace recycledb {

namespace {

/// Pre-order: type byte, length-prefixed param_key, child count. Every
/// column a non-leaf reads is an ordinal of its child's output and a leaf
/// names only base-table columns, so the key is stable across restarts
/// as it stands.
void AppendCanonicalSubtreeKey(const RGNode* n, std::string* out) {
  out->push_back(static_cast<char>(n->type));
  wire::PutString(out, n->param_key);
  wire::PutU32(out, static_cast<uint32_t>(n->children.size()));
  for (const RGNode* c : n->children) AppendCanonicalSubtreeKey(c, out);
}

}  // namespace

const std::string& Recycler::CanonicalSubtreeKey(RGNode* node) const {
  std::call_once(node->canonical_key_once, [node] {
    AppendCanonicalSubtreeKey(node, &node->canonical_key);
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
  meta.column_names = snapshot->schema().Names();
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
  // header once a derived-reuse lookup reaches the child. A Select's
  // param key is its predicate's key over the child's output.
  if (node->type == OpType::kSelect && node->children.size() == 1) {
    meta.select_child_key = CanonicalSubtreeKey(node->children[0]);
    meta.select_predicate = node->param_key;
  }

  // The file write happens on the tier's worker, off the cache mutex
  // the caller holds; the pinned snapshot serves loads until the commit.
  // Failures and commit-time sweep victims come back through the drop
  // callback, and spill accounting fires in the spilled callback at
  // commit.
  return cold_tier_.SpillAsync(node, meta.canon_key, snapshot, meta);
}

void Recycler::OnColdEntriesDropped(const std::vector<const RGNode*>& nodes) {
  // All kCold transitions are serialized by cache_mu_ (held here), so
  // the state cannot flip between the check and the store.
  for (const RGNode* n : nodes) {
    RGNode* node = const_cast<RGNode*>(n);
    counters_.cold_evictions.fetch_add(1);
    if (node->mat_state.load() != MatState::kCold) continue;  // hot stays
    interval_index_.Remove(node);
    SetMatState(node, MatState::kNone, /*clear_cached=*/true);
  }
}

TablePtr Recycler::SnapshotEitherTier(RGNode* node, PreparedQuery* prepared,
                                      bool* from_cold, int clip_ordinal,
                                      const ColumnInterval* clip) {
  *from_cold = prepared->cold_loaded_.count(node) > 0;
  {
    RecyclerGraph::MatShard& shard = graph_.mat_shard(node);
    std::lock_guard<std::mutex> slock(shard.mu);
    MatState ms = node->mat_state.load();
    if (ms == MatState::kCached) return node->cached;
    if (ms != MatState::kCold) return nullptr;
  }
  TablePtr loaded;
  if (clip != nullptr &&
      cold_tier_.LoadSlice(node, clip_ordinal, *clip, &loaded).ok()) {
    counters_.cold_slice_loads.fetch_add(1);
  }
  if (loaded == nullptr) loaded = ReadmitCold(node);
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
  // Promote to the hot tier when admission allows; a rejected promotion
  // still serves the loaded snapshot (one-shot) and leaves the entry
  // cold for the next hit.
  std::shared_lock<std::shared_mutex> glock(graph_.mutex());
  if (AdmitHot(node, loaded, MatState::kCold)) {
    counters_.cold_readmissions.fetch_add(1);
  } else if (node->mat_state.load() == MatState::kCached) {
    // Another stream promoted it while we were loading.
    std::lock_guard<std::mutex> slock(graph_.mat_shard(node).mu);
    if (node->cached != nullptr) return node->cached;
  }
  return loaded;
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
  // an as-of prefix; a shrunk or missing base does not). The header
  // reader guarantees a mark for every base table.
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
  graph_.NoteBenefitWrite();
  {
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
  // entry is on disk and in the manifest log.
  cold_tier_.Drain();
  return written;
}

Status Recycler::RefreshFleet(int64_t* new_peer_entries) {
  if (new_peer_entries != nullptr) *new_peer_entries = 0;
  if (!cold_tier_.enabled()) return Status::OK();
  std::vector<const RGNode*> dropped;
  ColdTier::RefreshStats stats;
  Status st = cold_tier_.RefreshPeers(&dropped, &stats);
  if (!dropped.empty()) {
    // Fleet purges retired entries of live nodes: demote them exactly
    // like a sweep drop.
    std::shared_lock<std::shared_mutex> glock(graph_.mutex());
    std::lock_guard<std::mutex> clock(cache_mu_);
    OnColdEntriesDropped(dropped);
  }
  counters_.fleet_refreshes.fetch_add(1);
  counters_.fleet_peer_entries.fetch_add(stats.new_peer_entries);
  counters_.fleet_lease_takeovers.fetch_add(stats.lease_takeovers);
  counters_.fleet_log_bytes_read.fetch_add(stats.log_bytes_read);
  if (new_peer_entries != nullptr) *new_peer_entries = stats.new_peer_entries;
  return st;
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
  const Schema input = PositionalInput(*child);
  ExprPtr pred = DecodeExprOrdinal(meta.select_predicate, input.Names());
  if (pred == nullptr) {
    counters_.cold_orphan_key_mismatches.fetch_add(1);
    return nullptr;
  }
  // The fields a statement's InsertOne would set, from the positional
  // predicate directly (the descriptor's ordinals read back as names).
  auto node = std::make_unique<RGNode>();
  node->param_node = PlanNode::Select(nullptr, pred)->WithChildren({});
  node->id = graph_.NextId();
  node->type = OpType::kSelect;
  node->param_key = pred->Key(&input);
  node->conjunct_keys = ConjunctKeys(pred, &input);
  node->children = {child};
  node->base_tables = child->base_tables;
  node->h_epoch = graph_.epoch();
  node->output_types = child->output_types;
  // Publish only what a statement with this predicate would match: a
  // node under another key would serve the slice as a result it is not.
  if (CanonicalSubtreeKey(node.get()) != meta.canon_key) {
    counters_.cold_orphan_key_mismatches.fetch_add(1);
    return nullptr;
  }
  counters_.cold_orphans_rebuilt.fetch_add(1);
  return graph_.AddNode(std::move(node));
}

}  // namespace recycledb
