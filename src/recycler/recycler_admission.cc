// Admission: the store operators injected before execution (§III-D), the
// benefit admission of their results, and eviction and invalidation.
#include <algorithm>

#include "recycler/recycler.h"

namespace recycledb {

namespace {

/// Operators the speculation rule targets: expected expensive with small
/// results (§III-D: "final result of a query, or the result of an
/// aggregation"). Table functions are included: the SkyServer workload's
/// fGetNearbyObjEq is exactly the expensive-small case the paper's
/// recycler materializes.
bool SpeculationTargetType(OpType type) {
  return type == OpType::kAggregate || type == OpType::kTopN ||
         type == OpType::kOrderBy || type == OpType::kFunctionScan;
}

}  // namespace

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
  graph_.NoteBenefitWrite();
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
  if (h <= 0) h = kSpeculationH;
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
  node->rows.store(result->num_rows());
  if (!node->has_bcost.load()) {
    node->bcost_ms.store(subtree_ms);
    node->has_bcost.store(true);
  }
  graph_.NoteBenefitWrite();
  {
    // Stamp the result with the as-of versions it was computed from
    // (delta maintenance). The query pinned every table its plan names
    // (PinTables), and the catalog never drops one.
    RecyclerGraph::MatShard& shard = graph_.mat_shard(node);
    std::lock_guard<std::mutex> slock(shard.mu);
    node->stamps.clear();
    for (const std::string& t : node->base_tables) {
      auto it = prepared->snapshots_.find(t);
      RDB_CHECK_MSG(it != prepared->snapshots_.end(),
                    "admitted result without a snapshot of a base table");
      node->stamps[t] = TableStamp{it->second.epoch, it->second.rows};
    }
  }
  // The result keeps this query's column names: every reader renames
  // positionally.
  if (AdmitHot(node, result, MatState::kInFlight)) {
    // Every exact hit on this entry carries its cache key; computing the
    // memo now puts that cost on the miss that produced the result.
    CanonicalSubtreeKey(node);
    Count(prepared, QueryCounter::kMaterialized);
  } else {
    SetMatState(node, MatState::kNone, /*clear_cached=*/true);  // unclaim
  }
}

bool Recycler::AdmitHot(RGNode* node, TablePtr table, MatState from) {
  graph_.FoldAging(node);
  bool admitted = false;
  {
    // One cache_mu_ critical section covers the admission decision, the
    // victims' transitions, and this node's kCached publication: a
    // concurrent Admit can therefore never evict this node between its
    // admission and its state flip, and every node a replacement decision
    // sees is in a settled state.
    std::lock_guard<std::mutex> clock(cache_mu_);
    if (node->mat_state.load() != from) return false;
    const int64_t bytes = std::max<int64_t>(1, table->ByteSize());
    node->cached_bytes.store(bytes);
    node->size_bytes.store(static_cast<double>(bytes));
    node->has_size.store(true);
    graph_.NoteBenefitWrite();
    std::vector<RGNode*> evicted;
    admitted = cache_.Admit(node, BenefitOf(node), &evicted);
    for (RGNode* v : evicted) HandleHotEviction(v);
    if (admitted) {
      {
        std::lock_guard<std::mutex> slock(graph_.mat_shard(node).mu);
        node->cached = std::move(table);
      }
      SetMatState(node, MatState::kCached);
      interval_index_.Insert(node);
    }
  }
  if (admitted) UpdateHrOnMaterialize(node);
  return admitted;
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


// ---------------------------------------------------------------------------
// Eviction / invalidation
// ---------------------------------------------------------------------------

void Recycler::EvictNode(RGNode* node, bool invalidation) {
  // Caller holds at least the shared graph lock and cache_mu_. Dropping
  // node->cached (inside SetMatState's shard critical section) only
  // releases the graph's reference: concurrent streams that already took
  // a snapshot keep the table (and any column views into it) alive until
  // their scans drain. The node's spill file (if any) is deleted too —
  // stale cold results must never be re-admitted.
  if (invalidation) {
    if (node->mat_state.load() == MatState::kCached) UpdateHrOnEvict(node);
    counters_.evictions.fetch_add(1);
    counters_.invalidations.fetch_add(1);
  }
  cache_.Remove(node);
  interval_index_.Remove(node);
  cold_tier_.Remove(node);
  SetMatState(node, MatState::kNone, /*clear_cached=*/true);
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
      EvictNode(n.get(), /*invalidation=*/true);
    }
  }
  // Orphan spill files from a previous process also derive from the
  // table; purge them so a later adoption cannot resurrect stale data.
  // Live entries over the table were already evicted above; anything the
  // purge still reports is demoted defensively.
  std::vector<const RGNode*> dropped;
  cold_tier_.PurgeTable(table, &dropped);
  OnColdEntriesDropped(dropped);
}

void Recycler::OnTableAppended(const std::string& table) {
  // Same locking shape as InvalidateTable, but append-only growth is
  // survivable: a materialized entry is KEPT when delta maintenance can
  // refresh it — stamped at the current epoch with a mark not past the
  // table, and of a delta-eligible shape (single-table chain with an
  // optionally decomposable aggregate root). Everything else — joins,
  // non-decomposable roots — hard-invalidates. A kept root keeps its
  // exact-hit index entry: the next probe of it refreshes it by delta.
  TableSnapshot snap = catalog_->Snapshot(table);
  if (config_.enable_delta_maintenance) {
    std::lock_guard<std::mutex> elock(exact_mu_);
    grown_tables_.insert(table);
  }
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
    if (!keep) EvictNode(n.get(), /*invalidation=*/true);
  }
  // Orphan images from a previous process carry row marks and re-anchor
  // on adoption (TryAdoptOrphan drops any whose mark exceeds the live
  // table), so they survive appends.
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

}  // namespace recycledb
