// The reuse rules (§III-A, §IV-A): a matched node's own result, a cached
// superset of it, or a stitch of cached slices that overlap it.
#include <algorithm>
#include <chrono>
#include <map>
#include <set>

#include "common/hash.h"
#include "common/stopwatch.h"
#include "recycler/recycler.h"
#include "recycler/subsumption.h"

namespace recycledb {

struct Recycler::DerivedCandidates {
  /// A range selection's interval decomposition: subsumption loads cold
  /// candidates through specs[0], stitching lays out every spec.
  std::vector<RangeSpec> specs;
  /// Hot ones first, then cold ones, each in ascending node id.
  std::vector<RGNode*> subsumers;
  /// The indexed slices overlapping each spec.
  std::vector<std::vector<IntervalIndex::Entry>> slices;
};

PlanPtr Recycler::RewriteForReuse(MNode* m, const PlanPtr& plan,
                                  PreparedQuery* prepared) {
  if (CacheableType(plan->type())) {
    if (PlanPtr out = TryExact(m, plan, prepared)) return out;
    DerivedCandidates cands;
    if (GatherDerived(m, plan, prepared, &cands)) {
      if (PlanPtr out = TrySubsume(m, cands, prepared)) return out;
      if (PlanPtr out = TryStitch(m, plan, cands, prepared)) return out;
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
  prepared->exec_to_gnode_[out.get()] = m->gnode;
  return out;
}

PlanPtr Recycler::TryExact(MNode* m, const PlanPtr& plan,
                           PreparedQuery* prepared) {
  RGNode* g = m->gnode;
  // Stall on an in-flight materialization first. The snapshot TablePtr
  // taken under the node's mat shard mutex pins the result for this
  // query: scans emit zero-copy views of its columns, and shared
  // ownership (plan -> TablePtr -> ColumnPtr -> batch views) keeps the
  // data alive even if the recycler evicts the entry mid-scan (see
  // DESIGN.md, "Zero-copy views and result lifetime").
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
    if (g->mat_state.load() == MatState::kCached) snapshot = g->cached;
  }
  bool from_cold = false;
  if (snapshot == nullptr) {
    // Cold tier: a spilled result answers an exact match by lazy
    // re-admission (load from disk, promote when admittable, serve).
    snapshot = SnapshotEitherTier(g, prepared, &from_cold);
    if (snapshot == nullptr) return nullptr;
  }
  // Delta maintenance: a snapshot stamped behind this query's pinned
  // base tables is not served as-is. Append-only staleness rewrites into
  // cached-prefix + delta-window (or an aggregate merge); anything else
  // drops the superseded entry and falls through to a miss. kAhead (a
  // concurrent refresh already re-admitted at a newer mark than this
  // query's older snapshot) is a miss WITHOUT eviction: the entry is
  // perfectly fresh for later queries.
  StaleWindow window;
  const Freshness fresh = NodeFreshness(g, prepared, &window);
  if (fresh != Freshness::kFresh) {
    if (fresh == Freshness::kAppendStale &&
        config_.enable_delta_maintenance && !window.table.empty()) {
      PlanPtr delta =
          TryDeltaRewrite(m, plan, g, std::move(snapshot), window, prepared);
      if (delta != nullptr) return delta;
    }
    if (fresh != Freshness::kAhead) {
      DropSupersededEntry(g);
      counters_.invalidations.fetch_add(1);
    }
    return nullptr;
  }
  // The canonical subtree key walks graph structure (children).
  std::shared_lock<std::shared_mutex> glock(graph_.mutex());
  return ServeExact(m, plan->output_schema().Names(), std::move(snapshot),
                    from_cold, prepared);
}

bool Recycler::GatherDerived(MNode* m, const PlanPtr& plan,
                             PreparedQuery* prepared, DerivedCandidates* out) {
  // Derived reuse is only consulted when exact matching failed to produce
  // a cached result. Both rules need the single shared child's graph node;
  // each is gated by its own config flag.
  if ((!config_.enable_subsumption && !config_.enable_partial_reuse) ||
      m->children.size() != 1 || m->children[0]->gnode == nullptr) {
    return false;
  }
  RGNode* child = m->children[0]->gnode;
  const Schema& input = plan->child()->output_schema();
  // Restart orphans among this child's parents become directly servable
  // subsumption/stitch candidates (adoption by canonical key), instead of
  // waiting for an exact re-insertion.
  MaybeAdoptOrphanParents(child, prepared);

  // Each of the query's conjuncts is keyed once: the range specs' other
  // keys and the subsumption prefilter's key set share those keys.
  const bool select = plan->type() == OpType::kSelect;
  ConjunctSet query_keys;
  if (select) {
    KeyedConjuncts keyed = KeyConjuncts(plan->predicate(), &input);
    out->specs = ExtractRangeSpecs(keyed, &input);
    if (config_.enable_subsumption) {
      query_keys = ConjunctSet(std::move(keyed.keys));
    }
  }
  out->slices.resize(config_.enable_partial_reuse && select ? out->specs.size()
                                                            : 0);

  // Both rules take their candidates from the derived-reuse index in one
  // cache_mu_ section, which covers only what is materialized under this
  // child. Snapshots are taken outside it because a kCold candidate
  // re-admits from disk, and promotion itself acquires the graph lock and
  // cache_mu_. The raw pointers stay valid: truncation requires a
  // quiescent point, and this query is inside its Prepare window.
  //
  // Cold subsumption candidates cost a disk load just to probe
  // (TrySubsumption needs the table), so they come after every hot one.
  // Either kind is dropped before its freshness check and snapshot or
  // load when it cannot derive (MaySubsume), so a cold file is read only
  // to serve.
  std::lock_guard<std::mutex> clock(cache_mu_);
  if (config_.enable_subsumption) {
    std::vector<RGNode*> may, cold;
    interval_index_.Subsumers(child->id, plan->type(), query_keys, &may);
    for (RGNode* parent : may) {
      if (parent == m->gnode) continue;
      const MatState ms = parent->mat_state.load();
      if (ms == MatState::kCached) out->subsumers.push_back(parent);
      if (ms == MatState::kCold) cold.push_back(parent);
    }
    out->subsumers.insert(out->subsumers.end(), cold.begin(), cold.end());
  }
  for (size_t si = 0; si < out->slices.size(); ++si) {
    interval_index_.Overlapping(child->id, out->specs[si], &out->slices[si]);
  }
  return true;
}

PlanPtr Recycler::TrySubsume(MNode* m, const DerivedCandidates& cands,
                             PreparedQuery* prepared) {
  // When the query is a range selection, a cold candidate loads as a
  // filtered slice: the selection runs on the encoded image and only
  // in-range rows materialize. Sound because the subsumption compensation
  // either already implies the range (shared conjunct) or re-applies it
  // (residual).
  const RangeSpec* spec = cands.specs.empty() ? nullptr : &cands.specs[0];
  for (RGNode* parent : cands.subsumers) {
    // A stale candidate never derives: its result may lack appended rows
    // the query's pinned snapshot contains.
    if (NodeFreshness(parent, prepared, nullptr) != Freshness::kFresh) {
      continue;
    }
    bool from_cold = false;
    TablePtr cached =
        spec != nullptr ? SnapshotEitherTier(parent, prepared, &from_cold,
                                             spec->ordinal, &spec->range)
                        : SnapshotEitherTier(parent, prepared, &from_cold);
    if (cached == nullptr) continue;
    SubsumptionPlan derived =
        TrySubsumption(*m->plan, *parent, cached);
    if (derived.plan == nullptr) continue;
    {
      std::shared_lock<std::shared_mutex> glock(graph_.mutex());
      CreditReuse(parent, derived.cached_scan.get(), 1.0, /*bump_h=*/true,
                  prepared);
    }
    m->replaced = true;
    Count(prepared, QueryCounter::kReuses);
    Count(prepared, QueryCounter::kSubsumptionReuses);
    if (from_cold) Count(prepared, QueryCounter::kColdHits);
    return derived.plan;
  }
  return nullptr;
}

PlanPtr Recycler::TryStitch(MNode* m, const PlanPtr& plan,
                            const DerivedCandidates& cands,
                            PreparedQuery* prepared) {
  // Partial reuse: no single cached result covers the query, but
  // overlapping cached range slices over the same child may cover parts
  // of it. Answer from their union plus compensated delta scans for the
  // remainder; credit contributors proportionally to the share of the
  // interval they serve. The interval index retains cold entries: a
  // spilled slice still stitches.
  if (std::all_of(cands.slices.begin(), cands.slices.end(),
                  [](const auto& s) { return s.empty(); })) {
    return nullptr;
  }
  // Delta scans prefer the child's own result — from either tier — over
  // re-executing the child subtree (stitching must not preempt a reuse
  // the plain miss path would have gotten).
  RGNode* child = m->children[0]->gnode;
  TablePtr child_snap;
  bool delta_child_from_cold = false;
  if (NodeFreshness(child, prepared, nullptr) == Freshness::kFresh) {
    child_snap = SnapshotEitherTier(child, prepared, &delta_child_from_cold);
  }
  const bool delta_child_cached = child_snap != nullptr;
  const PlanPtr& child_plan = plan->children()[0];
  PlanPtr delta_child =
      delta_child_cached
          ? PlanNode::CachedScan(std::move(child_snap),
                                 child_plan->output_schema().Names())
          : child_plan;
  // Lay the stitch out on intervals for every spec and keep the best;
  // only then read the cold slices it uses, each filtered to its clip.
  // Hot candidates carry their snapshot, cold ones none.
  std::vector<std::vector<IntervalCandidate>> layout_cands(cands.specs.size());
  StitchLayout layout;
  size_t layout_spec = 0;
  for (size_t si = 0; si < cands.slices.size(); ++si) {
    for (const IntervalIndex::Entry& e : cands.slices[si]) {
      if (e.node == m->gnode) continue;  // exact reuse handled above
      // Stale slices never stitch (appended rows missing).
      if (NodeFreshness(e.node, prepared, nullptr) != Freshness::kFresh) {
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
      layout_cands[si].push_back({e.node, std::move(snapshot), e.spec});
    }
    if (layout_cands[si].empty()) continue;
    StitchLayout attempt =
        PlanPartialStitch(*plan, cands.specs[si], layout_cands[si]);
    if (!attempt.uses.empty() &&
        attempt.covered_fraction > layout.covered_fraction) {
      layout = std::move(attempt);
      layout_spec = si;
    }
  }
  if (layout.uses.empty()) return nullptr;

  const RangeSpec& spec = cands.specs[layout_spec];
  // A cold slice is read once, filtered to the hull of its clips (a hot
  // slice inside it splits its share in two); each use still compensates
  // to its own clip.
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
    reads[node] = SnapshotEitherTier(const_cast<RGNode*>(node), prepared,
                                     &from_cold, spec.ordinal, &hull);
  }
  std::vector<TablePtr> tables;
  for (const StitchLayout::Use& use : layout.uses) {
    tables.push_back(use.source->cached != nullptr ? use.source->cached
                                                   : reads[use.source->node]);
  }
  PartialPlan stitched =
      BuildPartialStitch(*plan, delta_child, spec, layout, tables);
  if (stitched.plan == nullptr) return nullptr;

  // The single delta branch replaced the child's base cost exactly once
  // (Eq. 2).
  const bool child_reused =
      delta_child_cached && stitched.num_delta_pieces > 0;
  std::set<const RGNode*> cold_sources;
  {
    std::shared_lock<std::shared_mutex> glock(graph_.mutex());
    for (const PartialPiece& piece : stitched.reuse_pieces) {
      CreditReuse(const_cast<RGNode*>(piece.source), piece.cached_scan.get(),
                  piece.fraction, /*bump_h=*/true, prepared);
      if (prepared->cold_loaded_.count(piece.source) > 0) {
        cold_sources.insert(piece.source);
      }
    }
    if (child_reused) {
      CreditReuse(child, delta_child.get(), 1.0, /*bump_h=*/true, prepared);
    }
  }
  const int cold_hits = static_cast<int>(cold_sources.size()) +
                        (child_reused && delta_child_from_cold ? 1 : 0);
  m->stitched = true;
  m->exec_plan = stitched.plan.get();
  prepared->exec_to_gnode_[stitched.plan.get()] = m->gnode;
  Count(prepared, QueryCounter::kReuses);
  Count(prepared, QueryCounter::kPartialReuses);
  // The child reuse in the delta pieces.
  if (child_reused) Count(prepared, QueryCounter::kReuses);
  if (cold_hits > 0) Count(prepared, QueryCounter::kColdHits, cold_hits);
  return stitched.plan;
}

void Recycler::CreditReuse(RGNode* source, PlanNode* scan, double share,
                           bool bump_h, PreparedQuery* prepared) {
  if (bump_h) {
    graph_.FoldAging(source);
    AtomicAddClamped(source->h, share, 0.0);
    graph_.NoteBenefitWrite();
  }
  scan->set_cache_key(HashString(CanonicalSubtreeKey(source)));
  prepared->replaced_cost_[scan] = source->bcost_ms.load() * share;
}

PlanPtr Recycler::ServeExact(MNode* m, std::vector<std::string> column_names,
                             TablePtr snapshot, bool from_cold,
                             PreparedQuery* prepared) {
  RGNode* g = m->gnode;
  PlanPtr cs = PlanNode::CachedScan(std::move(snapshot),
                                    std::move(column_names));
  CreditReuse(g, cs.get(), 1.0, /*bump_h=*/false, prepared);
  m->replaced = true;
  Count(prepared, QueryCounter::kReuses);
  if (from_cold) Count(prepared, QueryCounter::kColdHits);
  if (config_.cache_policy == CachePolicy::kLru) {
    std::lock_guard<std::mutex> clock(cache_mu_);
    cache_.TouchForLru(g);
  }
  return cs;
}

PlanPtr Recycler::TryDeltaRewrite(MNode* m, const PlanPtr& plan, RGNode* g,
                                  TablePtr snapshot, const StaleWindow& window,
                                  PreparedQuery* prepared) {
  if (!DeltaEligibleNode(*g, window.table)) return nullptr;
  const bool agg_merge = plan->type() == OpType::kAggregate;
  PlanPtr cached_scan;
  PlanPtr delta_plan =
      agg_merge
          ? BuildAggMerge(*plan, std::move(snapshot), window, &cached_scan)
          : BuildDeltaStitch(*plan, std::move(snapshot), window, &cached_scan);
  {
    // Eq. 2 credit: the cached prefix replaced the share of the node's
    // from-base-tables work proportional to the rows it covers. No extra
    // h bump — the exact match already bumped in BumpImportance.
    std::shared_lock<std::shared_mutex> glock(graph_.mutex());
    const double frac = window.to_rows > 0
                            ? static_cast<double>(window.from_rows) /
                                  static_cast<double>(window.to_rows)
                            : 1.0;
    CreditReuse(g, cached_scan.get(), frac, /*bump_h=*/false, prepared);
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

void Recycler::DropSupersededEntry(RGNode* g) {
  std::shared_lock<std::shared_mutex> glock(graph_.mutex());
  std::lock_guard<std::mutex> clock(cache_mu_);
  MatState ms = g->mat_state.load();
  if (ms != MatState::kCached && ms != MatState::kCold) return;
  // Not an invalidation, so no Eq. 4 h-giveback and no eviction counter:
  // the entry's data lives on inside the delta rewrite that replaces it,
  // and the refreshed result is about to be re-admitted. A concurrent
  // stream re-admitting the same node in this window loses its entry —
  // benign, the next hit re-materializes.
  EvictNode(g, /*invalidation=*/false);
}

Freshness Recycler::NodeFreshness(RGNode* node, const PreparedQuery* prepared,
                                  StaleWindow* window) {
  RecyclerGraph::MatShard& shard = graph_.mat_shard(node);
  std::lock_guard<std::mutex> slock(shard.mu);
  return CheckFreshness(node->stamps, node->base_tables, prepared->snapshots_,
                        window);
}

}  // namespace recycledb
