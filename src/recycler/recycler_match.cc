// Matching a plan against the recycler graph and inserting what is
// missing (§III-A, §III-B), and the exact-hit index that serves a
// repeated statement before matching.
#include <algorithm>

#include "common/stopwatch.h"
#include "recycler/recycler.h"
#include "recycler/subsumption.h"

namespace recycledb {

std::string Recycler::LeafKey(const PlanNode& node) {
  if (node.type() == OpType::kScan) return "t:" + node.table_name();
  if (node.type() == OpType::kFunctionScan) {
    return "f:" + node.ParamFingerprint();
  }
  return "";
}

RGNode* Recycler::MatchOne(const PlanNode& node,
                           const std::vector<RGNode*>& child_g) const {
  // The positional fingerprint, taken at the first candidate that gets
  // as far as comparing it.
  std::string fp;
  auto same_params = [&](const RGNode* cand) {
    if (fp.empty()) fp = node.PositionalFingerprint();
    return cand->param_fp == fp;
  };
  if (child_g.empty()) {
    // Leaf: probe the global leaf hash table (Algorithm 1 lines 1-5).
    for (RGNode* cand : graph_.LeafCandidates(LeafKey(node), node.HashKey())) {
      if (cand->type == node.type() && same_params(cand)) return cand;
    }
    return nullptr;
  }
  // Non-leaf: candidates are the parents of the first matched child
  // (Algorithm 1 lines 8-13), pre-filtered by hash key.
  auto range = child_g[0]->parents.equal_range(node.HashKey());
  for (auto it = range.first; it != range.second; ++it) {
    RGNode* cand = it->second;
    if (cand->type == node.type() && cand->children == child_g &&
        same_params(cand)) {
      return cand;
    }
  }
  return nullptr;
}

RGNode* Recycler::InsertOne(const PlanNode& node,
                            const std::vector<RGNode*>& child_g) {
  auto gnode = std::make_unique<RGNode>();
  gnode->id = graph_.NextId();
  gnode->type = node.type();
  gnode->hash_key = node.HashKey();
  gnode->param_node = node.PositionalParams();
  gnode->param_fp = gnode->param_node->ParamFingerprint();
  if (gnode->type == OpType::kSelect) {
    gnode->conjunct_fps =
        ConjunctFingerprints(gnode->param_node->predicate(), nullptr);
  }
  gnode->children = child_g;
  gnode->base_tables = node.base_tables();
  gnode->h_epoch = graph_.epoch();
  for (const Field& f : node.output_schema().fields()) {
    gnode->output_types.push_back(f.type);
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
      if (all_matched) m->gnode = self->MatchOne(*p, child_g);
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
  m->gnode = MatchOne(*m->plan, child_g);
  if (m->gnode != nullptr) return;
  m->gnode = InsertOne(*m->plan, child_g);
  m->inserted = true;
  // Warm-up: a node inserted for the first time in this process may have
  // a spilled image from a previous one — or from a fleet peer — so
  // adopt it and the reuse rewriter below serves this very query from
  // disk.
  if (TryAdoptOrphan(m->gnode)) Count(prepared, QueryCounter::kAdoptions);
}

// ---------------------------------------------------------------------------
// Exact-hit index
// ---------------------------------------------------------------------------

namespace {

/// Appends `node`'s TreeFingerprint to `fp` and the names its subtree
/// introduces (Project and Aggregate outputs) to `names`, pre-order.
void AppendExactHitKey(const PlanNode& node, std::string* fp,
                       std::string* names) {
  node.AppendParamFingerprint(fp);
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

}  // namespace

StatementKey Recycler::ExactHitKey(const PlanNode& plan) {
  StatementKey key;
  std::string names;
  AppendExactHitKey(plan, &key.text, &names);
  key.fingerprint_size = key.text.size();
  key.text += names;
  return key;
}

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

}  // namespace recycledb
