// Matching a plan against the recycler graph and inserting what is
// missing (§III-A, §III-B), and the exact-hit index that serves a
// repeated statement before matching.
#include <algorithm>

#include "common/stopwatch.h"
#include "recycler/recycler.h"
#include "recycler/subsumption.h"
#include "storage/wire_format.h"

namespace recycledb {

RGNode* Recycler::MatchOne(OpType type, const std::string& param_key,
                           const std::vector<RGNode*>& child_g) const {
  const uint64_t h = NodeKeyHash(type, param_key);
  auto same = [&](const RGNode* cand) {
    return cand->type == type && cand->param_key == param_key;
  };
  if (child_g.empty()) {
    // Leaf: probe the global leaf hash table (Algorithm 1 lines 1-5).
    auto [begin, end] = graph_.Leaves(h);
    for (auto it = begin; it != end; ++it) {
      if (same(it->second)) return it->second;
    }
    return nullptr;
  }
  // Non-leaf: candidates are the parents of the first matched child
  // (Algorithm 1 lines 8-13) under the same hash.
  auto [begin, end] = child_g[0]->parents.equal_range(h);
  for (auto it = begin; it != end; ++it) {
    RGNode* cand = it->second;
    if (cand->children == child_g && same(cand)) return cand;
  }
  return nullptr;
}

RGNode* Recycler::InsertOne(const PlanNode& node, const std::string& param_key,
                            const std::vector<RGNode*>& child_g) {
  auto gnode = std::make_unique<RGNode>();
  gnode->id = graph_.NextId();
  gnode->type = node.type();
  gnode->param_key = param_key;
  gnode->param_node = node.PositionalParams();
  if (gnode->type == OpType::kSelect) {
    gnode->conjunct_keys =
        ConjunctKeys(node.predicate(), &node.child()->output_schema());
  }
  gnode->children = child_g;
  gnode->base_tables = node.base_tables();
  gnode->h_epoch = graph_.epoch();
  for (const Field& f : node.output_schema().fields()) {
    gnode->output_types.push_back(f.type);
  }
  return graph_.AddNode(std::move(gnode));
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
      p->AppendParamKey(&m->param_key, /*positional=*/true);
      if (all_matched) {
        m->gnode = self->MatchOne(p->type(), m->param_key, child_g);
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
  m->gnode = MatchOne(m->plan->type(), m->param_key, child_g);
  if (m->gnode != nullptr) return;
  m->gnode = InsertOne(*m->plan, m->param_key, child_g);
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

/// Appends the names `node`'s subtree introduces (Project and Aggregate
/// outputs) to `out`, pre-order, each length-prefixed, and counts them.
void AppendIntroducedNames(const PlanNode& node, std::string* out,
                           uint32_t* count) {
  if (node.type() == OpType::kProject) {
    for (const ProjItem& p : node.projections()) {
      wire::PutString(out, p.out_name);
    }
    *count += static_cast<uint32_t>(node.projections().size());
  } else if (node.type() == OpType::kAggregate) {
    for (const AggItem& a : node.aggregates()) {
      wire::PutString(out, a.out_name);
    }
    *count += static_cast<uint32_t>(node.aggregates().size());
  }
  for (const PlanPtr& c : node.children()) {
    AppendIntroducedNames(*c, out, count);
  }
}

}  // namespace

StatementKey Recycler::ExactHitKey(const PlanNode& plan) {
  StatementKey key;
  plan.AppendTreeKey(&key.text);
  key.tree_key_size = key.text.size();
  std::string names;
  uint32_t count = 0;
  AppendIntroducedNames(plan, &names, &count);
  wire::PutU32(&key.text, count);
  key.text += names;
  return key;
}

namespace {

/// The first byte of every TextKey; a plan key starts with an OpType.
constexpr char kTextKeyTag = '\xff';
static_assert(static_cast<uint8_t>(OpType::kCachedScan) <
                  static_cast<uint8_t>(kTextKeyTag),
              "a plan key could start with the text key tag");

bool IsTextKey(const std::string& key) {
  return !key.empty() && key[0] == kTextKeyTag;
}

}  // namespace

std::string Recycler::TextKey(std::string_view sql) {
  std::string key(1, kTextKeyTag);
  key += sql;
  return key;
}

bool Recycler::ProbesIndex() const {
  return config_.mode != RecyclerMode::kOff &&
         config_.mode != RecyclerMode::kProactive;
}

std::unique_ptr<PreparedQuery> Recycler::ProbeExactHit(
    const PlanPtr& plan, StatementKey* key, const std::string& text_key) {
  *key = StatementKey{};
  if (!ProbesIndex()) return nullptr;
  Stopwatch match_sw;
  *key = ExactHitKey(*plan);
  return ServeFromIndex(key->text, plan->template_hash(), text_key, match_sw);
}

std::unique_ptr<PreparedQuery> Recycler::ProbeSqlText(std::string_view sql,
                                                      std::string* text_key) {
  text_key->clear();
  if (!ProbesIndex()) return nullptr;
  Stopwatch match_sw;
  *text_key = TextKey(sql);
  return ServeFromIndex(*text_key, /*template_hash=*/0, std::string(),
                        match_sw);
}

std::unique_ptr<PreparedQuery> Recycler::ServeFromIndex(
    const std::string& key, uint64_t template_hash,
    const std::string& text_key, const Stopwatch& match_sw) {
  std::shared_ptr<const ExactHit> hit;
  auto prepared = std::make_unique<PreparedQuery>();
  Freshness fresh = Freshness::kFresh;
  StaleWindow window;
  TablePtr snapshot;
  PlanPtr cs;
  auto m = std::make_unique<MNode>();
  {
    std::shared_lock<std::shared_mutex> glock(graph_.mutex());
    {
      std::lock_guard<std::mutex> lock(exact_mu_);
      auto it = exact_hits_.find(key);
      if (it == exact_hits_.end()) return nullptr;
      hit = it->second;
    }
    RGNode* g = hit->root;
    PinTables(g->base_tables, prepared.get());
    {
      // A root stale by anything but rows appended to one table is left
      // to the full path, untouched: TryExact drops or keeps it.
      RecyclerGraph::MatShard& shard = graph_.mat_shard(g);
      std::lock_guard<std::mutex> slock(shard.mu);
      if (g->mat_state.load() != MatState::kCached) return nullptr;
      fresh = CheckFreshness(g->stamps, g->base_tables, prepared->snapshots_,
                             &window);
      if (fresh != Freshness::kFresh &&
          (fresh != Freshness::kAppendStale || hit->plan == nullptr ||
           !config_.enable_delta_maintenance || window.table.empty() ||
           !DeltaEligibleNode(*g, window.table))) {
        return nullptr;
      }
      snapshot = g->cached;
    }
    StartTrace(prepared.get(), template_hash);
    prepared->trace_.plan_fingerprint = hit->plan_fingerprint;
    // BumpImportance on a fully matched plan with a cached root: every
    // node is accessed, only the root gains a reference.
    graph_.AdvanceEpoch();
    const int64_t epoch = graph_.epoch();
    for (RGNode* n : hit->nodes) n->last_access_epoch.store(epoch);
    graph_.FoldAging(g);
    AtomicAddClamped(g->h, 1.0, 0.0);
    graph_.NoteBenefitWrite();
    g->match_count.fetch_add(1);

    m->plan = hit->plan.get();
    m->plan_ref = hit->plan;
    m->gnode = g;
    if (fresh == Freshness::kFresh) {
      cs = ServeExact(m.get(), hit->output_names, std::move(snapshot),
                      /*from_cold=*/false, prepared.get());
    }
  }
  prepared->trace_.match_ms = match_sw.ElapsedMs();
  prepared->trace_.graph_nodes_at_match = graph_.num_nodes();
  // A delta refresh drops the root's keys with its entry: they are taken
  // now, for OnComplete to register again once the refreshed root is hot.
  if (fresh != Freshness::kFresh || !text_key.empty()) {
    prepared->exact_hit_keys_ = KeysOf(hit->root, text_key);
    prepared->exact_hit_ = hit;
  }
  prepared->matched_ = std::move(m);
  MNode* root = prepared->matched_.get();
  if (cs == nullptr) {
    cs = TryDeltaRewrite(root, hit->plan, hit->root, std::move(snapshot),
                         window, prepared.get());
  }
  cs->Bind(*catalog_);
  if (fresh != Freshness::kFresh) {
    std::shared_lock<std::shared_mutex> glock(graph_.mutex());
    InjectStores(root, prepared.get(), /*in_store_chain=*/false);
  }
  prepared->plan_ = std::move(cs);
  Count(prepared.get(), QueryCounter::kIndexServed);
  FinalizeTrace(prepared.get());
  return prepared;
}

std::shared_ptr<const Recycler::ExactHit> Recycler::MakeExactHit(
    const MNode& root, uint64_t plan_fingerprint) {
  auto hit = std::make_shared<ExactHit>();
  hit->root = root.gnode;
  hit->output_names = root.plan->output_schema().Names();
  hit->plan_fingerprint = plan_fingerprint;
  const std::set<std::string>& tables = root.gnode->base_tables;
  if (tables.size() == 1 && DeltaEligibleNode(*root.gnode, *tables.begin())) {
    std::lock_guard<std::mutex> lock(exact_mu_);
    if (grown_tables_.count(*tables.begin()) > 0) hit->plan = root.plan_ref;
  }
  std::vector<const MNode*> stack{&root};
  while (!stack.empty()) {
    const MNode* m = stack.back();
    stack.pop_back();
    hit->nodes.push_back(m->gnode);
    for (auto it = m->children.rbegin(); it != m->children.rend(); ++it) {
      stack.push_back(it->get());
    }
  }
  return hit;
}

std::vector<std::string> Recycler::KeysOf(const RGNode* root,
                                          const std::string& text_key) {
  std::vector<std::string> keys;
  {
    std::lock_guard<std::mutex> lock(exact_mu_);
    auto it = exact_hit_keys_.find(root);
    if (it != exact_hit_keys_.end()) {
      for (const std::string* k : it->second) {
        if (text_key.empty() || !IsTextKey(*k)) keys.push_back(*k);
      }
    }
  }
  if (!text_key.empty()) keys.push_back(text_key);
  return keys;
}

void Recycler::RememberExactHit(std::vector<std::string> keys,
                                std::shared_ptr<const ExactHit> hit) {
  RGNode* root = hit->root;
  std::lock_guard<std::mutex> lock(exact_mu_);
  // Checked under exact_mu_: a root that leaves kCached after this check
  // is forgotten by SetMatState, which takes exact_mu_ after its store.
  if (root->mat_state.load() != MatState::kCached) return;
  // A root keeps the keys of its latest registration, and a key one
  // root: drop the root's older keys, and each key's other root.
  ForgetExactHitLocked(root);
  std::vector<const std::string*>& root_keys = exact_hit_keys_[root];
  for (std::string& k : keys) {
    auto [it, fresh_key] = exact_hits_.try_emplace(std::move(k));
    if (!fresh_key) {
      if (it->second->root == root) continue;  // listed twice
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
