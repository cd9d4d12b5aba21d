// Tests for the Recycler facade: mode semantics, reuse transparency,
// invalidation, speculation decisions, stall coordination, the
// exact-hit index (repeated exact hits served without MatchTree), and the
// derived-reuse index (materialized parents and interval slices).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <set>
#include <shared_mutex>
#include <thread>
#include <tuple>

#include "common/rng.h"
#include "common/stopwatch.h"

#include "api/database.h"
#include "api/session.h"
#include "recycler/recycler.h"
#include "skyserver/skyserver.h"
#include "test_util.h"
#include "tpch/dbgen.h"
#include "tpch/qgen.h"

namespace recycledb {
namespace {

class RecyclerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema s({{"k", TypeId::kInt32}, {"v", TypeId::kDouble}});
    TablePtr t = MakeTable(s);
    for (int i = 0; i < 20000; ++i) {
      t->AppendRow({int32_t{i % 100}, static_cast<double>(i % 977)});
    }
    ASSERT_TRUE(catalog_.RegisterTable("t", t).ok());
  }

  PlanPtr AggPlan(int64_t threshold, const std::string& alias = "sv") {
    return PlanNode::Aggregate(
        PlanNode::Select(
            PlanNode::Scan("t", {"k", "v"}),
            Expr::Gt(Expr::Column("k"), Expr::Literal(threshold))),
        {"k"}, {{AggFunc::kSum, Expr::Column("v"), alias}});
  }

  Catalog catalog_;
};

TEST_F(RecyclerTest, OffModeTouchesNothing) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kOff;
  Recycler rec(&catalog_, cfg);
  rec.Execute(AggPlan(10));
  rec.Execute(AggPlan(10));
  EXPECT_EQ(rec.graph().Stats().num_nodes, 0);
  EXPECT_EQ(rec.counters().reuses.load(), 0);
  EXPECT_EQ(rec.counters().materializations.load(), 0);
}

TEST_F(RecyclerTest, HistoryNeedsThreeOccurrencesToReuse) {
  // §V: "a result has to appear at least three times in a workload for
  // the [history] recycler to benefit from reusing it".
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kHistory;
  Recycler rec(&catalog_, cfg);
  QueryTrace t1, t2, t3;
  rec.Execute(AggPlan(10), &t1);
  EXPECT_EQ(t1.num_materialized, 0);  // unseen: history cannot decide
  rec.Execute(AggPlan(10), &t2);
  EXPECT_GE(t2.num_materialized, 1);  // now known: store
  EXPECT_EQ(t2.num_reuses, 0);        // but nothing to reuse yet
  rec.Execute(AggPlan(10), &t3);
  EXPECT_GE(t3.num_reuses, 1);        // third time: reuse
}

TEST_F(RecyclerTest, SpeculationReusesFromSecondOccurrence) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kSpeculation;
  Recycler rec(&catalog_, cfg);
  QueryTrace t1, t2;
  rec.Execute(AggPlan(10), &t1);
  EXPECT_GE(t1.num_materialized, 1);  // speculative store on first run
  rec.Execute(AggPlan(10), &t2);
  EXPECT_GE(t2.num_reuses, 1);
}

TEST_F(RecyclerTest, ReuseIsTransparentAcrossAliases) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kSpeculation;
  Recycler rec(&catalog_, cfg);
  ExecResult r1 = rec.Execute(AggPlan(10, "alpha"));
  QueryTrace t2;
  ExecResult r2 = rec.Execute(AggPlan(10, "beta"), &t2);
  EXPECT_GE(t2.num_reuses, 1);  // aliases are not parameters
  EXPECT_EQ(r2.table->schema().field(1).name, "beta");  // caller's alias
  EXPECT_EQ(recycledb::testing::RowMultiset(*r1.table),
            recycledb::testing::RowMultiset(*r2.table));
}

TEST_F(RecyclerTest, ZeroCacheMeansNoMaterialization) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kSpeculation;
  cfg.cache_bytes = 0;
  Recycler rec(&catalog_, cfg);
  QueryTrace t1, t2;
  rec.Execute(AggPlan(10), &t1);
  rec.Execute(AggPlan(10), &t2);
  EXPECT_EQ(t1.num_materialized + t2.num_materialized, 0);
  EXPECT_EQ(t2.num_reuses, 0);
}

TEST_F(RecyclerTest, BufferCapAbortsSpeculationOnHugeResults) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kSpeculation;
  cfg.speculation_buffer_cap = 1024;  // tiny: everything is "too big"
  Recycler rec(&catalog_, cfg);
  QueryTrace t;
  // The aggregate result (100 groups) is small, but the final result
  // store sees the same; use a selection with a big result instead.
  PlanPtr big = PlanNode::Select(
      PlanNode::Scan("t", {"k", "v"}),
      Expr::Ge(Expr::Column("k"), Expr::Literal(int64_t{0})));
  ExecResult r = rec.Execute(big, &t);
  EXPECT_EQ(r.table->num_rows(), 20000);  // result intact
  EXPECT_EQ(t.num_materialized, 0);
  EXPECT_GE(t.num_spec_aborted, 1);
}

TEST_F(RecyclerTest, InvalidateTableEvictsDependents) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kSpeculation;
  Recycler rec(&catalog_, cfg);
  rec.Execute(AggPlan(10));
  ASSERT_GE(rec.graph().Stats().num_cached, 1);
  rec.InvalidateTable("unrelated_table");
  EXPECT_GE(rec.graph().Stats().num_cached, 1);  // untouched
  rec.InvalidateTable("t");
  EXPECT_EQ(rec.graph().Stats().num_cached, 0);
  EXPECT_GE(rec.counters().invalidations.load(), 1);
  // And the next run recomputes correctly.
  QueryTrace t;
  ExecResult r = rec.Execute(AggPlan(10), &t);
  EXPECT_EQ(t.num_reuses, 0);
  EXPECT_GT(r.table->num_rows(), 0);
}

TEST_F(RecyclerTest, MatchCostRecordedAndSmall) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kHistory;
  Recycler rec(&catalog_, cfg);
  QueryTrace t;
  rec.Execute(AggPlan(10), &t);
  EXPECT_GT(t.graph_nodes_at_match, 0);
  EXPECT_EQ(t.graph_nodes_at_match, rec.graph().Stats().num_nodes);
  EXPECT_GE(t.match_ms, 0.0);
  EXPECT_LT(t.match_ms, 100.0);  // sanity: matching ≪ execution
}

TEST_F(RecyclerTest, PreparedStoresTargetExecutedPlanNodes) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kSpeculation;
  Recycler rec(&catalog_, cfg);
  auto prepared = rec.Prepare(AggPlan(10));
  // Every store key must be a node of the prepared (rewritten) plan.
  std::set<const PlanNode*> nodes;
  std::vector<const PlanNode*> stack{prepared->plan().get()};
  while (!stack.empty()) {
    const PlanNode* n = stack.back();
    stack.pop_back();
    nodes.insert(n);
    for (const auto& c : n->children()) stack.push_back(c.get());
  }
  for (const auto& [node, req] : prepared->stores()) {
    EXPECT_TRUE(nodes.count(node) > 0);
  }
  EXPECT_GE(prepared->stores().size(), 1u);
}

TEST_F(RecyclerTest, LimitAboveStoreDoesNotLeakInFlightState) {
  // Regression: a store under a Limit never sees its input exhausted; the
  // abort-on-close path must clear the node's in-flight state, or every
  // later query matching that node stalls until timeout.
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kSpeculation;
  cfg.stall_timeout_ms = 60000;  // a leak would hang the test visibly
  Recycler rec(&catalog_, cfg);
  auto plan = [&] {
    return PlanNode::Limit(
        PlanNode::HashJoin(
            PlanNode::Scan("t", {"k", "v"}),
            PlanNode::Project(AggPlan(10),
                              {{Expr::Column("k"), "k2"},
                               {Expr::Column("sv"), "sv"}}),
            JoinKind::kInner, {"k"}, {"k2"}),
        5);
  };
  rec.Execute(plan());
  rec.Execute(plan());  // builds history for HIST store decisions
  Stopwatch sw;
  QueryTrace t3;
  rec.Execute(plan(), &t3);
  EXPECT_LT(sw.ElapsedMs(), 5000.0) << "stalled on a leaked in-flight node";
  EXPECT_LT(t3.stall_ms, 1000.0);
  // No node may be left in-flight after all queries completed.
  std::shared_lock<std::shared_mutex> lock(rec.graph().mutex());
  for (const auto& n : rec.graph().nodes()) {
    EXPECT_NE(n->mat_state.load(), MatState::kInFlight) << "node " << n->id;
  }
}

TEST_F(RecyclerTest, ConcurrentIdenticalQueriesAgree) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kSpeculation;
  Recycler rec(&catalog_, cfg);
  ExecResult reference = rec.Execute(AggPlan(10));
  auto expected = recycledb::testing::RowMultiset(*reference.table);

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  // Not vector<bool>: adjacent elements share a byte, which is a real
  // data race under concurrent writers (and a TSan finding).
  std::vector<char> ok(kThreads, 0);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      ExecResult r = rec.Execute(AggPlan(10));
      ok[i] = recycledb::testing::RowMultiset(*r.table) == expected;
    });
  }
  for (auto& th : threads) th.join();
  for (int i = 0; i < kThreads; ++i) EXPECT_TRUE(ok[i]) << "thread " << i;
}

TEST_F(RecyclerTest, ConcurrentDistinctQueriesKeepGraphConsistent) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kSpeculation;
  Recycler rec(&catalog_, cfg);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (int round = 0; round < 5; ++round) {
        rec.Execute(AggPlan(i % 4));  // 4 distinct plans, contended
      }
    });
  }
  for (auto& th : threads) th.join();
  // OCC invariant: no duplicate (type, param key, children) nodes.
  std::set<std::tuple<OpType, std::string, std::vector<RGNode*>>> identities;
  std::shared_lock<std::shared_mutex> lock(rec.graph().mutex());
  for (const auto& n : rec.graph().nodes()) {
    EXPECT_TRUE(identities.emplace(n->type, n->param_key, n->children).second)
        << "duplicate node: " << n->id;
  }
  // 4 selects + 4 aggs + 1 scan.
  EXPECT_EQ(rec.graph().Stats().num_nodes, 9);
}

}  // namespace

/// White-box access to the exact-hit index and the matcher.
struct RecyclerPeer {
  /// MatchTree's graph nodes for `plan`, pre-order (null for unmatched).
  static std::vector<RGNode*> MatchedNodes(Recycler& rec, const PlanPtr& plan) {
    plan->Bind(*rec.catalog());
    std::unique_ptr<Recycler::MNode> root = rec.MatchTree(plan);
    std::vector<RGNode*> out;
    std::vector<const Recycler::MNode*> stack{root.get()};
    while (!stack.empty()) {
      const Recycler::MNode* m = stack.back();
      stack.pop_back();
      out.push_back(m->gnode);
      for (auto it = m->children.rbegin(); it != m->children.rend(); ++it) {
        stack.push_back(it->get());
      }
    }
    return out;
  }

  /// The index entry `plan` would be looked up under (empty: none).
  static std::vector<RGNode*> IndexedNodes(Recycler& rec, const PlanPtr& plan) {
    const std::string key = Recycler::ExactHitKey(*plan).text;
    std::lock_guard<std::mutex> lock(rec.exact_mu_);
    auto it = rec.exact_hits_.find(key);
    if (it == rec.exact_hits_.end()) return {};
    EXPECT_EQ(it->second->root, it->second->nodes.front());
    return it->second->nodes;
  }

  /// Indexes `plan`'s matched tree as OnComplete would, bypassing its
  /// checks other than RememberExactHit's own (the root must be hot).
  static void Remember(Recycler& rec, const PlanPtr& plan) {
    plan->Bind(*rec.catalog());
    std::string key = Recycler::ExactHitKey(*plan).text;
    std::unique_ptr<Recycler::MNode> root = rec.MatchTree(plan);
    std::shared_lock<std::shared_mutex> lock(rec.graph_.mutex());
    rec.RememberExactHit(
        {std::move(key)},
        rec.MakeExactHit(*root, HashString(plan->TreeKey())));
  }

  /// The SQL texts the index holds a text key for.
  static std::set<std::string> IndexedTexts(Recycler& rec) {
    const std::string tag = Recycler::TextKey("");
    std::set<std::string> out;
    std::lock_guard<std::mutex> lock(rec.exact_mu_);
    for (const auto& entry : rec.exact_hits_) {
      if (entry.first.compare(0, tag.size(), tag) == 0) {
        out.insert(entry.first.substr(tag.size()));
      }
    }
    return out;
  }

  static void ClearIndex(Recycler& rec) {
    std::lock_guard<std::mutex> lock(rec.exact_mu_);
    rec.exact_hits_.clear();
    rec.exact_hit_keys_.clear();
  }

  /// Recycler::Execute, also reporting whether Prepare served the
  /// statement from the index (its matched tree is the root alone).
  static ExecResult Execute(Recycler& rec, const PlanPtr& plan,
                            QueryTrace* trace, bool* from_index) {
    std::unique_ptr<PreparedQuery> q = rec.Prepare(plan);
    *from_index = q->matched_ != nullptr && q->matched_->children.empty() &&
                  !plan->children().empty();
    ExecResult r = rec.executor_.Run(q->plan(), &q->stores(), &q->pins_);
    rec.OnComplete(q.get(), r);
    *trace = q->trace();
    return r;
  }

  /// `node`'s hot result (null when it has none).
  static TablePtr Cached(Recycler& rec, RGNode* node) {
    std::lock_guard<std::mutex> lock(rec.graph_.mat_shard(node).mu);
    return node->cached;
  }

  static void SetMatState(Recycler& rec, RGNode* node, MatState state) {
    rec.SetMatState(node, state);
  }

  /// Empty when every size group ranking `rec`'s cache keeps at the
  /// current benefit stamp, which a decision would reuse, equals a fresh
  /// ranking; else the first group whose does not.
  static std::string StaleRanking(Recycler& rec) {
    std::shared_lock<std::shared_mutex> glock(rec.graph_.mutex());
    std::lock_guard<std::mutex> clock(rec.cache_mu_);
    const RecyclerCache& cache = rec.cache_;
    const uint64_t stamp = cache.benefit_stamp_();
    for (const auto& [g, group] : cache.groups_) {
      if (group.ranked_at != stamp) continue;
      const std::vector<RecyclerCache::Ranked> fresh =
          cache.RankByBenefit(group.entries);
      for (size_t i = 0; i < fresh.size(); ++i) {
        if (fresh[i].node != group.ranked[i].node ||
            fresh[i].benefit != group.ranked[i].benefit) {
          return "size group " + std::to_string(g);
        }
      }
    }
    return "";
  }

  /// Recycler::Execute, with StaleRanking checked after Prepare, after
  /// the run (its stores' admissions) and after OnComplete.
  static std::string ExecuteCheckingRankings(Recycler& rec,
                                             const PlanPtr& plan,
                                             QueryTrace* trace) {
    std::unique_ptr<PreparedQuery> q = rec.Prepare(plan);
    std::string stale = StaleRanking(rec);
    ExecResult r = rec.executor_.Run(q->plan(), &q->stores(), &q->pins_);
    if (stale.empty()) stale = StaleRanking(rec);
    rec.OnComplete(q.get(), r);
    if (stale.empty()) stale = StaleRanking(rec);
    *trace = q->trace();
    return stale;
  }

  /// Gives `rec` a cache whose benefit stamp moves on every read, so it
  /// ranks a size group afresh for every decision.
  static void RankEveryTime(Recycler& rec) {
    rec.cache_ = RecyclerCache(
        rec.config_.cache_bytes,
        [&rec](const RGNode* n) { return rec.BenefitOf(n); },
        [ticks = uint64_t{0}]() mutable { return ++ticks; },
        rec.config_.cache_policy);
  }

  /// Checks the derived-reuse index against a brute-force scan of the
  /// graph: every child's registered parents are exactly its distinct
  /// kCached/kCold parents in ascending id, and the interval entries are
  /// exactly the range specs of the materialized nodes. Returns the first
  /// violation, empty when there is none.
  static std::string DerivedIndexViolation(Recycler& rec) {
    std::shared_lock<std::shared_mutex> glock(rec.graph_.mutex());
    std::lock_guard<std::mutex> clock(rec.cache_mu_);
    auto materialized = [](const RGNode* n) {
      const MatState ms = n->mat_state.load();
      return ms == MatState::kCached || ms == MatState::kCold;
    };
    int64_t slices = 0;
    for (const auto& child : rec.graph_.nodes()) {
      std::vector<RGNode*> expected;
      for (const auto& [hk, parent] : child->parents) {
        if (materialized(parent)) expected.push_back(parent);
      }
      std::sort(expected.begin(), expected.end(),
                [](const RGNode* a, const RGNode* b) { return a->id < b->id; });
      expected.erase(std::unique(expected.begin(), expected.end()),
                     expected.end());
      if (rec.interval_index_.Parents(child->id) != expected) {
        return "materialized parents of node " + std::to_string(child->id);
      }
      if (materialized(child.get())) {
        slices += static_cast<int64_t>(child->range_specs.size());
      }
    }
    if (rec.interval_index_.num_entries() != slices) {
      return "interval entries: " +
             std::to_string(rec.interval_index_.num_entries()) + " vs " +
             std::to_string(slices);
    }
    return "";
  }
};

namespace {

/// Trace fields other than timings.
std::string TraceSansTimings(const QueryTrace& t) {
  std::string out;
  for (const CounterInfo& c : kQueryCounters) {
    out += std::string(c.field_name) + "=" + std::to_string(t.*c.field) + ",";
  }
  for (int64_t v :
       {t.query_id, static_cast<int64_t>(t.template_hash),
        t.template_prior_runs, int64_t{t.used_proactive},
        t.graph_nodes_at_match, static_cast<int64_t>(t.reuse_mode),
        static_cast<int64_t>(t.plan_fingerprint)}) {
    out += std::to_string(v) + ",";
  }
  return out + t.plan_explain;
}

/// Every node's importance bookkeeping, in insertion order.
std::string GraphStats(Recycler& rec) {
  std::shared_lock<std::shared_mutex> lock(rec.graph().mutex());
  std::string out;
  for (const auto& n : rec.graph().nodes()) {
    out += std::to_string(n->id) + ":" + std::to_string(n->h.load()) + "/" +
           std::to_string(n->match_count.load()) + "/" +
           std::to_string(n->last_access_epoch.load()) + "/" +
           std::to_string(static_cast<int>(n->mat_state.load())) + " ";
  }
  return out;
}

class ExactHitIndexTest : public RecyclerTest {
 protected:
  static std::vector<PlanPtr> TpchPlans(uint64_t seed) {
    std::vector<PlanPtr> plans;
    for (auto& stream : tpch::MakeStreams(3, kSf, seed)) {
      for (auto& p : stream.plans) plans.push_back(p);
    }
    return plans;
  }

  static constexpr double kSf = 0.002;
};

TEST_F(ExactHitIndexTest, EntriesEqualMatchTreeOnTpchStreams) {
  Catalog catalog;
  tpch::Generate(kSf, &catalog);
  int64_t checked = 0;
  for (uint64_t seed : {1, 424242}) {
    RecyclerConfig cfg;
    cfg.cache_bytes = -1;
    Recycler rec(&catalog, cfg);
    std::vector<PlanPtr> plans = TpchPlans(seed);
    for (int round = 0; round < 2; ++round) {
      for (const PlanPtr& plan : plans) {
        rec.Execute(plan);
        std::vector<RGNode*> indexed = RecyclerPeer::IndexedNodes(rec, plan);
        if (indexed.empty()) continue;
        EXPECT_EQ(indexed, RecyclerPeer::MatchedNodes(rec, plan));
        ++checked;
      }
    }
  }
  // Every second-round statement whose root was cached is indexed.
  EXPECT_GT(checked, 50);
}

TEST_F(ExactHitIndexTest, FastPathMatchesSlowPathTraceAndImportance) {
  // Two recyclers run the same statements; the second forgets its index
  // before every statement, so it always takes the full path.
  Catalog catalog;
  tpch::Generate(kSf, &catalog);
  RecyclerConfig cfg;
  cfg.cache_bytes = -1;
  cfg.capture_plan_explain = true;
  Recycler fast(&catalog, cfg);
  Recycler slow(&catalog, cfg);
  std::vector<PlanPtr> plans = TpchPlans(7);
  int64_t served = 0;
  for (int round = 0; round < 3; ++round) {
    for (const PlanPtr& plan : plans) {
      QueryTrace tf, ts;
      bool from_index = false, slow_from_index = false;
      ExecResult rf = RecyclerPeer::Execute(fast, plan, &tf, &from_index);
      RecyclerPeer::ClearIndex(slow);
      ExecResult rs = RecyclerPeer::Execute(slow, plan, &ts, &slow_from_index);
      EXPECT_FALSE(slow_from_index);
      served += from_index ? 1 : 0;
      if (from_index) {
        EXPECT_EQ(tf.reuse_mode, ReuseMode::kExact);
      }
      // Only the index hit counts itself.
      EXPECT_EQ(tf.num_index_served, from_index ? 1 : 0);
      EXPECT_EQ(ts.num_index_served, 0);
      tf.num_index_served = 0;
      EXPECT_EQ(TraceSansTimings(tf), TraceSansTimings(ts));
      EXPECT_EQ(GraphStats(fast), GraphStats(slow));
      EXPECT_EQ(recycledb::testing::RowMultiset(*rf.table),
                recycledb::testing::RowMultiset(*rs.table));
    }
  }
  EXPECT_GT(served, 0);
}

TEST_F(ExactHitIndexTest, DeltaRefreshFromTheIndexMatchesTheFullPath) {
  // As above, with a row appended before every round but the first: the
  // index serves each append-stale root by the delta rewrite the full
  // path would build, with the same trace, graph statistics and rows.
  // The first refresh takes the full path: its entry was registered
  // before the table grew, so it keeps no plan.
  RecyclerConfig cfg;
  cfg.capture_plan_explain = true;
  Recycler fast(&catalog_, cfg);
  Recycler slow(&catalog_, cfg);
  auto select = [] {
    return PlanNode::Select(PlanNode::Scan("t", {"k", "v"}),
                            Expr::Lt(Expr::Column("v"), Expr::Literal(100.0)));
  };
  int64_t refreshed = 0;
  for (int round = 0; round < 4; ++round) {
    if (round > 0) {
      TablePtr delta = MakeTable(catalog_.GetTable("t")->schema());
      delta->AppendRow({int32_t{40 + round}, 1.5 * round});
      ASSERT_TRUE(catalog_.AppendRows("t", *delta).ok());
      fast.OnTableAppended("t");
      slow.OnTableAppended("t");
    }
    for (const PlanPtr& plan : {AggPlan(10), select()}) {
      SCOPED_TRACE(std::to_string(round) + ": " + plan->Explain());
      QueryTrace tf, ts;
      bool from_index = false, slow_from_index = false;
      ExecResult rf = RecyclerPeer::Execute(fast, plan, &tf, &from_index);
      RecyclerPeer::ClearIndex(slow);
      ExecResult rs = RecyclerPeer::Execute(slow, plan, &ts, &slow_from_index);
      EXPECT_FALSE(slow_from_index);
      EXPECT_EQ(from_index, round > 1);
      if (round > 0) {
        EXPECT_TRUE(tf.reuse_mode == ReuseMode::kAggMerge ||
                    tf.reuse_mode == ReuseMode::kDelta);
        refreshed += from_index ? 1 : 0;
      }
      EXPECT_EQ(tf.num_index_served, from_index ? 1 : 0);
      tf.num_index_served = 0;
      EXPECT_EQ(TraceSansTimings(tf), TraceSansTimings(ts));
      EXPECT_EQ(GraphStats(fast), GraphStats(slow));
      EXPECT_EQ(recycledb::testing::BitRows(*rf.table, true),
                recycledb::testing::BitRows(*rs.table, true));
      EXPECT_TRUE(fast.CheckConsistency().ok())
          << fast.CheckConsistency().ToString();
    }
  }
  EXPECT_EQ(refreshed, 4);
}

TEST_F(ExactHitIndexTest, SecondRunIsServedFromTheIndex) {
  Recycler rec(&catalog_, RecyclerConfig{});
  QueryTrace t;
  bool from_index = false;
  RecyclerPeer::Execute(rec, AggPlan(10), &t, &from_index);
  EXPECT_FALSE(from_index);  // miss: speculative store admits the root
  EXPECT_EQ(t.num_materialized, 1);
  EXPECT_EQ(rec.exact_hit_entries(), 1);  // indexed at completion
  for (int run = 0; run < 2; ++run) {
    RecyclerPeer::Execute(rec, AggPlan(10), &t, &from_index);
    EXPECT_TRUE(from_index);
    EXPECT_EQ(t.reuse_mode, ReuseMode::kExact);
  }
  EXPECT_EQ(rec.exact_hit_entries(), 1);
}

TEST_F(ExactHitIndexTest, MissWithARefusedRootRegistersNothing) {
  RecyclerConfig cfg;
  cfg.cache_bytes = 0;  // every admission is refused
  Recycler rec(&catalog_, cfg);
  for (int run = 0; run < 2; ++run) {
    QueryTrace t;
    bool from_index = true;
    RecyclerPeer::Execute(rec, AggPlan(10), &t, &from_index);
    EXPECT_FALSE(from_index);
    EXPECT_EQ(t.num_materialized, 0);
    EXPECT_EQ(rec.exact_hit_entries(), 0);
  }
}

TEST_F(ExactHitIndexTest, IntroducedNamesArePartOfTheKey) {
  // Both plans have one tree key, select(x>50) over project(k, v), but the
  // first filters k and the second v.
  auto plan = [](const std::string& k_name, const std::string& v_name) {
    return PlanNode::Aggregate(
        PlanNode::Select(
            PlanNode::Project(PlanNode::Scan("t", {"k", "v"}),
                              {{Expr::Column("k"), k_name},
                               {Expr::Column("v"), v_name}}),
            Expr::Gt(Expr::Column("x"), Expr::Literal(int64_t{50}))),
        {}, {{AggFunc::kCount, Expr::Literal(int64_t{1}), "c"}});
  };
  PlanPtr on_k = plan("x", "y");
  PlanPtr on_v = plan("y", "x");
  on_k->Bind(catalog_);
  on_v->Bind(catalog_);
  ASSERT_EQ(on_k->TreeKey(), on_v->TreeKey());
  Recycler rec(&catalog_, RecyclerConfig{});
  Recycler off(&catalog_, [] {
    RecyclerConfig c;
    c.mode = RecyclerMode::kOff;
    return c;
  }());
  for (int i = 0; i < 3; ++i) rec.Execute(on_k);
  ASSERT_EQ(rec.exact_hit_entries(), 1);
  EXPECT_EQ(recycledb::testing::RowMultiset(*rec.Execute(on_v).table),
            recycledb::testing::RowMultiset(*off.Execute(on_v).table));
}

TEST_F(ExactHitIndexTest, SeparatorsInIntroducedNamesKeepDistinctKeys) {
  // Names that hold a separator of a joined-text key: (x, y|x) and (x|y,
  // x) would both end in "x|y|x|c" there, though the first filters k and
  // the second v.
  auto plan = [](const std::string& k_name, const std::string& v_name) {
    return PlanNode::Aggregate(
        PlanNode::Select(
            PlanNode::Project(PlanNode::Scan("t", {"k", "v"}),
                              {{Expr::Column("k"), k_name},
                               {Expr::Column("v"), v_name}}),
            Expr::Gt(Expr::Column("x"), Expr::Literal(int64_t{50}))),
        {}, {{AggFunc::kCount, Expr::Literal(int64_t{1}), "c"}});
  };
  std::unique_ptr<Database> db = Database::OpenOrDie(DatabaseOptions{});
  ASSERT_TRUE(db->CreateTable("t", catalog_.GetTable("t")).ok());
  auto session = db->Connect({});
  SessionOptions bypass;
  bypass.bypass_recycler = true;
  auto oracle = db->Connect(bypass);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(session->Execute(plan("x", "y|x")).ok());
  }
  Result r = session->Execute(plan("x|y", "x"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  Result want = oracle->Execute(plan("x|y", "x"));
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_EQ(recycledb::testing::RowMultiset(*r.table()),
            recycledb::testing::RowMultiset(*want.table()));
}

/// `plan`'s rows from a recycler that is off.
std::multiset<std::string> BypassRows(Catalog& catalog, const PlanPtr& plan) {
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kOff;
  return recycledb::testing::RowMultiset(
      *Recycler(&catalog, cfg).Execute(plan).table);
}

/// Appends one row to the fixture's table `t` and tells `rec`.
void AppendOneRow(Catalog& catalog, Recycler& rec) {
  TablePtr delta = MakeTable(catalog.GetTable("t")->schema());
  delta->AppendRow({int32_t{42}, 1.5});
  ASSERT_TRUE(catalog.AppendRows("t", *delta).ok());
  rec.OnTableAppended("t");
}

TEST_F(ExactHitIndexTest, AppendStaleRootIsRefreshedFromTheIndex) {
  Recycler rec(&catalog_, RecyclerConfig{});
  for (int i = 0; i < 2; ++i) rec.Execute(AggPlan(10));
  ASSERT_EQ(rec.exact_hit_entries(), 1);
  // The root is kept for a delta rewrite, and so is its entry. It was
  // registered before the table grew, so it holds no plan: the first
  // refresh takes the full path, which registers the plan.
  AppendOneRow(catalog_, rec);
  EXPECT_EQ(rec.exact_hit_entries(), 1);
  EXPECT_TRUE(rec.CheckConsistency().ok());
  QueryTrace t;
  bool from_index = true;
  ExecResult r = RecyclerPeer::Execute(rec, AggPlan(10), &t, &from_index);
  EXPECT_FALSE(from_index);
  EXPECT_EQ(t.reuse_mode, ReuseMode::kAggMerge);
  EXPECT_EQ(t.num_index_served, 0);
  EXPECT_EQ(recycledb::testing::RowMultiset(*r.table),
            BypassRows(catalog_, AggPlan(10)));
  AppendOneRow(catalog_, rec);
  EXPECT_EQ(rec.exact_hit_entries(), 1);
  r = RecyclerPeer::Execute(rec, AggPlan(10), &t, &from_index);
  EXPECT_TRUE(from_index);
  EXPECT_EQ(t.reuse_mode, ReuseMode::kAggMerge);
  EXPECT_EQ(t.num_index_served, 1);
  EXPECT_EQ(t.num_materialized, 1);  // the refreshed root, re-admitted
  EXPECT_EQ(recycledb::testing::RowMultiset(*r.table),
            BypassRows(catalog_, AggPlan(10)));
  // ... and indexed again at completion, under the same key.
  EXPECT_EQ(rec.exact_hit_entries(), 1);
  EXPECT_TRUE(rec.CheckConsistency().ok());
  RecyclerPeer::Execute(rec, AggPlan(10), &t, &from_index);
  EXPECT_TRUE(from_index);
  EXPECT_EQ(t.reuse_mode, ReuseMode::kExact);
}

/// A global MIN over `t`: no delta rewrite refreshes it (an empty delta
/// would merge the operator's pad row).
PlanPtr GlobalMinPlan() {
  return PlanNode::Aggregate(PlanNode::Scan("t", {"k", "v"}), {},
                             {{AggFunc::kMin, Expr::Column("v"), "lo"}});
}

TEST_F(ExactHitIndexTest, StaleEntryStillFallsBack) {
  // An entry no delta rewrite can refresh — rows appended without the
  // append hook, which would have evicted it — is turned away by the
  // probe untouched, and the full path drops it and runs the plan.
  Recycler rec(&catalog_, RecyclerConfig{});
  for (int i = 0; i < 2; ++i) rec.Execute(GlobalMinPlan());
  ASSERT_EQ(rec.exact_hit_entries(), 1);
  TablePtr delta = MakeTable(catalog_.GetTable("t")->schema());
  delta->AppendRow({int32_t{42}, -1.5});
  ASSERT_TRUE(catalog_.AppendRows("t", *delta).ok());
  QueryTrace t;
  bool from_index = true;
  ExecResult r = RecyclerPeer::Execute(rec, GlobalMinPlan(), &t, &from_index);
  EXPECT_FALSE(from_index);
  EXPECT_EQ(t.num_index_served, 0);
  EXPECT_EQ(t.reuse_mode, ReuseMode::kNone);
  EXPECT_EQ(recycledb::testing::RowMultiset(*r.table),
            BypassRows(catalog_, GlobalMinPlan()));
}

TEST_F(ExactHitIndexTest, StaleEntryFallsBackThroughTheSessionOnce) {
  // The session probes the index before validation. An append-stale
  // root is refreshed from the index, the plan still unbound; an entry
  // the probe turns away falls back to the full path, which validates
  // and binds the plan. Either way the graph epoch advances once per
  // statement.
  DatabaseOptions options;
  std::unique_ptr<Database> db = Database::OpenOrDie(options);
  ASSERT_TRUE(db->CreateTable("t", catalog_.GetTable("t")).ok());
  Recycler& rec = db->recycler();
  auto session = db->Connect({});
  TablePtr delta = MakeTable(db->catalog().GetTable("t")->schema());
  delta->AppendRow({int32_t{42}, 1.5});
  // The table grows, so the aggregate's entry keeps its plan.
  ASSERT_TRUE(db->AppendTable("t", *delta).ok());
  ASSERT_TRUE(session->Execute(AggPlan(10)).ok());
  ASSERT_TRUE(session->Execute(GlobalMinPlan()).ok());
  ASSERT_EQ(rec.exact_hit_entries(), 2);
  // Without the append hook: the global MIN stays indexed, stale.
  ASSERT_TRUE(db->catalog().AppendRows("t", *delta).ok());

  PlanPtr stale = AggPlan(10);
  int64_t epoch = rec.graph().epoch();
  Result merged = session->Execute(stale);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged.trace().reuse_mode, ReuseMode::kAggMerge);
  EXPECT_EQ(merged.trace().num_index_served, 1);
  EXPECT_FALSE(stale->bound());  // refreshed from the index
  EXPECT_EQ(rec.graph().epoch(), epoch + 1);
  EXPECT_EQ(recycledb::testing::RowMultiset(*merged.table()),
            BypassRows(db->catalog(), AggPlan(10)));

  PlanPtr turned_away = GlobalMinPlan();
  epoch = rec.graph().epoch();
  Result rerun = session->Execute(turned_away);
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_EQ(rerun.trace().num_index_served, 0);
  EXPECT_TRUE(turned_away->bound());  // the full path ran
  EXPECT_EQ(rec.graph().epoch(), epoch + 1);
  EXPECT_EQ(recycledb::testing::RowMultiset(*rerun.table()),
            BypassRows(db->catalog(), GlobalMinPlan()));

  PlanPtr repeat = AggPlan(10);
  epoch = rec.graph().epoch();
  Result hit = session->Execute(repeat);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_EQ(hit.trace().reuse_mode, ReuseMode::kExact);
  EXPECT_FALSE(repeat->bound());  // served before validation and Bind
  EXPECT_EQ(rec.graph().epoch(), epoch + 1);
  EXPECT_EQ(recycledb::testing::RowMultiset(*hit.table()),
            recycledb::testing::RowMultiset(*merged.table()));
}

/// A database over the fixture's table `t`, with a recycled and a bypass
/// session.
struct SqlDb {
  explicit SqlDb(const Catalog& catalog)
      : db(Database::OpenOrDie(DatabaseOptions{})) {
    EXPECT_TRUE(db->CreateTable("t", catalog.GetTable("t")).ok());
    session = db->Connect({});
    SessionOptions bypass;
    bypass.bypass_recycler = true;
    oracle = db->Connect(bypass);
  }

  /// Runs `sql` on the recycled session, checks its rows against the
  /// bypass session's and the recycler's consistency, and returns it.
  Result Run(const std::string& sql) {
    Result r = session->Sql(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    Result want = oracle->Sql(sql);
    EXPECT_TRUE(want.ok()) << want.status().ToString();
    if (r.ok() && want.ok()) {
      EXPECT_EQ(r.schema().ToString(), want.schema().ToString());
      EXPECT_EQ(recycledb::testing::BitRows(*r.table(), false),
                recycledb::testing::BitRows(*want.table(), false));
    }
    const Status consistent = db->recycler().CheckConsistency();
    EXPECT_TRUE(consistent.ok()) << consistent.ToString();
    return r;
  }

  void AppendRow(int32_t k, double v) {
    TablePtr delta = MakeTable(db->catalog().GetTable("t")->schema());
    delta->AppendRow({k, v});
    ASSERT_TRUE(db->AppendTable("t", *delta).ok());
  }

  std::unique_ptr<Database> db;
  std::unique_ptr<Session> session;
  std::unique_ptr<Session> oracle;
};

constexpr char kSqlAgg[] =
    "SELECT k, SUM(v) AS sv FROM t WHERE k > 10 GROUP BY k";

TEST_F(ExactHitIndexTest, SqlRepeatAfterAnAppendIsServedByItsText) {
  SqlDb sql(catalog_);
  sql.AppendRow(39, 1.0);  // a growing table: entries keep their plans
  Result first = sql.Run(kSqlAgg);
  EXPECT_EQ(first.trace().num_index_served, 0);
  EXPECT_EQ(RecyclerPeer::IndexedTexts(sql.db->recycler()),
            std::set<std::string>{kSqlAgg});
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE(round);
    sql.AppendRow(40 + round, 2.5);
    Result r = sql.Run(kSqlAgg);
    EXPECT_EQ(r.trace().num_index_served, 1);
    EXPECT_EQ(r.trace().reuse_mode, ReuseMode::kAggMerge);
    EXPECT_EQ(r.trace().num_materialized, 1);
    EXPECT_EQ(RecyclerPeer::IndexedTexts(sql.db->recycler()),
              std::set<std::string>{kSqlAgg});
  }
  Result fresh = sql.Run(kSqlAgg);
  EXPECT_EQ(fresh.trace().num_index_served, 1);
  EXPECT_EQ(fresh.trace().reuse_mode, ReuseMode::kExact);
  EXPECT_EQ(sql.session->stats().num_index_served, 4);
}

TEST_F(ExactHitIndexTest, WhitespaceVariantRegistersItsOwnTextKey) {
  SqlDb sql(catalog_);
  const std::string spaced = "SELECT k,  SUM(v) AS sv FROM t WHERE k > 10 "
                             "GROUP BY k";
  sql.AppendRow(39, 1.0);  // a growing table: entries keep their plans
  sql.Run(kSqlAgg);
  // The variant's text misses, and its plan hits under the plan key; the
  // root's text key becomes the variant's, the latest.
  Result variant = sql.Run(spaced);
  EXPECT_EQ(variant.trace().num_index_served, 1);
  EXPECT_EQ(variant.trace().reuse_mode, ReuseMode::kExact);
  EXPECT_EQ(RecyclerPeer::IndexedTexts(sql.db->recycler()),
            std::set<std::string>{spaced});
  EXPECT_EQ(sql.db->recycler().exact_hit_entries(), 1);
  sql.AppendRow(77, 0.5);
  Result refreshed = sql.Run(spaced);
  EXPECT_EQ(refreshed.trace().num_index_served, 1);
  EXPECT_EQ(refreshed.trace().reuse_mode, ReuseMode::kAggMerge);
  EXPECT_EQ(RecyclerPeer::IndexedTexts(sql.db->recycler()),
            std::set<std::string>{spaced});
  Result original = sql.Run(kSqlAgg);
  EXPECT_EQ(original.trace().num_index_served, 1);
  EXPECT_EQ(RecyclerPeer::IndexedTexts(sql.db->recycler()),
            std::set<std::string>{kSqlAgg});
}

TEST_F(ExactHitIndexTest, ReplaceTableBetweenSqlRepeatsParsesAgain) {
  SqlDb sql(catalog_);
  auto table = [](bool v_double) {
    Schema s({{"k", TypeId::kInt32},
              {"v", v_double ? TypeId::kDouble : TypeId::kInt64}});
    TablePtr t = MakeTable(s);
    for (int i = 0; i < 1000; ++i) {
      t->AppendRow({int32_t{i % 4}, v_double ? Datum(0.5 * i)
                                             : Datum(int64_t{i})});
    }
    return t;
  };
  ASSERT_TRUE(sql.db->CreateTable("m", table(false)).ok());
  const std::string q = "SELECT k, SUM(v) AS s FROM m GROUP BY k";
  sql.Run(q);
  Result hit = sql.Run(q);
  EXPECT_EQ(hit.trace().num_index_served, 1);
  EXPECT_EQ(hit.schema().field(1).type, TypeId::kInt64);
  // The new table changes the column's type, so the text lowers to
  // another plan; the replacement evicted the root and its text key.
  ASSERT_TRUE(sql.db->ReplaceTable("m", table(true)).ok());
  EXPECT_TRUE(RecyclerPeer::IndexedTexts(sql.db->recycler()).empty());
  Result reparsed = sql.Run(q);
  EXPECT_EQ(reparsed.trace().num_index_served, 0);
  EXPECT_FALSE(reparsed.recycled());
  EXPECT_EQ(reparsed.schema().field(1).type, TypeId::kDouble);
  EXPECT_EQ(sql.Run(q).trace().num_index_served, 1);
}

TEST_F(ExactHitIndexTest, KeyOfAnUnboundPlanEqualsItsBoundCopy) {
  Catalog catalog;
  tpch::Generate(kSf, &catalog);
  skyserver::Setup(2000, &catalog);
  std::vector<PlanPtr> plans = TpchPlans(5);
  plans.push_back(PlanNode::Select(
      PlanNode::FunctionScan("fGetNearbyObjEq", {195.0, 2.5, 0.5}),
      Expr::Lt(Expr::Column("distance"), Expr::Literal(0.2))));
  for (const PlanPtr& plan : plans) {
    PlanPtr unbound = plan->CloneDeep();
    plan->Bind(catalog);
    const StatementKey bound_key = Recycler::ExactHitKey(*plan);
    const StatementKey unbound_key = Recycler::ExactHitKey(*unbound);
    EXPECT_FALSE(unbound->bound());
    EXPECT_EQ(unbound_key.text, bound_key.text);
    EXPECT_EQ(bound_key.text.substr(0, bound_key.tree_key_size),
              plan->TreeKey());
  }
}

TEST_F(ExactHitIndexTest, InFlightRootFallsBackAndStalls) {
  Recycler rec(&catalog_, RecyclerConfig{});
  for (int i = 0; i < 2; ++i) rec.Execute(AggPlan(10));
  std::vector<RGNode*> nodes = RecyclerPeer::IndexedNodes(rec, AggPlan(10));
  ASSERT_FALSE(nodes.empty());
  RGNode* root = nodes.front();
  // An entry whose root went in flight (bypassing SetMatState, which
  // would forget it): the lookup must fall through to the stall.
  root->mat_state.store(MatState::kInFlight);
  std::thread publisher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    RecyclerPeer::SetMatState(rec, root, MatState::kCached);
  });
  QueryTrace t;
  bool from_index = true;
  RecyclerPeer::Execute(rec, AggPlan(10), &t, &from_index);
  publisher.join();
  EXPECT_FALSE(from_index);
  EXPECT_EQ(t.num_stalls, 1);
  EXPECT_EQ(t.reuse_mode, ReuseMode::kExact);
}

TEST_F(ExactHitIndexTest, ColdRootFallsBackToReadmission) {
  recycledb::testing::TempSpillDir dir;
  RecyclerConfig cfg;
  cfg.spill_dir = dir.path();
  Recycler rec(&catalog_, cfg);
  for (int i = 0; i < 2; ++i) rec.Execute(AggPlan(10));
  ASSERT_EQ(rec.exact_hit_entries(), 1);
  rec.FlushCache();  // demotes every hot result to the cold tier
  EXPECT_EQ(rec.exact_hit_entries(), 0);
  QueryTrace t;
  bool from_index = true;
  RecyclerPeer::Execute(rec, AggPlan(10), &t, &from_index);
  EXPECT_FALSE(from_index);
  EXPECT_EQ(t.reuse_mode, ReuseMode::kColdReadmit);
  // Re-admitted hot, so the next run is indexed again.
  RecyclerPeer::Execute(rec, AggPlan(10), &t, &from_index);
  EXPECT_TRUE(from_index);
}

TEST_F(ExactHitIndexTest, OffAndProactiveModesNeverIndex) {
  for (RecyclerMode mode : {RecyclerMode::kOff, RecyclerMode::kProactive}) {
    RecyclerConfig cfg;
    cfg.mode = mode;
    Recycler rec(&catalog_, cfg);
    for (int i = 0; i < 4; ++i) {
      QueryTrace t;
      bool from_index = true;
      RecyclerPeer::Execute(rec, AggPlan(10), &t, &from_index);
      EXPECT_FALSE(from_index) << RecyclerModeName(mode);
      if (mode == RecyclerMode::kProactive && i > 0) {
        EXPECT_EQ(t.reuse_mode, ReuseMode::kExact);
      }
    }
    EXPECT_EQ(rec.exact_hit_entries(), 0) << RecyclerModeName(mode);
  }
}

TEST_F(ExactHitIndexTest, TruncateGraphEmptiesTheIndex) {
  Recycler rec(&catalog_, RecyclerConfig{});
  for (int t = 0; t < 4; ++t) {
    for (int i = 0; i < 2; ++i) rec.Execute(AggPlan(t));
  }
  ASSERT_EQ(rec.exact_hit_entries(), 4);
  rec.TruncateGraph(/*idle_epochs=*/0);
  EXPECT_EQ(rec.exact_hit_entries(), 0);
  // Served again after truncation: re-matched, re-indexed, same answer.
  Recycler off(&catalog_, [] {
    RecyclerConfig c;
    c.mode = RecyclerMode::kOff;
    return c;
  }());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(recycledb::testing::RowMultiset(*rec.Execute(AggPlan(2)).table),
              recycledb::testing::RowMultiset(*off.Execute(AggPlan(2)).table));
  }
  EXPECT_EQ(rec.exact_hit_entries(), 1);
}

TEST_F(ExactHitIndexTest, NeverMoreEntriesThanTheHotCache) {
  Catalog catalog;
  tpch::Generate(kSf, &catalog);
  RecyclerConfig cfg;
  cfg.cache_bytes = 64 << 10;  // evicts
  Recycler rec(&catalog, cfg);
  std::vector<PlanPtr> plans = TpchPlans(3);
  // Entries appear from round 0 on, where most statements are misses that
  // admitted their root.
  std::vector<int64_t> max_entries(3, 0);
  for (int round = 0; round < 3; ++round) {
    for (const PlanPtr& plan : plans) {
      rec.Execute(plan);
      EXPECT_LE(rec.exact_hit_entries(), rec.cache().num_entries());
      max_entries[round] = std::max(max_entries[round], rec.exact_hit_entries());
    }
  }
  EXPECT_GT(rec.counters().evictions.load(), 0);
  for (int64_t m : max_entries) EXPECT_GT(m, 0);
}

TEST_F(ExactHitIndexTest, ConcurrentHitsMissesAndTruncation) {
  // Three streams repeat a few statements (hits) among fresh ones
  // (misses) while a fourth truncates the graph and flushes the cache.
  // Truncation needs a quiescent point, so queries hold `quiesce` shared.
  RecyclerConfig cfg;
  cfg.cache_bytes = 256 << 10;
  Recycler rec(&catalog_, cfg);
  Recycler off(&catalog_, [] {
    RecyclerConfig c;
    c.mode = RecyclerMode::kOff;
    return c;
  }());
  std::vector<std::multiset<std::string>> expected;
  for (int p = 0; p < 40; ++p) {
    expected.push_back(
        recycledb::testing::RowMultiset(*off.Execute(AggPlan(p)).table));
  }
  std::shared_mutex quiesce;
  std::atomic<bool> done{false};
  std::atomic<int> wrong{0};
  std::vector<std::thread> streams;
  for (int s = 0; s < 3; ++s) {
    streams.emplace_back([&, s] {
      for (int i = 0; i < 60; ++i) {
        const int p = i % 3 == 0 ? (s * 13 + i) % 40 : i % 4;
        std::shared_lock<std::shared_mutex> lock(quiesce);
        ExecResult r = rec.Execute(AggPlan(p));
        if (recycledb::testing::RowMultiset(*r.table) != expected[p]) ++wrong;
      }
    });
  }
  std::thread truncator([&] {
    int n = 0;
    while (!done.load()) {
      {
        std::unique_lock<std::shared_mutex> lock(quiesce);
        if (n++ % 2 == 0) {
          rec.TruncateGraph(/*idle_epochs=*/2);
        } else {
          rec.FlushCache();
        }
        EXPECT_LE(rec.exact_hit_entries(), rec.cache().num_entries());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  for (auto& th : streams) th.join();
  done = true;
  truncator.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_LE(rec.exact_hit_entries(), rec.cache().num_entries());
}

// ---------------------------------------------------------------------------
// Zero-copy root hits
// ---------------------------------------------------------------------------

TEST_F(ExactHitIndexTest, RootHitSharesTheCachedColumns) {
  Recycler rec(&catalog_, RecyclerConfig{});
  // The cached result keeps the names of the statement that produced it;
  // a later spelling with another alias matches the same node and indexes
  // its own key.
  rec.Execute(AggPlan(10, "total"));
  rec.Execute(AggPlan(10));
  QueryTrace t;
  bool from_index = false;
  ExecResult r = RecyclerPeer::Execute(rec, AggPlan(10), &t, &from_index);
  ASSERT_TRUE(from_index);
  std::vector<RGNode*> nodes = RecyclerPeer::IndexedNodes(rec, AggPlan(10));
  ASSERT_FALSE(nodes.empty());
  TablePtr cached = RecyclerPeer::Cached(rec, nodes.front());
  ASSERT_NE(cached, nullptr);
  // The same columns, under the plan's names rather than the producer's.
  EXPECT_EQ(r.table->schema().Names(), (std::vector<std::string>{"k", "sv"}));
  EXPECT_EQ(cached->schema().Names(),
            (std::vector<std::string>{"k", "total"}));
  ASSERT_EQ(r.table->num_columns(), cached->num_columns());
  for (int i = 0; i < cached->num_columns(); ++i) {
    EXPECT_EQ(r.table->column(i), cached->column(i));
    EXPECT_TRUE(r.table->column(i)->shared());
  }
  // The result holds the columns: dropping the entry leaves it intact.
  const std::multiset<std::string> digest =
      recycledb::testing::RowMultiset(*r.table);
  cached.reset();
  rec.FlushCache();
  EXPECT_EQ(rec.cache().num_entries(), 0);
  EXPECT_EQ(recycledb::testing::RowMultiset(*r.table), digest);
  EXPECT_EQ(BypassRows(catalog_, AggPlan(10)), digest);
}

TEST(CachedRootTest, RuntimeMatchesTheOperatorPath) {
  Catalog catalog;
  Executor exec(&catalog);
  for (int64_t rows : {0, 1, 1024, 2500}) {
    SCOPED_TRACE(rows);
    TablePtr cached = MakeTable(Schema({{"a#3", TypeId::kInt64}}));
    for (int64_t i = 0; i < rows; ++i) cached->AppendRow({i});
    PlanPtr scan = PlanNode::CachedScan(cached, {"a"});
    scan->Bind(catalog);
    ExecResult served = exec.Run(scan);
    EXPECT_EQ(served.table->column(0), cached->column(0));
    EXPECT_EQ(served.table->schema().field(0).name, "a");

    std::map<const PlanNode*, Operator*> ops;
    OperatorPtr op = exec.BuildOperator(scan, nullptr, &ops);
    op->Open();
    Batch batch;
    while (op->NextTimed(&batch)) {
    }
    op->Close();
    const OpStats& want = op->stats();
    ASSERT_EQ(served.node_runtime.count(scan.get()), 1u);
    const NodeRuntime& got = served.node_runtime.at(scan.get());
    EXPECT_EQ(got.rows_out, want.rows_out);
    EXPECT_EQ(got.stats.rows_out, want.rows_out);
    EXPECT_EQ(got.stats.batches_out, want.batches_out);
    EXPECT_EQ(got.stats.blocks_scanned, want.blocks_scanned);
    EXPECT_EQ(got.stats.blocks_pruned, want.blocks_pruned);
    EXPECT_EQ(served.blocks_scanned, want.blocks_scanned);
    EXPECT_EQ(served.blocks_pruned, 0);
  }
}

using ExactHitIndexDeathTest = ExactHitIndexTest;

TEST_F(ExactHitIndexDeathTest, AppendingToARootHitDies) {
  Recycler rec(&catalog_, RecyclerConfig{});
  rec.Execute(AggPlan(10));
  QueryTrace t;
  bool from_index = false;
  ExecResult r = RecyclerPeer::Execute(rec, AggPlan(10), &t, &from_index);
  ASSERT_TRUE(from_index);
  EXPECT_DEATH(r.table->AppendRow({int32_t{1}, 2.0}),
               "mutating a shared column");
}

// ---------------------------------------------------------------------------
// Derived-reuse index
// ---------------------------------------------------------------------------

/// Statement `i` of the index mix: range selections on `k` (some with a
/// conjunct on `v`), an aggregate over one, and selections on `v`, so
/// repeats hit and neighbours subsume or stitch.
PlanPtr MixStatement(int i) {
  auto scan = [] { return PlanNode::Scan("t", {"k", "v"}); };
  const int64_t lo = (i * 7) % 90;
  ExprPtr k_range =
      Expr::And(Expr::Ge(Expr::Column("k"), Expr::Literal(lo)),
                Expr::Lt(Expr::Column("k"), Expr::Literal(lo + 3 + i % 9)));
  switch (i % 4) {
    case 0:
      return PlanNode::Select(scan(), k_range);
    case 1:
      return PlanNode::Select(
          scan(), Expr::And(k_range, Expr::Gt(Expr::Column("v"),
                                              Expr::Literal(i * 13.0))));
    case 2:
      return PlanNode::Aggregate(PlanNode::Select(scan(), k_range), {"k"},
                                 {{AggFunc::kSum, Expr::Column("v"), "sv"}});
    default:
      return PlanNode::Select(
          scan(), Expr::Lt(Expr::Column("v"), Expr::Literal(50.0 + i * 20)));
  }
}

/// One step of a seeded random mix over every path that moves a node
/// into or out of materialization: statements (admission, eviction,
/// spill, promotion, subsumption, stitching), FlushCache, a corrupted
/// spill file (cold load errors), appends, InvalidateTable and
/// TruncateGraph. Truncation holds `quiesce` exclusively, since it needs
/// a point where no statement is between Prepare and OnComplete.
void IndexMixStep(Recycler& rec, Catalog& catalog, const std::string& dir,
                  Rng& rng, std::shared_mutex& quiesce) {
  const int64_t op = rng.Uniform(0, 99);
  if (op >= 90) {
    std::unique_lock<std::shared_mutex> lock(quiesce);
    rec.TruncateGraph(/*idle_epochs=*/rng.Uniform(0, 20));
    return;
  }
  std::shared_lock<std::shared_mutex> lock(quiesce);
  if (op < 70) {
    rec.Execute(MixStatement(static_cast<int>(rng.Uniform(0, 39))));
  } else if (op < 75) {
    rec.FlushCache();
  } else if (op < 80) {
    std::vector<std::filesystem::path> files;
    std::error_code ec;
    for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
      if (e.path().extension() == ".spill") files.push_back(e.path());
    }
    if (files.empty()) return;
    const auto& victim = files[rng.Uniform(0, files.size() - 1)];
    std::filesystem::resize_file(victim, 64, ec);  // truncated: unreadable
  } else if (op < 86) {
    TablePtr delta = MakeTable(catalog.GetTable("t")->schema());
    for (int r = 0; r < 50; ++r) {
      delta->AppendRow({static_cast<int32_t>(rng.Uniform(0, 99)),
                        static_cast<double>(rng.Uniform(0, 976))});
    }
    ASSERT_TRUE(catalog.AppendRows("t", *delta).ok());
    rec.OnTableAppended("t");
  } else {
    rec.InvalidateTable("t");
  }
}

/// A hot cache that evicts, over a cold tier that sweeps when `dir` is
/// set. Without one, an eviction drops the result to kNone.
RecyclerConfig IndexMixConfig(const std::string& dir) {
  RecyclerConfig cfg;
  cfg.cache_bytes = 64 << 10;
  cfg.spill_dir = dir;
  cfg.cold_tier_capacity_bytes = 32 << 10;
  return cfg;
}

TEST_F(RecyclerTest, DerivedIndexMatchesParentScanUnderRandomMix) {
  for (bool cold : {false, true}) {
    SCOPED_TRACE(cold ? "cold tier" : "hot cache only");
    recycledb::testing::TempSpillDir dir;
    Recycler rec(&catalog_, IndexMixConfig(cold ? dir.path() : ""));
    std::shared_mutex quiesce;
    Rng rng(2024);
    for (int step = 0; step < 400; ++step) {
      IndexMixStep(rec, catalog_, dir.path(), rng, quiesce);
      ASSERT_EQ(RecyclerPeer::DerivedIndexViolation(rec), "")
          << "step " << step;
    }
    // The mix reached every path it is meant to cover.
    const RecyclerCounters& c = rec.counters();
    EXPECT_GT(c.evictions.load(), 0);
    EXPECT_GT(c.invalidations.load(), 0);
    EXPECT_GT(c.subsumption_reuses.load() + c.partial_reuses.load(), 0);
    if (cold) {
      EXPECT_GT(c.cold_spills.load(), 0);
      EXPECT_GT(c.cold_readmissions.load(), 0);
      EXPECT_GT(c.cold_load_errors.load(), 0);
    }
  }
}

TEST_F(RecyclerTest, DerivedIndexMatchesParentScanUnderConcurrentMix) {
  for (bool cold : {false, true}) {
    SCOPED_TRACE(cold ? "cold tier" : "hot cache only");
    recycledb::testing::TempSpillDir dir;
    Recycler rec(&catalog_, IndexMixConfig(cold ? dir.path() : ""));
    std::shared_mutex quiesce;
    std::atomic<bool> done{false};
    std::vector<std::thread> streams;
    for (int s = 0; s < 4; ++s) {
      streams.emplace_back([&, s] {
        Rng rng(77 + s);
        for (int step = 0; step < 80; ++step) {
          IndexMixStep(rec, catalog_, dir.path(), rng, quiesce);
        }
      });
    }
    int checks = 0;
    std::thread checker([&] {
      while (!done.load()) {
        EXPECT_EQ(RecyclerPeer::DerivedIndexViolation(rec), "");
        ++checks;
        std::this_thread::yield();
      }
    });
    for (auto& th : streams) th.join();
    done = true;
    checker.join();
    EXPECT_GT(checks, 0);
    EXPECT_EQ(RecyclerPeer::DerivedIndexViolation(rec), "");
  }
}

TEST_F(RecyclerTest, KeptRankingsDecideLikeFreshOnes) {
  // One seeded mix on two recyclers: one as built, whose cache reuses a
  // size group's ranking while the benefit stamp reads the same, and one
  // that ranks afresh for every decision. History mode decides on model
  // costs alone, so the traces must agree. Within and after every step,
  // a ranking the first keeps at the current stamp must equal a fresh
  // one: a benefit written without moving the stamp fails here. Aging
  // makes FoldAging write too.
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kHistory;
  cfg.cache_bytes = 64 << 10;
  cfg.aging_alpha = 0.9;
  Recycler kept(&catalog_, cfg);
  Recycler fresh(&catalog_, cfg);
  RecyclerPeer::RankEveryTime(fresh);
  Rng rng(38);
  for (int step = 0; step < 600; ++step) {
    const int64_t op = rng.Uniform(0, 99);
    if (op < 94) {
      const int i = static_cast<int>(rng.Uniform(0, 39));
      QueryTrace tk, tf;
      ASSERT_EQ(RecyclerPeer::ExecuteCheckingRankings(kept, MixStatement(i),
                                                      &tk),
                "")
          << "step " << step;
      fresh.Execute(MixStatement(i), &tf);
      ASSERT_EQ(TraceSansTimings(tk), TraceSansTimings(tf)) << "step " << step;
    } else if (op < 97) {
      kept.FlushCache();
      fresh.FlushCache();
    } else {
      kept.InvalidateTable("t");
      fresh.InvalidateTable("t");
    }
    ASSERT_EQ(GraphStats(kept), GraphStats(fresh)) << "step " << step;
    ASSERT_EQ(RecyclerPeer::StaleRanking(kept), "") << "step " << step;
  }
  EXPECT_EQ(kept.counters().evictions.load(),
            fresh.counters().evictions.load());
  EXPECT_GT(kept.counters().evictions.load(), 50);
  EXPECT_GT(kept.counters().materializations.load(), 100);

  // Speculation decides on measured times, so only the kept rankings
  // are checked there.
  cfg.mode = RecyclerMode::kSpeculation;
  Recycler spec(&catalog_, cfg);
  for (int step = 0; step < 300; ++step) {
    QueryTrace trace;
    ASSERT_EQ(RecyclerPeer::ExecuteCheckingRankings(
                  spec, MixStatement(static_cast<int>(rng.Uniform(0, 39))),
                  &trace),
              "")
        << "step " << step;
  }
  EXPECT_GT(spec.counters().evictions.load(), 50);
}

TEST_F(RecyclerTest, SubsumptionTriesTheLowerNodeIdFirst) {
  // Two cached supersets both derive the query. Hot candidates are tried
  // in ascending node id, so the one inserted first serves it, and a
  // fresh engine that runs the same statements picks the same one.
  auto scan = [] { return PlanNode::Scan("t", {"k", "v"}); };
  auto by_k = [] {
    return Expr::Gt(Expr::Column("k"), Expr::Literal(int64_t{10}));
  };
  auto by_v = [] { return Expr::Lt(Expr::Column("v"), Expr::Literal(500.0)); };
  auto subsumer = [&](ExprPtr first, ExprPtr second) {
    Recycler rec(&catalog_, RecyclerConfig{});
    rec.Execute(PlanNode::Select(scan(), std::move(first)));
    rec.Execute(PlanNode::Select(scan(), std::move(second)));
    // The derived plan reads the winner's cached table.
    std::unique_ptr<PreparedQuery> prepared =
        rec.Prepare(PlanNode::Select(scan(), Expr::And(by_k(), by_v())));
    const PlanNode* read = prepared->plan().get();
    while (read->type() != OpType::kCachedScan && read->num_children() > 0) {
      read = read->child(0).get();
    }
    int64_t first_cached = -1;
    const RGNode* winner = nullptr;
    {
      std::shared_lock<std::shared_mutex> lock(rec.graph().mutex());
      for (const auto& n : rec.graph().nodes()) {
        if (n->mat_state.load() != MatState::kCached) continue;
        if (first_cached < 0) first_cached = n->id;
        if (n->cached == read->cached_result()) winner = n.get();
      }
    }
    QueryTrace trace;
    rec.Execute(prepared.get(), &trace);
    EXPECT_EQ(trace.num_subsumption_reuses, 1);
    EXPECT_NE(winner, nullptr);
    if (winner == nullptr) return std::string();
    EXPECT_EQ(winner->id, first_cached);
    return winner->param_key;
  };
  const std::string k_first = subsumer(by_k(), by_v());
  EXPECT_NE(subsumer(by_v(), by_k()), k_first);
  EXPECT_EQ(subsumer(by_k(), by_v()), k_first);
}

}  // namespace
}  // namespace recycledb
