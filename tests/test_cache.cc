// Tests for the recycler cache: Danzig-style group-local replacement,
// admission checks, flush/remove, the LRU policy, and
// the reuse of a group's benefit ranking while neither the group nor the
// benefit stamp changes.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.h"
#include "recycler/cache.h"

namespace recycledb {
namespace {

class CacheTest : public ::testing::Test {
 protected:
  /// Creates a node with a cached table of roughly `bytes` bytes.
  RGNode* MakeNode(int64_t bytes, double benefit) {
    auto node = std::make_unique<RGNode>();
    node->id = next_id_++;
    TablePtr t = MakeTable(Schema({{"x", TypeId::kInt64}}));
    for (int64_t i = 0; i < bytes / 8; ++i) t->AppendRow({i});
    node->cached = t;
    node->cached_bytes = bytes;
    benefits_[node.get()] = benefit;
    nodes_.push_back(std::move(node));
    return nodes_.back().get();
  }

  std::function<double(const RGNode*)> BenefitFn() {
    return [this](const RGNode* n) { return benefits_.at(n); };
  }

  /// Reads `stamp_`: a test that changes a benefit bumps it, as the
  /// recycler's writers bump its benefit stamp.
  std::function<uint64_t()> StampFn() {
    return [this] { return stamp_; };
  }

  std::map<const RGNode*, double> benefits_;
  uint64_t stamp_ = 0;
  std::vector<std::unique_ptr<RGNode>> nodes_;
  int64_t next_id_ = 1;
};

TEST_F(CacheTest, AdmitWhileSpaceAvailable) {
  RecyclerCache cache(10000, BenefitFn(), StampFn());
  std::vector<RGNode*> evicted;
  EXPECT_TRUE(cache.Admit(MakeNode(4000, 1.0), 1.0, &evicted));
  EXPECT_TRUE(cache.Admit(MakeNode(4000, 0.1), 0.1, &evicted));
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(cache.used_bytes(), 8000);
  EXPECT_EQ(cache.num_entries(), 2);
}

TEST_F(CacheTest, RejectsResultLargerThanCapacity) {
  RecyclerCache cache(1000, BenefitFn(), StampFn());
  std::vector<RGNode*> evicted;
  EXPECT_FALSE(cache.Admit(MakeNode(5000, 100.0), 100.0, &evicted));
  EXPECT_EQ(cache.used_bytes(), 0);
}

TEST_F(CacheTest, ReplacementEvictsLowerBenefitInSameGroup) {
  RecyclerCache cache(10000, BenefitFn(), StampFn());
  std::vector<RGNode*> evicted;
  RGNode* weak = MakeNode(6000, 0.1);
  ASSERT_TRUE(cache.Admit(weak, 0.1, &evicted));
  // Same log2-size group (4096..8191), higher benefit: replaces.
  RGNode* strong = MakeNode(6000, 5.0);
  ASSERT_TRUE(cache.Admit(strong, 5.0, &evicted));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], weak);
  EXPECT_EQ(cache.num_entries(), 1);
}

TEST_F(CacheTest, ReplacementRefusesWhenIncumbentsAreBetter) {
  RecyclerCache cache(10000, BenefitFn(), StampFn());
  std::vector<RGNode*> evicted;
  ASSERT_TRUE(cache.Admit(MakeNode(6000, 5.0), 5.0, &evicted));
  EXPECT_FALSE(cache.Admit(MakeNode(6000, 0.5), 0.5, &evicted));
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(cache.num_entries(), 1);
}

TEST_F(CacheTest, PaperPolicyIsGroupLocal) {
  // The paper's replacement policy only scans the candidate's own
  // log2-size group: low-benefit entries in OTHER groups do not help.
  RecyclerCache cache(10000, BenefitFn(), StampFn());
  std::vector<RGNode*> evicted;
  ASSERT_TRUE(cache.Admit(MakeNode(900, 0.01), 0.01, &evicted));   // group 9
  ASSERT_TRUE(cache.Admit(MakeNode(8200, 0.02), 0.02, &evicted));  // group 13
  // Candidate of ~2000 bytes (group 10): its own group is empty, so the
  // 900-byte low-benefit entry in group 9 cannot be considered -> refuse.
  EXPECT_FALSE(cache.WouldAdmit(99.0, 2000));
  // A same-group candidate, however, can displace the group-9 entry
  // (frees 900 + 900 free bytes >= 990).
  EXPECT_TRUE(cache.WouldAdmit(99.0, 990));
}

TEST_F(CacheTest, AverageBenefitStopRule) {
  // Victims are accumulated only while their average benefit stays below
  // the candidate's. Full cache: both group-12 entries must be evicted to
  // fit the 6000-byte candidate.
  RecyclerCache cache(10000, BenefitFn(), StampFn());
  std::vector<RGNode*> evicted;
  ASSERT_TRUE(cache.Admit(MakeNode(5000, 1.0), 1.0, &evicted));
  ASSERT_TRUE(cache.Admit(MakeNode(5000, 10.0), 10.0, &evicted));
  // avg(1, 10) = 5.5 >= 5.0 -> the scan stops before enough is freed.
  EXPECT_FALSE(cache.WouldAdmit(5.0, 6000));
  // A candidate above the victims' average is admitted.
  EXPECT_TRUE(cache.WouldAdmit(6.0, 6000));
}

TEST_F(CacheTest, UnlimitedCacheAdmitsEverything) {
  RecyclerCache cache(-1, BenefitFn(), StampFn());
  std::vector<RGNode*> evicted;
  for (int i = 0; i < 32; ++i) {
    EXPECT_TRUE(cache.Admit(MakeNode(1 << 16, 0.001), 0.001, &evicted));
  }
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(cache.num_entries(), 32);
}

TEST_F(CacheTest, RemoveAndFlush) {
  RecyclerCache cache(100000, BenefitFn(), StampFn());
  std::vector<RGNode*> evicted;
  RGNode* a = MakeNode(1000, 1.0);
  RGNode* b = MakeNode(1000, 2.0);
  ASSERT_TRUE(cache.Admit(a, 1.0, &evicted));
  ASSERT_TRUE(cache.Admit(b, 2.0, &evicted));
  cache.Remove(a);
  EXPECT_EQ(cache.num_entries(), 1);
  EXPECT_EQ(cache.used_bytes(), 1000);
  cache.Remove(a);  // double remove is a no-op
  EXPECT_EQ(cache.num_entries(), 1);
  std::vector<RGNode*> flushed;
  cache.Flush(&flushed);
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0], b);
  EXPECT_EQ(cache.used_bytes(), 0);
}

TEST_F(CacheTest, LruPolicyEvictsOldest) {
  RecyclerCache cache(10000, BenefitFn(), StampFn(), CachePolicy::kLru);
  std::vector<RGNode*> evicted;
  RGNode* oldest = MakeNode(4000, 100.0);  // high benefit but old
  RGNode* newer = MakeNode(4000, 0.1);
  ASSERT_TRUE(cache.Admit(oldest, 100.0, &evicted));
  ASSERT_TRUE(cache.Admit(newer, 0.1, &evicted));
  ASSERT_TRUE(cache.Admit(MakeNode(4000, 0.2), 0.2, &evicted));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], oldest);  // LRU ignores benefit
}

TEST_F(CacheTest, LruTouchProtectsEntry) {
  RecyclerCache cache(10000, BenefitFn(), StampFn(), CachePolicy::kLru);
  std::vector<RGNode*> evicted;
  RGNode* a = MakeNode(4000, 1.0);
  RGNode* b = MakeNode(4000, 1.0);
  ASSERT_TRUE(cache.Admit(a, 1.0, &evicted));
  ASSERT_TRUE(cache.Admit(b, 1.0, &evicted));
  cache.TouchForLru(a);  // a becomes most recent
  ASSERT_TRUE(cache.Admit(MakeNode(4000, 1.0), 1.0, &evicted));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], b);
}

TEST_F(CacheTest, EvictionPlanTakesOneBenefitPerEntry) {
  // A full 200-entry size group. Ranking victims must evaluate each
  // entry's benefit once, not twice per sort comparison, and an Admit
  // right after a WouldAdmit at the same stamp reuses that ranking.
  constexpr int kEntries = 200;
  int64_t calls = 0;
  RecyclerCache cache(
      kEntries * 4096,
      [this, &calls](const RGNode* n) {
        ++calls;
        return benefits_.at(n);
      },
      StampFn());
  std::vector<RGNode*> evicted;
  for (int i = 0; i < kEntries; ++i) {
    ASSERT_TRUE(cache.Admit(MakeNode(4096, 1.0 + i % 17), 1.0, &evicted));
  }
  ASSERT_EQ(cache.used_bytes(), cache.capacity_bytes());

  calls = 0;
  EXPECT_TRUE(cache.WouldAdmit(100.0, 4096));
  EXPECT_EQ(calls, kEntries);

  calls = 0;
  EXPECT_TRUE(cache.Admit(MakeNode(4096, 100.0), 100.0, &evicted));
  EXPECT_EQ(calls, 0);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(benefits_.at(evicted[0]), 1.0);  // the lowest benefit goes
}

TEST_F(CacheTest, BenefitsChangingMidEvaluationStayInBounds) {
  // Other streams bump h while an eviction plan is ranked. A benefit_fn
  // that answers differently on every call is the worst case: a sort
  // whose comparator re-read it could run past its range (caught by
  // AddressSanitizer). Planning on a snapshot stays in bounds. The stamp
  // moves before every check, so each one ranks afresh.
  constexpr int kEntries = 200;
  Rng rng(20240917);
  int64_t rankings = 0;
  RecyclerCache cache(
      kEntries * 4096,
      [&rng](const RGNode*) {
        return static_cast<double>(rng.Uniform(0, 1000));
      },
      [this, &rankings] {
        ++rankings;
        return stamp_;
      });
  std::vector<RGNode*> evicted;
  for (int i = 0; i < kEntries; ++i) {
    ASSERT_TRUE(cache.Admit(MakeNode(4096, 0), 0, &evicted));
  }
  rankings = 0;
  for (int i = 0; i < 1000; ++i) {
    ++stamp_;
    cache.WouldAdmit(500.0, 4096);
  }
  EXPECT_EQ(rankings, 1000);
  EXPECT_EQ(cache.num_entries(), kEntries);
  EXPECT_EQ(cache.used_bytes(), cache.capacity_bytes());
}

TEST_F(CacheTest, RankingReusedUntilStampOrGroupChanges) {
  // The stamp comes from a recycler graph, as in the engine: an epoch
  // advance, a fold of pending aging and a noted write each move it.
  RecyclerGraph graph(/*aging_alpha=*/0.5);
  int64_t calls = 0;
  RecyclerCache cache(
      4 * 4096,
      [this, &calls](const RGNode* n) {
        ++calls;
        return benefits_.at(n);
      },
      [&graph] { return graph.benefit_stamp(); });
  std::vector<RGNode*> evicted;
  RGNode* a = MakeNode(4096, 1.0);
  RGNode* b = MakeNode(4096, 2.0);
  RGNode* c = MakeNode(4096, 3.0);
  for (RGNode* n : {a, b, c}) ASSERT_TRUE(cache.Admit(n, 1.0, &evicted));
  RGNode* small = MakeNode(1024, 1.0);  // another size group
  ASSERT_TRUE(cache.Admit(small, 1.0, &evicted));
  ASSERT_EQ(cache.used_bytes(), 3 * 4096 + 1024);
  // Checks in the full 4096 group rank its three entries.
  auto ranks = [&](const std::function<void()>& change) {
    change();
    calls = 0;
    cache.WouldAdmit(10.0, 8000);
    return calls;
  };
  const auto nothing = [] {};
  EXPECT_EQ(ranks(nothing), 3);
  EXPECT_EQ(ranks(nothing), 0);

  // Stamp bumps.
  EXPECT_EQ(ranks([&] { graph.AdvanceEpoch(); }), 3);
  EXPECT_EQ(ranks(nothing), 0);
  a->h_epoch.store(0);
  EXPECT_EQ(ranks([&] { graph.FoldAging(a); }), 3);
  EXPECT_EQ(ranks([&] { graph.FoldAging(a); }), 0);  // nothing to fold
  EXPECT_EQ(ranks([&] { graph.NoteBenefitWrite(); }), 3);

  // Group changes: another group's do not touch this one's ranking.
  RGNode* small2 = MakeNode(1024, 1.0);
  EXPECT_EQ(ranks([&] {
              ASSERT_TRUE(cache.Admit(small2, 1.0, &evicted));
            }),
            0);
  EXPECT_EQ(ranks([&] { cache.Remove(small2); }), 0);
  EXPECT_EQ(ranks([&] { cache.Remove(c); }), 2);
  EXPECT_EQ(ranks([&] {
              ASSERT_TRUE(cache.Admit(c, 1.0, &evicted));
            }),
            3);
  RGNode* d = MakeNode(4096, 5.0);
  EXPECT_EQ(ranks([&] {
              ASSERT_TRUE(cache.Admit(d, 5.0, &evicted));  // evicts a
            }),
            3);
  EXPECT_EQ(evicted, (std::vector<RGNode*>{a}));
  // After a flush the check fits without ranking; refilled, the group
  // ranks afresh.
  std::vector<RGNode*> flushed;
  EXPECT_EQ(ranks([&] { cache.Flush(&flushed); }), 0);
  for (RGNode* n : {a, b, c}) ASSERT_TRUE(cache.Admit(n, 1.0, &evicted));
  EXPECT_EQ(ranks(nothing), 3);
}

TEST_F(CacheTest, ReusedRankingsDecideLikeFreshOnes) {
  // A seeded mix of admissions, removals, checks and benefit changes
  // (each with a stamp bump, as the recycler's writers do) against a
  // cache whose stamp moves on every read, so it ranks every time. The
  // two must take every decision and evict every victim alike.
  Rng rng(38);
  int64_t ticks = 0;
  RecyclerCache reused(16 * 4096, BenefitFn(), StampFn());
  RecyclerCache fresh(16 * 4096, BenefitFn(), [&ticks] { return ++ticks; });
  std::vector<RGNode*> resident;
  int admitted = 0, rejected = 0, evictions = 0;
  for (int step = 0; step < 4000; ++step) {
    const int64_t size = int64_t{1} << rng.Uniform(11, 13);  // 3 groups
    const double benefit = static_cast<double>(rng.Uniform(1, 100));
    // Admissions outnumber removals, so the cache stays full.
    switch (rng.Uniform(0, 9)) {
      case 0:
      case 1:
      case 2:
      case 3: {
        RGNode* n = MakeNode(size, benefit);
        std::vector<RGNode*> ev_reused, ev_fresh;
        const bool ok = reused.Admit(n, benefit, &ev_reused);
        ASSERT_EQ(fresh.Admit(n, benefit, &ev_fresh), ok) << "step " << step;
        ASSERT_EQ(ev_reused, ev_fresh) << "step " << step;
        for (RGNode* v : ev_reused) {
          resident.erase(std::find(resident.begin(), resident.end(), v));
        }
        if (ok) resident.push_back(n);
        admitted += ok;
        rejected += !ok;
        evictions += static_cast<int>(ev_reused.size());
        break;
      }
      case 4:
        if (!resident.empty()) {
          const size_t i = rng.Uniform(0, resident.size() - 1);
          reused.Remove(resident[i]);
          fresh.Remove(resident[i]);
          resident.erase(resident.begin() + static_cast<ptrdiff_t>(i));
        }
        break;
      case 5:
      case 6:
      case 7:
        ASSERT_EQ(reused.WouldAdmit(benefit, size),
                  fresh.WouldAdmit(benefit, size))
            << "step " << step;
        break;
      default:
        for (RGNode* n : resident) {
          if (rng.Uniform(0, 3) == 0) {
            benefits_[n] = static_cast<double>(rng.Uniform(1, 100));
          }
        }
        ++stamp_;
        break;
    }
    ASSERT_EQ(reused.used_bytes(), fresh.used_bytes());
  }
  // Every branch of the policy ran.
  EXPECT_GT(admitted, 100);
  EXPECT_GT(rejected, 100);
  EXPECT_GT(evictions, 100);
}

}  // namespace
}  // namespace recycledb
