// Differential test of every path that answers an aggregate by
// re-aggregating partial aggregates (Reaggregate, expr/aggregate.h): the
// delta merge after an append, tuple subsumption from a finer cached
// grouping, and cube caching with selections and with binning. Each runs
// over group columns named like the path's temporaries, and must return
// the rows a recycler-bypass run returns, bit for bit.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/database.h"
#include "common/string_util.h"
#include "test_util.h"

namespace recycledb {
namespace {

enum class Path { kDeltaMerge, kTupleSubsumption, kCubeSelections, kCubeBinning };

const char* PathName(Path path) {
  switch (path) {
    case Path::kDeltaMerge:
      return "delta_merge";
    case Path::kTupleSubsumption:
      return "tuple_subsumption";
    case Path::kCubeSelections:
      return "cube_selections";
    case Path::kCubeBinning:
      return "cube_binning";
  }
  return "?";
}

/// The aggregate lists. Every AVG comes with the SUM and COUNT of its
/// argument, so each list derives from itself (the delta merge and tuple
/// subsumption need that); integer arguments keep every sum exact.
std::vector<AggItem> AggList(int list) {
  auto col = [](const char* name) { return Expr::Column(name); };
  const ExprPtr star = Expr::Literal(int64_t{1});
  switch (list) {
    case 0:  // the shape of the name-collision probes
      return {{AggFunc::kSum, col("a64"), "total"},
              {AggFunc::kCount, col("a64"), "n"},
              {AggFunc::kAvg, col("a64"), "mean"}};
    case 1:
      return {{AggFunc::kMin, col("a32"), "lo"},
              {AggFunc::kMax, col("a32"), "hi"},
              {AggFunc::kSum, col("a32"), "total"},
              {AggFunc::kCount, star, "rows"},
              {AggFunc::kCount, col("a32"), "n"},
              {AggFunc::kAvg, col("a32"), "mean"}};
    default:
      return {{AggFunc::kMin, col("when_d"), "first"},
              {AggFunc::kMax, col("when_d"), "last"},
              {AggFunc::kMin, col("a64"), "lo"},
              {AggFunc::kMax, col("a64"), "hi"},
              {AggFunc::kCount, star, "rows"}};
  }
}
constexpr int kNumLists = 3;

struct Case {
  Path path;
  std::string group;  // the group column's name
  int list;
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << PathName(c.path) << " over group " << c.group << ", list "
      << c.list;
}

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  return StrFormat("%s_%s_list%d", PathName(info.param.path),
                   info.param.group.c_str(), info.param.list);
}

std::vector<Case> AllCases() {
  // An ordinary name, then the preferred names of each path's
  // temporaries, which FreshName must steer around.
  const std::vector<std::pair<Path, std::vector<std::string>>> names = {
      {Path::kDeltaMerge, {"grp", "dm0", "dm1"}},
      {Path::kTupleSubsumption, {"grp", "r0", "r1", "s2"}},
      {Path::kCubeSelections, {"grp", "aa0", "pa0_p0"}},
      {Path::kCubeBinning, {"grp", "when_d_year"}},
  };
  std::vector<Case> out;
  for (const auto& [path, groups] : names) {
    for (const std::string& group : groups) {
      for (int list = 0; list < kNumLists; ++list) {
        out.push_back({path, group, list});
      }
    }
  }
  return out;
}

class ReaggregateTest : public ::testing::TestWithParam<Case> {
 protected:
  /// Rows [from, from + count) of the table: the group (3 values), a
  /// finer key, a low-cardinality selection column, int64 and int32
  /// arguments and ~4 years of dates.
  TablePtr Rows(int from, int count) const {
    TablePtr t = MakeTable(Schema({{GetParam().group, TypeId::kInt32},
                                   {"k", TypeId::kInt32},
                                   {"cat", TypeId::kInt32},
                                   {"a64", TypeId::kInt64},
                                   {"a32", TypeId::kInt32},
                                   {"when_d", TypeId::kDate}}));
    for (int i = from; i < from + count; ++i) {
      t->AppendRow({int32_t{i % 3}, int32_t{i % 17}, int32_t{i % 8},
                    int64_t{(i * 7919) % 100003 - 20000}, int32_t{i % 251},
                    MakeDate(1994, 1, 1) + i % 1400});
    }
    return t;
  }

  std::unique_ptr<Database> Open(RecyclerMode mode) const {
    DatabaseOptions options;
    options.recycler.mode = mode;
    options.recycler.enable_delta_maintenance = true;
    auto db = Database::OpenOrDie(options);
    EXPECT_TRUE(db->CreateTable("t", Rows(0, 6000)).ok());
    return db;
  }

  /// Aggregate(γ = {group} ∪ extra, list) over `input`.
  PlanPtr Agg(PlanPtr input, std::vector<std::string> extra = {}) const {
    std::vector<std::string> groups = {GetParam().group};
    groups.insert(groups.end(), extra.begin(), extra.end());
    return PlanNode::Aggregate(std::move(input), groups,
                               AggList(GetParam().list));
  }

  PlanPtr Scan() const {
    return PlanNode::Scan(
        "t", {GetParam().group, "k", "cat", "a64", "a32", "when_d"});
  }

  /// Runs `plan` through the recycler and through a bypass session and
  /// expects bit-equal rows; returns the recycled run's trace.
  QueryTrace RunAndCompare(Database* db, const PlanPtr& plan) const {
    Result r = db->Execute(plan->CloneDeep());
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    SessionOptions bypass;
    bypass.bypass_recycler = true;
    Result want = db->Connect(bypass)->Execute(plan->CloneDeep());
    EXPECT_TRUE(want.ok()) << want.status().ToString();
    if (!r.ok() || !want.ok()) return {};
    EXPECT_EQ(testing::BitRows(*r.table(), false),
              testing::BitRows(*want.table(), false));
    return r.trace();
  }
};

TEST_P(ReaggregateTest, MatchesBypass) {
  switch (GetParam().path) {
    case Path::kDeltaMerge: {
      auto db = Open(RecyclerMode::kSpeculation);
      RunAndCompare(db.get(), Agg(Scan()));
      ASSERT_TRUE(db->AppendTable("t", *Rows(6000, 20)).ok());
      EXPECT_EQ(RunAndCompare(db.get(), Agg(Scan())).num_agg_merges, 1);
      break;
    }
    case Path::kTupleSubsumption: {
      auto db = Open(RecyclerMode::kSpeculation);
      RunAndCompare(db.get(), Agg(Scan(), {"k"}));
      EXPECT_EQ(RunAndCompare(db.get(), Agg(Scan())).num_subsumption_reuses,
                1);
      break;
    }
    case Path::kCubeSelections:
    case Path::kCubeBinning: {
      // The first run scores the cube, the second computes and caches it,
      // the later ones answer from it.
      auto db = Open(RecyclerMode::kProactive);
      for (int i = 1; i <= 4; ++i) {
        SCOPED_TRACE(StrFormat("run %d", i));
        ExprPtr pred =
            GetParam().path == Path::kCubeSelections
                ? Expr::Eq(Expr::Column("cat"), Expr::Literal(int32_t{i}))
                : Expr::Le(Expr::Column("when_d"),
                           Expr::Literal(MakeDate(1996, 3, 1 + i)));
        QueryTrace trace =
            RunAndCompare(db.get(), Agg(PlanNode::Select(Scan(), pred)));
        if (i >= 2) {
          EXPECT_TRUE(trace.used_proactive);
        }
        if (i >= 3) {
          EXPECT_GE(trace.num_reuses, 1);
        }
      }
      break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Paths, ReaggregateTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

TEST(ReaggregateNotDerivable, MinFromSumAndCountIsNotReused) {
  // MIN is not derivable from SUM and COUNT partials: the coarse query
  // must run from the base table.
  auto db = Database::OpenOrDie();
  TablePtr t = MakeTable(Schema({{"g", TypeId::kInt32},
                                 {"k", TypeId::kInt32},
                                 {"v", TypeId::kInt64}}));
  for (int i = 0; i < 1000; ++i) {
    t->AppendRow({int32_t{i % 3}, int32_t{i % 17}, int64_t{i % 101}});
  }
  ASSERT_TRUE(db->CreateTable("t", t).ok());
  auto scan = [] { return PlanNode::Scan("t", {"g", "k", "v"}); };
  ASSERT_TRUE(db->Execute(PlanNode::Aggregate(
                              scan(), {"g", "k"},
                              {{AggFunc::kSum, Expr::Column("v"), "s"},
                               {AggFunc::kCount, Expr::Column("v"), "c"}}))
                  .ok());
  auto coarse = [&scan] {
    return PlanNode::Aggregate(scan(), {"g"},
                               {{AggFunc::kMin, Expr::Column("v"), "m"}});
  };
  Result r = db->Execute(coarse());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.trace().num_subsumption_reuses, 0);
  EXPECT_EQ(r.trace().num_reuses, 0);
  SessionOptions bypass;
  bypass.bypass_recycler = true;
  Result want = db->Connect(bypass)->Execute(coarse());
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(testing::BitRows(*r.table(), false),
            testing::BitRows(*want.table(), false));
}

}  // namespace
}  // namespace recycledb
