// Unit tests for src/exec operators: scan, filter, project, limit, union,
// sort, top-N, hash aggregate, hash join (all kinds, plus a property test
// against a nested-loop reference), progress meters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/executor.h"
#include "exec/operators.h"
#include "test_util.h"

namespace recycledb {
namespace {

class OperatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // orders-like table: key, group, value.
    Schema s({{"k", TypeId::kInt32},
              {"g", TypeId::kString},
              {"v", TypeId::kDouble}});
    TablePtr t = MakeTable(s);
    for (int i = 0; i < 5000; ++i) {
      t->AppendRow({int32_t{i}, std::string(i % 3 == 0 ? "a" : "b"),
                    static_cast<double>(i % 100)});
    }
    ASSERT_TRUE(catalog_.RegisterTable("t", t).ok());

    Schema dim({{"dk", TypeId::kInt32}, {"name", TypeId::kString}});
    TablePtr d = MakeTable(dim);
    // Only even keys < 100 appear in the dimension.
    for (int i = 0; i < 100; i += 2) {
      d->AppendRow({int32_t{i}, std::string("dim") + std::to_string(i)});
    }
    ASSERT_TRUE(catalog_.RegisterTable("dim", d).ok());
  }

  TablePtr Run(PlanPtr plan) {
    plan->Bind(catalog_);
    Executor exec(&catalog_);
    return exec.Run(plan).table;
  }

  Catalog catalog_;
};

TEST_F(OperatorTest, ScanAllRowsInBatches) {
  TablePtr r = Run(PlanNode::Scan("t", {"k"}));
  EXPECT_EQ(r->num_rows(), 5000);
  EXPECT_EQ(std::get<int32_t>(r->Get(4999, 0)), 4999);
}

TEST_F(OperatorTest, FilterSelectivity) {
  TablePtr r = Run(PlanNode::Select(
      PlanNode::Scan("t", {"k", "g"}),
      Expr::Eq(Expr::Column("g"), Expr::Literal(std::string("a")))));
  EXPECT_EQ(r->num_rows(), 1667);  // ceil(5000/3)
}

TEST_F(OperatorTest, FilterNoMatches) {
  TablePtr r = Run(PlanNode::Select(
      PlanNode::Scan("t", {"k"}),
      Expr::Lt(Expr::Column("k"), Expr::Literal(int64_t{0}))));
  EXPECT_EQ(r->num_rows(), 0);
}

TEST_F(OperatorTest, ProjectComputesExpressions) {
  TablePtr r = Run(PlanNode::Project(
      PlanNode::Scan("t", {"k", "v"}),
      {{Expr::Arith(ArithOp::kAdd, Expr::Column("v"), Expr::Literal(1.0)),
        "v1"}}));
  EXPECT_EQ(r->num_rows(), 5000);
  EXPECT_DOUBLE_EQ(std::get<double>(r->Get(5, 0)), 6.0);
}

TEST_F(OperatorTest, LimitStopsEarly) {
  TablePtr r = Run(PlanNode::Limit(PlanNode::Scan("t", {"k"}), 10));
  EXPECT_EQ(r->num_rows(), 10);
  // Limit smaller than one batch and larger than the table both work.
  EXPECT_EQ(Run(PlanNode::Limit(PlanNode::Scan("t", {"k"}), 100000))
                ->num_rows(),
            5000);
}

TEST_F(OperatorTest, UnionAllConcatenates) {
  TablePtr r = Run(PlanNode::UnionAll(
      {PlanNode::Scan("t", {"k"}), PlanNode::Scan("t", {"k"})}));
  EXPECT_EQ(r->num_rows(), 10000);
}

TEST_F(OperatorTest, OrderBySortsAscDesc) {
  TablePtr r = Run(PlanNode::OrderBy(
      PlanNode::Scan("t", {"v", "k"}),
      {{"v", false}, {"k", true}}));
  ASSERT_EQ(r->num_rows(), 5000);
  EXPECT_DOUBLE_EQ(std::get<double>(r->Get(0, 0)), 99.0);
  // Within equal v, k ascends.
  EXPECT_LT(std::get<int32_t>(r->Get(0, 1)), std::get<int32_t>(r->Get(1, 1)));
  EXPECT_DOUBLE_EQ(std::get<double>(r->Get(4999, 0)), 0.0);
}

TEST_F(OperatorTest, TopNMatchesFullSortPrefix) {
  PlanPtr sorted = PlanNode::OrderBy(PlanNode::Scan("t", {"v", "k"}),
                                     {{"v", true}, {"k", true}});
  PlanPtr top = PlanNode::TopN(PlanNode::Scan("t", {"v", "k"}),
                               {{"v", true}, {"k", true}}, 37);
  TablePtr rs = Run(sorted);
  TablePtr rt = Run(top);
  ASSERT_EQ(rt->num_rows(), 37);
  for (int64_t i = 0; i < 37; ++i) {
    EXPECT_EQ(recycledb::testing::RowKey(*rs, i),
              recycledb::testing::RowKey(*rt, i));
  }
}

TEST_F(OperatorTest, TopNLargerThanInput) {
  TablePtr r = Run(PlanNode::TopN(
      PlanNode::Select(PlanNode::Scan("t", {"k"}),
                       Expr::Lt(Expr::Column("k"), Expr::Literal(int64_t{5}))),
      {{"k", false}}, 100));
  EXPECT_EQ(r->num_rows(), 5);
  EXPECT_EQ(std::get<int32_t>(r->Get(0, 0)), 4);
}

TEST_F(OperatorTest, HashAggGlobal) {
  TablePtr r = Run(PlanNode::Aggregate(
      PlanNode::Scan("t", {"v"}), {},
      {{AggFunc::kSum, Expr::Column("v"), "s"},
       {AggFunc::kCount, Expr::Literal(int64_t{1}), "c"},
       {AggFunc::kMin, Expr::Column("v"), "mn"},
       {AggFunc::kMax, Expr::Column("v"), "mx"},
       {AggFunc::kAvg, Expr::Column("v"), "av"}}));
  ASSERT_EQ(r->num_rows(), 1);
  // 5000 rows of i%100: 50 full cycles of 0..99 -> sum = 50*4950.
  EXPECT_DOUBLE_EQ(std::get<double>(r->Get(0, 0)), 50 * 4950.0);
  EXPECT_EQ(std::get<int64_t>(r->Get(0, 1)), 5000);
  EXPECT_DOUBLE_EQ(std::get<double>(r->Get(0, 2)), 0.0);
  EXPECT_DOUBLE_EQ(std::get<double>(r->Get(0, 3)), 99.0);
  EXPECT_DOUBLE_EQ(std::get<double>(r->Get(0, 4)), 49.5);
}

TEST_F(OperatorTest, HashAggGlobalOnEmptyInputEmitsOneRow) {
  TablePtr r = Run(PlanNode::Aggregate(
      PlanNode::Select(PlanNode::Scan("t", {"v"}),
                       Expr::Lt(Expr::Column("v"), Expr::Literal(-1.0))),
      {}, {{AggFunc::kCount, Expr::Literal(int64_t{1}), "c"}}));
  ASSERT_EQ(r->num_rows(), 1);
  EXPECT_EQ(std::get<int64_t>(r->Get(0, 0)), 0);
}

TEST_F(OperatorTest, HashAggGrouped) {
  TablePtr r = Run(PlanNode::Aggregate(
      PlanNode::Scan("t", {"g", "v"}), {"g"},
      {{AggFunc::kCount, Expr::Literal(int64_t{1}), "c"}}));
  ASSERT_EQ(r->num_rows(), 2);
  int64_t total = 0;
  for (int64_t i = 0; i < 2; ++i) total += std::get<int64_t>(r->Get(i, 1));
  EXPECT_EQ(total, 5000);
}

TEST_F(OperatorTest, HashAggIntegerSumStaysIntegral) {
  TablePtr r = Run(PlanNode::Aggregate(
      PlanNode::Scan("t", {"k"}), {},
      {{AggFunc::kSum, Expr::Column("k"), "s"}}));
  EXPECT_EQ(std::get<int64_t>(r->Get(0, 0)),
            4999ll * 5000 / 2);
}

TEST_F(OperatorTest, HashJoinInner) {
  TablePtr r = Run(PlanNode::HashJoin(
      PlanNode::Scan("t", {"k", "v"}), PlanNode::Scan("dim", {"dk", "name"}),
      JoinKind::kInner, {"k"}, {"dk"}));
  EXPECT_EQ(r->num_rows(), 50);  // even keys < 100
  EXPECT_EQ(r->schema().Names(),
            (std::vector<std::string>{"k", "v", "dk", "name"}));
}

TEST_F(OperatorTest, HashJoinSemiAnti) {
  PlanPtr probe = PlanNode::Select(
      PlanNode::Scan("t", {"k"}),
      Expr::Lt(Expr::Column("k"), Expr::Literal(int64_t{100})));
  TablePtr semi = Run(PlanNode::HashJoin(probe, PlanNode::Scan("dim", {"dk"}),
                                         JoinKind::kSemi, {"k"}, {"dk"}));
  EXPECT_EQ(semi->num_rows(), 50);
  TablePtr anti = Run(PlanNode::HashJoin(probe, PlanNode::Scan("dim", {"dk"}),
                                         JoinKind::kAnti, {"k"}, {"dk"}));
  EXPECT_EQ(anti->num_rows(), 50);  // odd keys < 100
}

TEST_F(OperatorTest, HashJoinLeftOuterPadsMisses) {
  PlanPtr probe = PlanNode::Select(
      PlanNode::Scan("t", {"k"}),
      Expr::Lt(Expr::Column("k"), Expr::Literal(int64_t{4})));
  TablePtr r = Run(PlanNode::HashJoin(probe,
                                      PlanNode::Scan("dim", {"dk", "name"}),
                                      JoinKind::kLeftOuter, {"k"}, {"dk"}));
  ASSERT_EQ(r->num_rows(), 4);
  // Odd keys have no dim match: padded with defaults (0 / "").
  auto rows = recycledb::testing::RowMultiset(*r);
  EXPECT_TRUE(rows.count("1|0|''|") == 1) << r->ToString();
}

TEST_F(OperatorTest, HashJoinDuplicateBuildKeysMultiply) {
  Schema s({{"bk", TypeId::kInt32}});
  TablePtr dup = MakeTable(s);
  dup->AppendRow({int32_t{2}});
  dup->AppendRow({int32_t{2}});
  ASSERT_TRUE(catalog_.RegisterTable("dup", dup).ok());
  PlanPtr probe = PlanNode::Select(
      PlanNode::Scan("t", {"k"}),
      Expr::Eq(Expr::Column("k"), Expr::Literal(int64_t{2})));
  TablePtr r = Run(PlanNode::HashJoin(probe, PlanNode::Scan("dup", {"bk"}),
                                      JoinKind::kInner, {"k"}, {"bk"}));
  EXPECT_EQ(r->num_rows(), 2);
}

TEST_F(OperatorTest, MultiKeyJoin) {
  // Join t with itself on (k, g): every row matches exactly itself.
  PlanPtr left = PlanNode::Scan("t", {"k", "g"});
  PlanPtr right = PlanNode::Project(
      PlanNode::Scan("t", {"k", "g"}),
      {{Expr::Column("k"), "k2"}, {Expr::Column("g"), "g2"}});
  TablePtr r = Run(PlanNode::HashJoin(left, right, JoinKind::kInner,
                                      {"k", "g"}, {"k2", "g2"}));
  EXPECT_EQ(r->num_rows(), 5000);
}

TEST_F(OperatorTest, OperatorStatsCollected) {
  PlanPtr plan = PlanNode::Select(
      PlanNode::Scan("t", {"k"}),
      Expr::Lt(Expr::Column("k"), Expr::Literal(int64_t{10})));
  plan->Bind(catalog_);
  Executor exec(&catalog_);
  ExecResult r = exec.Run(plan);
  ASSERT_EQ(r.node_runtime.size(), 2u);
  const NodeRuntime& sel_rt = r.node_runtime.at(plan.get());
  EXPECT_EQ(sel_rt.rows_out, 10);
  // k is appended in ascending order, so the zone maps prune every block
  // past the first for `k < 10`: the scan reads exactly one 1024-row
  // block of the five.
  const NodeRuntime& scan_rt = r.node_runtime.at(plan->child().get());
  EXPECT_EQ(scan_rt.rows_out, 1024);
  EXPECT_EQ(r.blocks_scanned, 1);
  EXPECT_EQ(r.blocks_pruned, 4);
  // Inclusive timing: the parent's time includes the child's.
  EXPECT_GE(sel_rt.inclusive_ms, 0.0);
}

TEST_F(OperatorTest, HashJoinMatchesNegativeZeroWithPositiveZero) {
  // RowEquals compares doubles under the value order, so -0.0 joins
  // +0.0; the two must therefore hash alike.
  Schema s({{"x", TypeId::kDouble}});
  TablePtr pos = MakeTable(s);
  pos->AppendRow({0.0});
  TablePtr neg = MakeTable(Schema({{"y", TypeId::kDouble}}));
  neg->AppendRow({-0.0});
  ASSERT_TRUE(catalog_.RegisterTable("pos", pos).ok());
  ASSERT_TRUE(catalog_.RegisterTable("neg", neg).ok());
  TablePtr r = Run(PlanNode::HashJoin(PlanNode::Scan("pos", {"x"}),
                                      PlanNode::Scan("neg", {"y"}),
                                      JoinKind::kInner, {"x"}, {"y"}));
  EXPECT_EQ(r->num_rows(), 1);
}

TEST_F(OperatorTest, HashAggGroupsNegativeZeroWithPositiveZero) {
  Schema s({{"x", TypeId::kDouble}});
  TablePtr t = MakeTable(s);
  t->AppendRow({0.0});
  t->AppendRow({-0.0});
  ASSERT_TRUE(catalog_.RegisterTable("zeros", t).ok());
  TablePtr r = Run(PlanNode::Aggregate(
      PlanNode::Scan("zeros", {"x"}), {"x"},
      {{AggFunc::kCount, Expr::Literal(int64_t{1}), "c"}}));
  ASSERT_EQ(r->num_rows(), 1);
  EXPECT_EQ(std::get<int64_t>(r->Get(0, 1)), 2);
}

// --- NaN under the value order: above every number, equal to itself -------

/// nans(k, v): 5,000 rows, v = k % 100 except every third row, which is NaN.
void RegisterNans(Catalog* catalog) {
  TablePtr t =
      MakeTable(Schema({{"k", TypeId::kInt32}, {"v", TypeId::kDouble}}));
  for (int i = 0; i < 5000; ++i) {
    t->AppendRow({int32_t{i}, i % 3 == 0 ? std::nan("")
                                         : static_cast<double>(i % 100)});
  }
  ASSERT_TRUE(catalog->RegisterTable("nans", t).ok());
}

TEST_F(OperatorTest, OrderBySortsNanAboveEveryNumber) {
  RegisterNans(&catalog_);
  TablePtr r = Run(PlanNode::OrderBy(PlanNode::Scan("nans", {"v", "k"}),
                                     {{"v", true}}));
  ASSERT_EQ(r->num_rows(), 5000);
  // The 3,333 numbers come first, in order; the 1,667 NaNs after them.
  int inversions = 0, nans_first = 0;
  for (int64_t i = 0; i < r->num_rows(); ++i) {
    const double v = std::get<double>(r->Get(i, 0));
    nans_first += (i < 3333) == std::isnan(v);
    if (i > 0 && i < 3333) inversions += std::get<double>(r->Get(i - 1, 0)) > v;
  }
  EXPECT_EQ(inversions, 0);
  EXPECT_EQ(nans_first, 0);
}

TEST_F(OperatorTest, MinMaxAndGroupsTreatNanAsOneValueAboveNumbers) {
  RegisterNans(&catalog_);
  TablePtr mm = Run(PlanNode::Aggregate(
      PlanNode::Scan("nans", {"v"}), {},
      {{AggFunc::kMin, Expr::Column("v"), "lo"},
       {AggFunc::kMax, Expr::Column("v"), "hi"}}));
  EXPECT_EQ(std::get<double>(mm->Get(0, 0)), 0.0);
  EXPECT_TRUE(std::isnan(std::get<double>(mm->Get(0, 1))));
  TablePtr groups = Run(PlanNode::Aggregate(
      PlanNode::Scan("nans", {"v"}), {"v"},
      {{AggFunc::kCount, Expr::Literal(int64_t{1}), "c"}}));
  int64_t nan_groups = 0;
  for (int64_t g = 0; g < groups->num_rows(); ++g) {
    if (!std::isnan(std::get<double>(groups->Get(g, 0)))) continue;
    ++nan_groups;
    EXPECT_EQ(std::get<int64_t>(groups->Get(g, 1)), 1667);
  }
  EXPECT_EQ(nan_groups, 1);
}

// --- Hash join against a nested-loop reference ------------------------------

/// Emits a table as zero-copy views, in batches whose lengths cycle
/// through `batch_rows` (so key columns arrive as slices at odd offsets).
class SlicedSourceOp : public Operator {
 public:
  SlicedSourceOp(TablePtr table, std::vector<int64_t> batch_rows)
      : Operator(table->schema()),
        table_(std::move(table)),
        batch_rows_(std::move(batch_rows)) {}

  void Open() override {
    pos_ = 0;
    step_ = 0;
  }
  bool Next(Batch* out) override {
    out->Clear();
    if (pos_ >= table_->num_rows()) return false;
    const int64_t len =
        std::min(batch_rows_[step_++ % batch_rows_.size()],
                 table_->num_rows() - pos_);
    for (int c = 0; c < table_->num_columns(); ++c) {
      out->columns.push_back(ColumnVector::Slice(table_->column(c), pos_, len));
    }
    out->num_rows = len;
    pos_ += len;
    return true;
  }
  void Close() override {}
  double Progress() const override { return 0.0; }

 private:
  TablePtr table_;
  std::vector<int64_t> batch_rows_;
  int64_t pos_ = 0;
  size_t step_ = 0;
};

/// Bit-exact rendering (DatumToString rounds doubles to 6 digits).
std::string Render(const Datum& d) {
  if (std::holds_alternative<double>(d)) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", std::get<double>(d));
    return buf;
  }
  return DatumToString(d);
}

std::string RenderKey(const Table& t, const std::vector<int>& keys,
                      int64_t row) {
  std::string out;
  for (int k : keys) out += Render(t.Get(row, k)) + "|";
  return out;
}

std::string RenderRow(const Table& t, int64_t row) {
  std::string out;
  for (int c = 0; c < t.num_columns(); ++c) out += Render(t.Get(row, c)) + "|";
  return out;
}

/// The join contract spelled out as a nested loop: probe rows in input
/// order; per probe row, its matches in descending build-row order.
std::vector<std::string> NestedLoopJoin(const Table& probe, const Table& build,
                                        JoinKind kind,
                                        const std::vector<int>& probe_keys,
                                        const std::vector<int>& build_keys) {
  std::vector<std::string> build_key(build.num_rows());
  for (int64_t b = 0; b < build.num_rows(); ++b) {
    build_key[b] = RenderKey(build, build_keys, b);
  }
  std::string pad;
  for (int c = 0; c < build.num_columns(); ++c) {
    pad += Render(PadValue(build.schema().field(c).type)) + "|";
  }
  std::vector<std::string> out;
  for (int64_t p = 0; p < probe.num_rows(); ++p) {
    const std::string key = RenderKey(probe, probe_keys, p);
    const std::string left = RenderRow(probe, p);
    std::vector<int64_t> matches;
    for (int64_t b = build.num_rows() - 1; b >= 0; --b) {
      if (build_key[b] == key) matches.push_back(b);
    }
    switch (kind) {
      case JoinKind::kSemi:
        if (!matches.empty()) out.push_back(left);
        break;
      case JoinKind::kAnti:
        if (matches.empty()) out.push_back(left);
        break;
      case JoinKind::kLeftOuter:
        if (matches.empty()) out.push_back(left + pad);
        [[fallthrough]];
      case JoinKind::kInner:
      case JoinKind::kSingle:
        for (int64_t b : matches) out.push_back(left + RenderRow(build, b));
        break;
    }
  }
  return out;
}

/// Runs HashJoinOp over sliced sources and renders its output in order.
std::vector<std::string> RunHashJoin(const TablePtr& probe,
                                     const TablePtr& build, JoinKind kind,
                                     const std::vector<std::string>& lkeys,
                                     const std::vector<std::string>& rkeys) {
  std::vector<Field> fields = probe->schema().fields();
  if (kind == JoinKind::kInner || kind == JoinKind::kLeftOuter ||
      kind == JoinKind::kSingle) {
    for (const Field& f : build->schema().fields()) fields.push_back(f);
  }
  HashJoinOp join(Schema(fields),
                  std::make_unique<SlicedSourceOp>(
                      probe, std::vector<int64_t>{700, 1, 1024, 333}),
                  std::make_unique<SlicedSourceOp>(
                      build, std::vector<int64_t>{1024, 5, 999}),
                  kind, lkeys, rkeys);
  TablePtr result = MakeTable(Schema(fields));
  join.Open();
  Batch b;
  while (join.Next(&b)) result->AppendBatch(b);
  join.Close();
  std::vector<std::string> rows;
  for (int64_t r = 0; r < result->num_rows(); ++r) {
    rows.push_back(RenderRow(*result, r));
  }
  return rows;
}

/// A key column's value for draw `v` in [0, domain).
Datum KeyValue(TypeId type, uint64_t v) {
  switch (type) {
    case TypeId::kBool:
      return v % 2 == 1;
    case TypeId::kInt32:
    case TypeId::kDate:
      return static_cast<int32_t>(v) - 500;
    case TypeId::kInt64:
      return static_cast<int64_t>(v) * 1000003 - (int64_t{1} << 40);
    case TypeId::kDouble:
      return static_cast<double>(v) * 0.5 - 100.0;  // never -0.0
    case TypeId::kString:
      // Some keys outgrow the short-string buffer.
      return (v % 3 == 0 ? std::string("a-long-string-key-") : std::string("s")) +
             std::to_string(v);
  }
  return Datum{};
}

/// Table of `rows` rows: the key columns, drawn from [0, domain) (or a
/// permutation of [0, rows) when `unique`), then a row-id payload.
TablePtr KeyTable(const std::string& prefix, const std::vector<TypeId>& types,
                  int64_t rows, uint64_t domain, bool unique, Rng* rng) {
  std::vector<Field> fields;
  for (size_t k = 0; k < types.size(); ++k) {
    fields.push_back({prefix + "k" + std::to_string(k), types[k]});
  }
  fields.push_back({prefix + "id", TypeId::kInt64});
  TablePtr t = MakeTable(Schema(fields));
  std::vector<uint64_t> draws(rows);
  for (int64_t r = 0; r < rows; ++r) {
    draws[r] = unique ? static_cast<uint64_t>(r) : rng->Next() % domain;
  }
  if (unique) {
    for (int64_t r = rows - 1; r > 0; --r) {
      std::swap(draws[r], draws[rng->Next() % static_cast<uint64_t>(r + 1)]);
    }
  }
  for (int64_t r = 0; r < rows; ++r) {
    std::vector<Datum> row;
    // Multi-column keys: every column derives from the one draw, and the
    // first column alone is ambiguous (it sees half the draw).
    for (size_t k = 0; k < types.size(); ++k) {
      const bool halved = k == 0 && types.size() > 1;
      row.push_back(KeyValue(types[k], halved ? draws[r] / 2 : draws[r]));
    }
    row.push_back(int64_t{r});
    t->AppendRow(row);
  }
  return t;
}

void ExpectJoinMatchesReference(const std::vector<TypeId>& types,
                                int64_t build_rows, int64_t probe_rows,
                                JoinKind kind, uint64_t seed) {
  Rng rng(seed);
  const bool unique = kind == JoinKind::kSingle;
  // Duplicates: about three build rows per key (bool keys: all of them).
  const uint64_t domain =
      std::max<uint64_t>(1, static_cast<uint64_t>(build_rows) / 3);
  TablePtr build = KeyTable("b", types, build_rows, domain, unique, &rng);
  // Probe keys overshoot the build domain, so some rows miss.
  const uint64_t probe_domain =
      unique ? static_cast<uint64_t>(build_rows) + 8 : domain + domain / 4 + 2;
  TablePtr probe = KeyTable("p", types, probe_rows, probe_domain, false, &rng);
  std::vector<std::string> lkeys, rkeys;
  std::vector<int> key_idx;
  for (size_t k = 0; k < types.size(); ++k) {
    lkeys.push_back("pk" + std::to_string(k));
    rkeys.push_back("bk" + std::to_string(k));
    key_idx.push_back(static_cast<int>(k));
  }
  std::vector<std::string> expected =
      NestedLoopJoin(*probe, *build, kind, key_idx, key_idx);
  std::vector<std::string> got = RunHashJoin(probe, build, kind, lkeys, rkeys);
  ASSERT_EQ(got.size(), expected.size())
      << JoinKindName(kind) << " build=" << build_rows;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], expected[i])
        << JoinKindName(kind) << " build=" << build_rows << " row " << i;
  }
}

const JoinKind kAllJoinKinds[] = {JoinKind::kInner, JoinKind::kLeftOuter,
                                  JoinKind::kSemi, JoinKind::kAnti,
                                  JoinKind::kSingle};

TEST(HashJoinReferenceTest, EveryKindAndKeyTypeAroundBatchBoundaries) {
  const std::vector<std::vector<TypeId>> key_sets = {
      {TypeId::kInt32},  {TypeId::kInt64},
      {TypeId::kDouble}, {TypeId::kDate},
      {TypeId::kString}, {TypeId::kInt32, TypeId::kString},
      {TypeId::kBool, TypeId::kInt64}};
  uint64_t seed = 1;
  for (const auto& types : key_sets) {
    for (JoinKind kind : kAllJoinKinds) {
      for (int64_t build_rows : {0, 1, 1023, 1024, 1025}) {
        ExpectJoinMatchesReference(types, build_rows, 1500, kind, ++seed);
      }
      ExpectJoinMatchesReference(types, 1025, 0, kind, ++seed);
    }
  }
}

TEST(HashJoinReferenceTest, BoolKeysWithSmallBuildSides) {
  // Two key values only, so every probe row matches half the build side.
  uint64_t seed = 100;
  for (JoinKind kind : {JoinKind::kInner, JoinKind::kLeftOuter,
                        JoinKind::kSemi, JoinKind::kAnti}) {
    for (int64_t build_rows : {0, 1, 2, 64}) {
      ExpectJoinMatchesReference({TypeId::kBool}, build_rows, 1100, kind,
                                 ++seed);
    }
  }
  // kSingle needs unique build keys: at most one row per value.
  ExpectJoinMatchesReference({TypeId::kBool}, 2, 1100, JoinKind::kSingle, 200);
}

TEST(HashJoinReferenceTest, LargeBuildSides) {
  uint64_t seed = 300;
  for (const std::vector<TypeId>& types :
       {std::vector<TypeId>{TypeId::kInt64},
        std::vector<TypeId>{TypeId::kString}}) {
    for (JoinKind kind : kAllJoinKinds) {
      ExpectJoinMatchesReference(types, 70001, 200, kind, ++seed);
    }
  }
}

TEST(HashJoinReferenceDeathTest, SingleJoinAbortsOnDuplicateMatch) {
  Rng rng(7);
  TablePtr build = KeyTable("b", {TypeId::kInt64}, 2, 1, false, &rng);
  TablePtr probe = KeyTable("p", {TypeId::kInt64}, 1, 1, false, &rng);
  EXPECT_DEATH(
      RunHashJoin(probe, build, JoinKind::kSingle, {"pk0"}, {"bk0"}),
      "kSingle join found multiple matches");
}

TEST_F(OperatorTest, ScanProgressAdvances) {
  TablePtr t = catalog_.GetTable("t");
  ScanOp scan(Schema({{"k", TypeId::kInt32}}), t, {0});
  scan.Open();
  EXPECT_DOUBLE_EQ(scan.Progress(), 0.0);
  Batch b;
  ASSERT_TRUE(scan.Next(&b));
  EXPECT_GT(scan.Progress(), 0.0);
  EXPECT_LT(scan.Progress(), 1.0);
  while (scan.Next(&b)) {
  }
  EXPECT_DOUBLE_EQ(scan.Progress(), 1.0);
}

}  // namespace
}  // namespace recycledb
