// Unit tests for src/plan: binding and its schema rule, parameter keys
// (named and positional), tree keys, cloning.
#include <gtest/gtest.h>

#include "api/validate.h"
#include "plan/plan.h"
#include "storage/wire_format.h"

namespace recycledb {
namespace {

class PlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema s({{"k", TypeId::kInt32},
              {"v", TypeId::kDouble},
              {"s", TypeId::kString},
              {"d", TypeId::kDate}});
    TablePtr t = MakeTable(s);
    t->AppendRow({int32_t{1}, 1.0, std::string("a"), MakeDate(1995, 1, 1)});
    t->AppendRow({int32_t{2}, 2.0, std::string("b"), MakeDate(1996, 1, 1)});
    ASSERT_TRUE(catalog_.RegisterTable("t", t).ok());
    Schema s2({{"k2", TypeId::kInt32}, {"w", TypeId::kInt64}});
    TablePtr t2 = MakeTable(s2);
    t2->AppendRow({int32_t{1}, int64_t{10}});
    ASSERT_TRUE(catalog_.RegisterTable("t2", t2).ok());
  }
  Catalog catalog_;
};

TEST_F(PlanTest, ScanBindsListedColumns) {
  PlanPtr p = PlanNode::Scan("t", {"v", "k"});
  p->Bind(catalog_);
  EXPECT_EQ(p->output_schema().Names(), (std::vector<std::string>{"v", "k"}));
  EXPECT_EQ(p->output_schema().field(0).type, TypeId::kDouble);
  EXPECT_EQ(p->base_tables(), (std::set<std::string>{"t"}));
}

TEST_F(PlanTest, SelectPreservesSchema) {
  PlanPtr p = PlanNode::Select(
      PlanNode::Scan("t", {"k", "v"}),
      Expr::Gt(Expr::Column("k"), Expr::Literal(int64_t{0})));
  p->Bind(catalog_);
  EXPECT_EQ(p->output_schema().Names(), (std::vector<std::string>{"k", "v"}));
}

TEST_F(PlanTest, ProjectAssignsNewNames) {
  PlanPtr p = PlanNode::Project(
      PlanNode::Scan("t", {"k", "v"}),
      {{Expr::Arith(ArithOp::kMul, Expr::Column("v"), Expr::Literal(2.0)),
        "v2"}});
  p->Bind(catalog_);
  EXPECT_EQ(p->output_schema().Names(), (std::vector<std::string>{"v2"}));
}

TEST_F(PlanTest, AggregateSchemaGroupsThenAggs) {
  PlanPtr p = PlanNode::Aggregate(
      PlanNode::Scan("t", {"k", "v"}), {"k"},
      {{AggFunc::kSum, Expr::Column("v"), "sv"},
       {AggFunc::kCount, Expr::Literal(int64_t{1}), "c"}});
  p->Bind(catalog_);
  EXPECT_EQ(p->output_schema().Names(),
            (std::vector<std::string>{"k", "sv", "c"}));
  EXPECT_EQ(p->output_schema().field(1).type, TypeId::kDouble);  // sum(double)
  EXPECT_EQ(p->output_schema().field(2).type, TypeId::kInt64);
}

TEST_F(PlanTest, JoinSchemaConcatsAndSemiKeepsLeft) {
  PlanPtr inner = PlanNode::HashJoin(PlanNode::Scan("t", {"k", "v"}),
                                     PlanNode::Scan("t2", {"k2", "w"}),
                                     JoinKind::kInner, {"k"}, {"k2"});
  inner->Bind(catalog_);
  EXPECT_EQ(inner->output_schema().Names(),
            (std::vector<std::string>{"k", "v", "k2", "w"}));
  PlanPtr semi = PlanNode::HashJoin(PlanNode::Scan("t", {"k", "v"}),
                                    PlanNode::Scan("t2", {"k2", "w"}),
                                    JoinKind::kSemi, {"k"}, {"k2"});
  semi->Bind(catalog_);
  EXPECT_EQ(semi->output_schema().Names(),
            (std::vector<std::string>{"k", "v"}));
  EXPECT_EQ(semi->base_tables(), (std::set<std::string>{"t", "t2"}));
}

std::string ParamKey(const PlanPtr& p, bool positional) {
  std::string out;
  p->AppendParamKey(&out, positional);
  return out;
}

TEST_F(PlanTest, ParamKeyExcludesOutputNames) {
  // Two projects computing the same expression under different out names
  // share a parameter key (a parent reads them by ordinal).
  PlanPtr a = PlanNode::Project(PlanNode::Scan("t", {"v"}),
                                {{Expr::Column("v"), "x"}});
  PlanPtr b = PlanNode::Project(PlanNode::Scan("t", {"v"}),
                                {{Expr::Column("v"), "y"}});
  EXPECT_EQ(ParamKey(a, false), ParamKey(b, false));
}

TEST_F(PlanTest, PositionalKeyReadsChildOrdinals) {
  auto select_v = [&](std::vector<std::string> columns) {
    PlanPtr p = PlanNode::Select(
        PlanNode::Scan("t", std::move(columns)),
        Expr::Gt(Expr::Column("v"), Expr::Literal(1.0)));
    p->Bind(catalog_);
    return p;
  };
  PlanPtr kv = select_v({"k", "v"});
  PlanPtr vk = select_v({"v", "k"});
  // Same names, different ordinals: different positional parameters.
  EXPECT_EQ(ParamKey(kv, false), ParamKey(vk, false));
  EXPECT_NE(ParamKey(kv, true), ParamKey(vk, true));
  // A leaf reads no child: its positional key is its named one.
  EXPECT_EQ(ParamKey(kv->child(), true), ParamKey(kv->child(), false));
}

TEST_F(PlanTest, PositionalKeyIgnoresNamesAChildIntroduces) {
  auto top = [&](const std::string& g, const std::string& x) {
    PlanPtr p = PlanNode::TopN(
        PlanNode::Aggregate(
            PlanNode::Project(PlanNode::Scan("t", {"k", "v"}),
                              {{Expr::Column("k"), g}, {Expr::Column("v"), x}}),
            {g}, {{AggFunc::kSum, Expr::Column(x), "sx"}}),
        {{"sx", false}}, 5);
    p->Bind(catalog_);
    return p;
  };
  PlanPtr a = top("g", "x");
  PlanPtr b = top("a", "b");
  EXPECT_NE(ParamKey(a->child(), false), ParamKey(b->child(), false));
  EXPECT_EQ(ParamKey(a->child(), true), ParamKey(b->child(), true));
  EXPECT_EQ(ParamKey(a, true), ParamKey(b, true));
}

TEST_F(PlanTest, JoinKeysIndexTheirOwnChild) {
  PlanPtr join = PlanNode::HashJoin(PlanNode::Scan("t", {"k", "v"}),
                                    PlanNode::Scan("t2", {"w", "k2"}),
                                    JoinKind::kInner, {"k"}, {"k2"});
  join->Bind(catalog_);
  std::string want(1, static_cast<char>(JoinKind::kInner));
  wire::PutU32(&want, 1);
  wire::PutU32(&want, 0);  // k: ordinal 0 of the left child
  wire::PutU32(&want, 1);
  wire::PutU32(&want, 1);  // k2: ordinal 1 of the right child
  EXPECT_EQ(ParamKey(join, true), want);
}

TEST_F(PlanTest, PositionalKeyDistinguishesLiteralsButNotColumnNames) {
  auto select_gt = [&](const std::string& table, const std::string& column,
                       int64_t lit) {
    PlanPtr p = PlanNode::Select(
        PlanNode::Scan(table, {column}),
        Expr::Gt(Expr::Column(column), Expr::Literal(lit)));
    p->Bind(catalog_);
    return p;
  };
  PlanPtr a = select_gt("t", "k", 1);
  PlanPtr b = select_gt("t2", "k2", 1);
  PlanPtr c = select_gt("t", "k", 2);
  EXPECT_NE(ParamKey(a, false), ParamKey(b, false));
  EXPECT_EQ(ParamKey(a, true), ParamKey(b, true));  // name-space independent
  EXPECT_NE(ParamKey(a, true), ParamKey(c, true));  // literal-sensitive
}

TEST_F(PlanTest, TreeKeyDistinguishesSubtrees) {
  auto mk = [&](int64_t lit) {
    return PlanNode::Select(
        PlanNode::Scan("t", {"k"}),
        Expr::Gt(Expr::Column("k"), Expr::Literal(lit)));
  };
  EXPECT_EQ(mk(1)->TreeKey(), mk(1)->TreeKey());
  EXPECT_NE(mk(1)->TreeKey(), mk(2)->TreeKey());
}

TEST_F(PlanTest, CloneAndWithChildren) {
  PlanPtr scan = PlanNode::Scan("t", {"k"});
  PlanPtr sel = PlanNode::Select(
      scan, Expr::Gt(Expr::Column("k"), Expr::Literal(int64_t{0})));
  sel->Bind(catalog_);
  PlanPtr clone = sel->CloneShallow();
  EXPECT_FALSE(clone->bound());
  EXPECT_EQ(clone->child(0), scan);  // children shared
  PlanPtr other = PlanNode::Scan("t", {"k"});
  PlanPtr swapped = sel->WithChildren({other});
  EXPECT_EQ(swapped->child(0), other);
  EXPECT_EQ(sel->child(0), scan);  // original untouched
}

TEST_F(PlanTest, PositionalParams) {
  PlanPtr agg = PlanNode::Aggregate(
      PlanNode::Scan("t", {"v", "k"}), {"k"},
      {{AggFunc::kSum, Expr::Column("v"), "sv"}});
  agg->Bind(catalog_);
  PlanPtr positional = agg->PositionalParams();
  EXPECT_EQ(positional->num_children(), 0);
  EXPECT_EQ(positional->group_by()[0], "#1");
  std::set<std::string> cols;
  positional->aggregates()[0].arg->CollectColumns(&cols);
  EXPECT_EQ(cols, (std::set<std::string>{"#0"}));
}

TEST_F(PlanTest, UnionRequiresCompatibleChildren) {
  PlanPtr u = PlanNode::UnionAll(
      {PlanNode::Scan("t", {"k"}), PlanNode::Scan("t", {"k"})});
  u->Bind(catalog_);
  EXPECT_EQ(u->output_schema().num_fields(), 1);
}

TEST_F(PlanTest, CachedScanBindsRenamedSchema) {
  TablePtr cached = MakeTable(Schema({{"x#3", TypeId::kInt32}}));
  cached->AppendRow({int32_t{5}});
  PlanPtr p = PlanNode::CachedScan(cached, {"k"});
  p->Bind(catalog_);
  EXPECT_EQ(p->output_schema().Names(), (std::vector<std::string>{"k"}));
  EXPECT_TRUE(p->base_tables().empty());
}

TEST_F(PlanTest, BindIsIdempotent) {
  PlanPtr p = PlanNode::Scan("t", {"k"});
  p->Bind(catalog_);
  p->Bind(catalog_);
  EXPECT_TRUE(p->bound());
}

// Plans that break the schema rule abort in Bind with the message
// ValidatePlan returns for them.
struct RuleCase {
  const char* name;
  PlanPtr (*build)();
  const char* message;
};

class BindRuleDeathTest : public PlanTest,
                          public ::testing::WithParamInterface<RuleCase> {};

TEST_P(BindRuleDeathTest, BindAbortsWithTheValidatorsMessage) {
  PlanPtr plan = GetParam().build();
  Status st = ValidatePlan(plan, catalog_, nullptr);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find(GetParam().message), std::string::npos)
      << st.message();
  EXPECT_DEATH(plan->Bind(catalog_), GetParam().message);
}

INSTANTIATE_TEST_SUITE_P(
    RejectedPlans, BindRuleDeathTest,
    ::testing::Values(
        RuleCase{"StringComparedWithInt64",
                 [] {
                   return PlanNode::Select(
                       PlanNode::Scan("t", {"s"}),
                       Expr::Eq(Expr::Column("s"), Expr::Literal(int64_t{1})));
                 },
                 "cannot compare STRING to INT64"},
        RuleCase{"LikeOnANumber",
                 [] {
                   return PlanNode::Select(
                       PlanNode::Scan("t", {"k"}),
                       Expr::Like(LikeKind::kContains, Expr::Column("k"), "1"));
                 },
                 "LIKE operand must be a string"},
        RuleCase{"JoinKeysOfDifferentTypes",
                 [] {
                   return PlanNode::HashJoin(
                       PlanNode::Scan("t", {"k"}), PlanNode::Scan("t2", {"w"}),
                       JoinKind::kInner, {"k"}, {"w"});
                 },
                 "join key type mismatch: k is INT32 but w is INT64"}),
    [](const ::testing::TestParamInfo<RuleCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace recycledb
