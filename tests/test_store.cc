// Unit tests for the store operator: materialize mode, speculative
// buffering with accept/abandon, buffer caps, pass-through transparency,
// and a delta stitch's store that extends its cached prefix.
#include <gtest/gtest.h>

#include "exec/executor.h"
#include "exec/operators.h"
#include "exec/store.h"

namespace recycledb {
namespace {

/// Opens, drains and closes `op`; returns the rows it emitted.
int64_t Drain(Operator* op) {
  op->Open();
  Batch b;
  int64_t rows = 0;
  while (op->NextTimed(&b)) rows += b.num_rows;
  op->Close();
  return rows;
}

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema s({{"k", TypeId::kInt32}});
    TablePtr t = MakeTable(s);
    for (int i = 0; i < 10000; ++i) t->AppendRow({int32_t{i}});
    ASSERT_TRUE(catalog_.RegisterTable("t", t).ok());
  }

  OperatorPtr MakeScan() {
    TablePtr t = catalog_.GetTable("t");
    return std::make_unique<ScanOp>(Schema({{"k", TypeId::kInt32}}), t,
                                    std::vector<int>{0});
  }

  Catalog catalog_;
};

TEST_F(StoreTest, MaterializeModePassesThroughAndCaptures) {
  TablePtr captured;
  double cost = -1;
  StoreRequest req;
  req.mode = StoreMode::kMaterialize;
  req.on_complete = [&](void*, TablePtr result, double ms) {
    captured = result;
    cost = ms;
  };
  StoreOp store(MakeScan(), req);
  EXPECT_EQ(Drain(&store), 10000);  // flow uninterrupted
  ASSERT_NE(captured, nullptr);
  EXPECT_EQ(captured->num_rows(), 10000);
  EXPECT_GE(cost, 0.0);
  EXPECT_TRUE(store.materializing());
}

TEST_F(StoreTest, SpeculativeAcceptMaterializes) {
  TablePtr captured;
  int decisions = 0;
  StoreRequest req;
  req.mode = StoreMode::kSpeculative;
  req.keep_going = [&](void*, const SpeculationEstimate& est) {
    ++decisions;
    EXPECT_GE(est.progress, 0.0);
    EXPECT_LE(est.progress, 1.0);
    return true;  // always beneficial
  };
  req.on_complete = [&](void*, TablePtr result, double) { captured = result; };
  StoreOp store(MakeScan(), req);
  EXPECT_EQ(Drain(&store), 10000);
  ASSERT_NE(captured, nullptr);
  EXPECT_EQ(captured->num_rows(), 10000);
  EXPECT_GT(decisions, 1);  // estimates sharpened over multiple batches
}

TEST_F(StoreTest, SpeculativeAbandonStillStreamsAllTuples) {
  TablePtr captured = MakeTable(Schema(std::vector<Field>{}));  // sentinel
  StoreRequest req;
  req.mode = StoreMode::kSpeculative;
  req.keep_going = [](void*, const SpeculationEstimate&) { return false; };
  req.on_complete = [&](void*, TablePtr result, double) { captured = result; };
  StoreOp store(MakeScan(), req);
  EXPECT_EQ(Drain(&store), 10000);  // the query still sees every tuple
  EXPECT_EQ(captured, nullptr);     // nothing materialized
  EXPECT_FALSE(store.materializing());
}

TEST_F(StoreTest, SpeculativeLateAbandonReleasesBuffer) {
  // Reject only once the estimates have sharpened past 30% progress:
  // the withheld prefix must still reach the parent.
  TablePtr captured = MakeTable(Schema(std::vector<Field>{}));
  StoreRequest req;
  req.mode = StoreMode::kSpeculative;
  req.keep_going = [](void*, const SpeculationEstimate& est) {
    return est.progress < 0.3;
  };
  req.on_complete = [&](void*, TablePtr result, double) { captured = result; };
  StoreOp store(MakeScan(), req);
  EXPECT_EQ(Drain(&store), 10000);
  EXPECT_EQ(captured, nullptr);
}

TEST_F(StoreTest, BufferCapForcesAbandon) {
  TablePtr captured = MakeTable(Schema(std::vector<Field>{}));
  StoreRequest req;
  req.mode = StoreMode::kSpeculative;
  req.buffer_cap_bytes = 1024;  // 10k int32 rows exceed this immediately
  req.keep_going = [](void*, const SpeculationEstimate&) { return true; };
  req.on_complete = [&](void*, TablePtr result, double) { captured = result; };
  StoreOp store(MakeScan(), req);
  EXPECT_EQ(Drain(&store), 10000);
  EXPECT_EQ(captured, nullptr);
}

TEST_F(StoreTest, ExecutorInjectsStoreViaRequestMap) {
  PlanPtr plan = PlanNode::Scan("t", {"k"});
  plan->Bind(catalog_);
  TablePtr captured;
  std::map<const PlanNode*, StoreRequest> stores;
  StoreRequest req;
  req.mode = StoreMode::kMaterialize;
  req.on_complete = [&](void*, TablePtr result, double) { captured = result; };
  stores[plan.get()] = req;
  Executor exec(&catalog_);
  ExecResult r = exec.Run(plan, &stores);
  EXPECT_EQ(r.table->num_rows(), 10000);
  ASSERT_NE(captured, nullptr);
  EXPECT_EQ(captured->num_rows(), 10000);
}

TEST_F(StoreTest, EmptyInputMaterializesEmptyResult) {
  Schema s({{"x", TypeId::kInt32}});
  TablePtr empty = MakeTable(s);
  ASSERT_TRUE(catalog_.RegisterTable("empty", empty).ok());
  auto scan = std::make_unique<ScanOp>(s, empty, std::vector<int>{0});
  TablePtr captured;
  StoreRequest req;
  req.mode = StoreMode::kSpeculative;
  req.keep_going = [](void*, const SpeculationEstimate&) { return true; };
  req.on_complete = [&](void*, TablePtr result, double) { captured = result; };
  StoreOp store(std::move(scan), req);
  EXPECT_EQ(Drain(&store), 0);
  ASSERT_NE(captured, nullptr);
  EXPECT_EQ(captured->num_rows(), 0);
}

// ---------------------------------------------------------------------------
// A store with a prefix (delta stitch)
// ---------------------------------------------------------------------------

/// The delta-stitch shape: UnionAll(CachedScan(prefix), scan of a tail),
/// under a store configured with that prefix. The prefix carries the
/// names of the statement that produced it ("pk", "pv"); the store's
/// output uses the query's.
class PrefixStoreTest : public ::testing::Test {
 protected:
  static Schema QuerySchema() {
    return Schema({{"k", TypeId::kInt64}, {"v", TypeId::kDouble}});
  }

  /// Rows [begin, end) of a series whose values fall and rise, so blocks
  /// differ in min, max and sortedness.
  static TablePtr Rows(int64_t begin, int64_t end, Schema schema) {
    TablePtr t = MakeTable(std::move(schema));
    for (int64_t i = begin; i < end; ++i) {
      t->AppendRow({i, static_cast<double>((i * 37) % 1000)});
    }
    return t;
  }

  static TablePtr Prefix(int64_t rows) {
    return Rows(0, rows,
                Schema({{"pk", TypeId::kInt64}, {"pv", TypeId::kDouble}}));
  }

  static OperatorPtr ScanAll(const TablePtr& t) {
    return std::make_unique<ScanOp>(QuerySchema(), t, std::vector<int>{0, 1});
  }

  static OperatorPtr Stitch(const TablePtr& prefix, const TablePtr& tail) {
    std::vector<OperatorPtr> kids;
    kids.push_back(ScanAll(prefix));
    kids.push_back(ScanAll(tail));
    return std::make_unique<UnionAllOp>(QuerySchema(), std::move(kids));
  }

  /// Same rows, values and zone maps as `want`.
  static void ExpectSameTable(const Table& got, const Table& want) {
    EXPECT_EQ(got.schema(), want.schema());
    ASSERT_EQ(got.num_rows(), want.num_rows());
    for (int c = 0; c < want.num_columns(); ++c) {
      for (int64_t r = 0; r < want.num_rows(); ++r) {
        ASSERT_EQ(got.Get(r, c), want.Get(r, c)) << "row " << r;
      }
      const ZoneMap& gz = got.zone_map(c);
      const ZoneMap& wz = want.zone_map(c);
      EXPECT_EQ(gz.rows_covered(), wz.rows_covered());
      EXPECT_EQ(gz.sorted(), wz.sorted());
      ASSERT_EQ(gz.num_blocks(), wz.num_blocks());
      for (int64_t b = 0; b < wz.num_blocks(); ++b) {
        EXPECT_EQ(gz.block(b).min, wz.block(b).min) << "block " << b;
        EXPECT_EQ(gz.block(b).max, wz.block(b).max) << "block " << b;
        EXPECT_EQ(gz.block(b).sorted, wz.block(b).sorted) << "block " << b;
        EXPECT_EQ(gz.block(b).null_free, wz.block(b).null_free);
      }
    }
  }

  static StoreRequest Request(StoreMode mode, TablePtr prefix,
                              TablePtr* captured) {
    StoreRequest req;
    req.mode = mode;
    req.prefix = std::move(prefix);
    req.on_complete = [captured](void*, TablePtr result, double) {
      *captured = result;
    };
    return req;
  }
};

TEST_F(PrefixStoreTest, PrefixThenTailBitIdenticalWithFreshZoneMaps) {
  // 2500 prefix rows end mid-block, so the tail re-tightens that block.
  TablePtr prefix = Prefix(2500);
  TablePtr tail = Rows(2500, 3200, QuerySchema());
  TablePtr captured;
  StoreOp store(Stitch(prefix, tail),
                Request(StoreMode::kMaterialize, prefix, &captured));
  EXPECT_EQ(Drain(&store), 3200);  // every row still flows downstream
  ASSERT_NE(captured, nullptr);
  EXPECT_EQ(store.result(), captured);
  ExpectSameTable(*captured, *Rows(0, 3200, QuerySchema()));
  // One copy at the exact size: no slack from capacity doubling.
  EXPECT_EQ(captured->ByteSize(), 3200 * (8 + 8));
  // The prefix is read, never written.
  EXPECT_EQ(prefix->num_rows(), 2500);
  EXPECT_EQ(prefix->zone_map(0).rows_covered(), 2500);
}

TEST_F(PrefixStoreTest, EmptyTailReturnsThePrefix) {
  TablePtr prefix = Prefix(3000);
  TablePtr captured;
  StoreOp store(Stitch(prefix, MakeTable(QuerySchema())),
                Request(StoreMode::kMaterialize, prefix, &captured));
  EXPECT_EQ(Drain(&store), 3000);
  ASSERT_NE(captured, nullptr);
  ExpectSameTable(*captured, *Rows(0, 3000, QuerySchema()));
}

TEST_F(PrefixStoreTest, SpeculativeRejectPassesEveryRowAndOffersNothing) {
  TablePtr prefix = Prefix(2500);
  TablePtr tail = Rows(2500, 3200, QuerySchema());
  TablePtr captured = MakeTable(Schema(std::vector<Field>{}));  // sentinel
  StoreRequest req = Request(StoreMode::kSpeculative, prefix, &captured);
  req.keep_going = [](void*, const SpeculationEstimate& est) {
    return est.progress < 0.3;  // rejects once part of the prefix is seen
  };
  StoreOp store(Stitch(prefix, tail), req);
  EXPECT_EQ(Drain(&store), 3200);
  EXPECT_EQ(captured, nullptr);
  EXPECT_FALSE(store.materializing());
  EXPECT_EQ(store.result(), nullptr);
}

TEST_F(PrefixStoreTest, SpeculativeAcceptExtendsThePrefix) {
  TablePtr prefix = Prefix(2500);
  TablePtr tail = Rows(2500, 3200, QuerySchema());
  TablePtr captured;
  StoreRequest req = Request(StoreMode::kSpeculative, prefix, &captured);
  req.keep_going = [](void*, const SpeculationEstimate&) { return true; };
  StoreOp store(Stitch(prefix, tail), req);
  EXPECT_EQ(Drain(&store), 3200);
  ASSERT_NE(captured, nullptr);
  ExpectSameTable(*captured, *Rows(0, 3200, QuerySchema()));
}

using PrefixStoreDeathTest = PrefixStoreTest;

TEST_F(PrefixStoreDeathTest, InputThatIsNotAViewOfThePrefixDies) {
  // Equal values in another table are not the prefix: the store must not
  // skip rows it cannot prove it already holds.
  TablePtr prefix = Prefix(2500);
  TablePtr lookalike = Rows(0, 3200, QuerySchema());
  TablePtr captured;
  EXPECT_DEATH(
      {
        StoreOp store(ScanAll(lookalike),
                      Request(StoreMode::kMaterialize, prefix, &captured));
        Drain(&store);
      },
      "not a view of its prefix");
}

}  // namespace
}  // namespace recycledb
