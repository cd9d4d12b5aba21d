// Tests for the single-core speed pack: incremental zone-map
// maintenance, pruned-vs-unpruned bit-equality across all column types,
// the column codecs (round trips, corruption handling, row counts the
// payload cannot hold), the compressed spill format (files of any other
// version are misses; a filtered read equals a full read, then the
// filter), the calibrated cost model's determinism, and a concurrent
// pruned-query stress against a compressing cold tier.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <random>
#include <shared_mutex>
#include <thread>

#include "common/string_util.h"
#include "exec/cost_model.h"
#include "recycledb/recycledb.h"
#include "recycler/recycler.h"
#include "storage/compression.h"
#include "storage/spill_file.h"
#include "test_util.h"

namespace recycledb {
namespace {

namespace fs = std::filesystem;
using recycledb::testing::RowMultiset;
using recycledb::testing::SpillFiles;
using recycledb::testing::TempSpillDir;

RangeBound Bound(Datum v, bool inclusive) {
  RangeBound b;
  b.unbounded = false;
  b.value = std::move(v);
  b.inclusive = inclusive;
  return b;
}

ColumnInterval Between(Datum lo, bool lo_inc, Datum hi, bool hi_inc) {
  ColumnInterval r;
  r.lo = Bound(std::move(lo), lo_inc);
  r.hi = Bound(std::move(hi), hi_inc);
  return r;
}

ColumnInterval AtLeast(Datum lo) {
  ColumnInterval r;
  r.lo = Bound(std::move(lo), true);
  return r;
}

ColumnInterval Below(Datum hi) {
  ColumnInterval r;
  r.hi = Bound(std::move(hi), false);
  return r;
}

template <typename T>
ColumnPtr TypedColumn(TypeId type, std::vector<T> values) {
  ColumnPtr c = MakeColumn(type);
  c->Data<T>() = std::move(values);
  return c;
}

/// Bit-level equality (doubles compared by representation, so NaN and
/// -0.0 survive the comparison).
bool ColumnsBitEqual(const ColumnVector& a, const ColumnVector& b) {
  if (a.type() != b.type() || a.size() != b.size()) return false;
  const size_t n = static_cast<size_t>(a.size());
  if (n == 0) return true;  // memcmp must not see an empty vector's null
  switch (a.type()) {
    case TypeId::kBool:
      return std::memcmp(a.Raw<uint8_t>(), b.Raw<uint8_t>(), n) == 0;
    case TypeId::kInt32:
    case TypeId::kDate:
      return std::memcmp(a.Raw<int32_t>(), b.Raw<int32_t>(),
                         n * sizeof(int32_t)) == 0;
    case TypeId::kInt64:
      return std::memcmp(a.Raw<int64_t>(), b.Raw<int64_t>(),
                         n * sizeof(int64_t)) == 0;
    case TypeId::kDouble:
      return std::memcmp(a.Raw<double>(), b.Raw<double>(),
                         n * sizeof(double)) == 0;
    case TypeId::kString: {
      const std::string* x = a.Raw<std::string>();
      const std::string* y = b.Raw<std::string>();
      for (size_t i = 0; i < n; ++i) {
        if (x[i] != y[i]) return false;
      }
      return true;
    }
  }
  return false;
}

/// Reference range check with the same semantics ReadSpillTableFiltered
/// promises (independent open/closed ends, unbounded = +-inf).
bool InRangeRef(const Datum& v, const ColumnInterval& r) {
  if (!r.lo.unbounded) {
    int c = DatumCompare(v, r.lo.value);
    if (c < 0 || (c == 0 && !r.lo.inclusive)) return false;
  }
  if (!r.hi.unbounded) {
    int c = DatumCompare(v, r.hi.value);
    if (c > 0 || (c == 0 && !r.hi.inclusive)) return false;
  }
  return true;
}

std::vector<int32_t> ReferenceSelect(const ColumnVector& col,
                                     const ColumnInterval& range) {
  std::vector<int32_t> sel;
  for (int64_t i = 0; i < col.size(); ++i) {
    if (InRangeRef(col.GetDatum(i), range)) {
      sel.push_back(static_cast<int32_t>(i));
    }
  }
  return sel;
}

// ---------------------------------------------------------------------------
// Zone-map maintenance
// ---------------------------------------------------------------------------

TEST(ZoneMap, IncrementalMaintenanceUnderAppendRow) {
  Schema s({{"k", TypeId::kInt32}});
  TablePtr t = MakeTable(s);
  for (int i = 0; i < 3000; ++i) t->AppendRow({static_cast<int32_t>(i)});

  const ZoneMap& zm = t->zone_map(0);
  EXPECT_EQ(zm.type(), TypeId::kInt32);
  EXPECT_EQ(zm.rows_covered(), 3000);
  EXPECT_EQ(zm.num_blocks(), 3);
  EXPECT_TRUE(zm.sorted());
  EXPECT_EQ(std::get<int32_t>(zm.block(0).min), 0);
  EXPECT_EQ(std::get<int32_t>(zm.block(0).max), 1023);
  EXPECT_EQ(std::get<int32_t>(zm.block(1).min), 1024);
  EXPECT_EQ(std::get<int32_t>(zm.block(1).max), 2047);
  // The last block is partial and re-tightens as it fills.
  EXPECT_EQ(std::get<int32_t>(zm.block(2).min), 2048);
  EXPECT_EQ(std::get<int32_t>(zm.block(2).max), 2999);
  EXPECT_TRUE(zm.block(2).sorted);

  // An out-of-order append widens the partial block and clears
  // sortedness without touching sealed blocks.
  t->AppendRow({static_cast<int32_t>(-5)});
  EXPECT_EQ(zm.rows_covered(), 3001);
  EXPECT_FALSE(zm.sorted());
  EXPECT_FALSE(zm.block(2).sorted);
  EXPECT_EQ(std::get<int32_t>(zm.block(2).min), -5);
  EXPECT_EQ(std::get<int32_t>(zm.block(2).max), 2999);
  EXPECT_EQ(std::get<int32_t>(zm.block(0).min), 0);
}

TEST(ZoneMap, MaintainedUnderAppendBatch) {
  Schema s({{"k", TypeId::kInt64}});
  TablePtr t = MakeTable(s);
  for (int chunk = 0; chunk < 2; ++chunk) {
    std::vector<int64_t> v;
    for (int i = 0; i < 1500; ++i) v.push_back(chunk * 1500 + i);
    Batch b;
    b.columns.push_back(TypedColumn<int64_t>(TypeId::kInt64, std::move(v)));
    b.num_rows = 1500;
    t->AppendBatch(b);
  }
  const ZoneMap& zm = t->zone_map(0);
  EXPECT_EQ(zm.rows_covered(), 3000);
  EXPECT_EQ(zm.num_blocks(), 3);
  EXPECT_TRUE(zm.sorted());
  EXPECT_EQ(std::get<int64_t>(zm.block(1).min), 1024);
  EXPECT_EQ(std::get<int64_t>(zm.block(1).max), 2047);
  EXPECT_EQ(std::get<int64_t>(zm.block(2).max), 2999);
}

TEST(ZoneMap, MayOverlapIsConservative) {
  Schema s({{"k", TypeId::kInt32}});
  TablePtr t = MakeTable(s);
  for (int i = 0; i < 3000; ++i) t->AppendRow({static_cast<int32_t>(i)});
  const ZoneMap& zm = t->zone_map(0);

  ColumnInterval window =
      Between(static_cast<int32_t>(2000), true, static_cast<int32_t>(2100),
              true);
  EXPECT_FALSE(zm.MayOverlap(0, window));
  EXPECT_TRUE(zm.MayOverlap(1, window));  // [1024, 2047] reaches 2000
  EXPECT_TRUE(zm.MayOverlap(2, window));

  // Boundary touch counts as overlap (closed vs. closed).
  ColumnInterval touch = AtLeast(static_cast<int32_t>(1023));
  EXPECT_TRUE(zm.MayOverlap(0, touch));
  // Open bound at the block max does not.
  ColumnInterval open;
  open.lo = Bound(static_cast<int32_t>(1023), false);
  EXPECT_FALSE(zm.MayOverlap(0, open));

  EXPECT_FALSE(zm.MayOverlap(0, AtLeast(static_cast<int32_t>(5000))));
  EXPECT_FALSE(zm.MayOverlap(2, Below(static_cast<int32_t>(-1))));

  // Blocks past the map (rows appended after the map was consulted) must
  // never be pruned.
  EXPECT_TRUE(zm.MayOverlap(zm.num_blocks(), window));
  EXPECT_TRUE(zm.MayOverlap(zm.num_blocks() + 7, window));
}

TEST(ZoneMap, BlockHoldingNanIsNotPrunedForAGreaterThan) {
  // NaN lies above every number, so a block holding NaN after a small
  // first row has NaN as its max, and `v > c` may match there.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  TablePtr t = MakeTable(Schema({{"v", TypeId::kDouble}}));
  for (int i = 0; i < 3 * kZoneMapBlockRows; ++i) {
    const int64_t block = i / kZoneMapBlockRows;
    t->AppendRow({block == 1 && i % 4 == 1 ? nan
                                           : static_cast<double>(i % 100) +
                                                 10000.0 * (block == 2)});
  }
  EXPECT_TRUE(std::isnan(std::get<double>(t->zone_map(0).block(1).max)));
  EXPECT_TRUE(t->zone_map(0).MayOverlap(1, AtLeast(5000.0)));
  for (bool pruning : {true, false}) {
    DatabaseOptions options;
    options.recycler.mode = RecyclerMode::kOff;
    options.recycler.enable_zone_map_pruning = pruning;
    auto db = Database::OpenOrDie(options);
    ASSERT_TRUE(db->CreateTable("n", t).ok());
    Result r = db->Execute(PlanNode::Select(
        PlanNode::Scan("n", {"v"}),
        Expr::Gt(Expr::Column("v"), Expr::Literal(5000.0))));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.num_rows(), kZoneMapBlockRows + kZoneMapBlockRows / 4)
        << "pruning " << pruning;
  }
}

// ---------------------------------------------------------------------------
// Pruned scans are bit-identical to unpruned scans (all column types)
// ---------------------------------------------------------------------------

constexpr int kWideRows = 8192;

/// All six types, each (except bool) non-decreasing so zone maps have
/// pruning power on every column.
TablePtr MakeWideTable() {
  Schema s({{"b", TypeId::kBool},
            {"i", TypeId::kInt32},
            {"l", TypeId::kInt64},
            {"d", TypeId::kDouble},
            {"s", TypeId::kString},
            {"dt", TypeId::kDate}});
  TablePtr t = MakeTable(s);
  const int32_t day0 = MakeDate(2013, 1, 1);
  for (int i = 0; i < kWideRows; ++i) {
    t->AppendRow({i % 2 == 0, static_cast<int32_t>(i),
                  static_cast<int64_t>(i) * 37 - 5000, i * 0.25,
                  StrFormat("k%06d", i), day0 + i / 4});
  }
  return t;
}

std::unique_ptr<Database> OpenWideDb(bool pruning) {
  DatabaseOptions options;
  options.recycler.mode = RecyclerMode::kOff;  // isolate the scan path
  options.recycler.enable_zone_map_pruning = pruning;
  std::unique_ptr<Database> db = Database::OpenOrDie(options);
  RDB_CHECK(db->CreateTable("w", MakeWideTable()).ok());
  return db;
}

PlanPtr WideScan() {
  return PlanNode::Scan("w", {"b", "i", "l", "d", "s", "dt"});
}

TEST(ZoneMapPruning, BitEqualAcrossAllTypes) {
  auto pruned_db = OpenWideDb(true);
  auto plain_db = OpenWideDb(false);

  const int32_t day0 = MakeDate(2013, 1, 1);
  struct Case {
    const char* name;
    std::function<PlanPtr()> plan;
  };
  std::vector<Case> cases = {
      {"int32_window",
       [] {
         return PlanNode::Select(
             WideScan(),
             Expr::And(Expr::Ge(Expr::Column("i"),
                                Expr::Literal(static_cast<int32_t>(2000))),
                       Expr::Lt(Expr::Column("i"),
                                Expr::Literal(static_cast<int32_t>(3000)))));
       }},
      {"int64_window",
       [] {
         return PlanNode::Select(
             WideScan(),
             Expr::And(Expr::Gt(Expr::Column("l"),
                                Expr::Literal(static_cast<int64_t>(100000))),
                       Expr::Le(Expr::Column("l"),
                                Expr::Literal(static_cast<int64_t>(140000)))));
       }},
      {"double_tail",
       [] {
         return PlanNode::Select(
             WideScan(), Expr::Ge(Expr::Column("d"), Expr::Literal(1900.0)));
       }},
      {"string_window",
       [] {
         return PlanNode::Select(
             WideScan(),
             Expr::And(Expr::Ge(Expr::Column("s"),
                                Expr::Literal(std::string("k004000"))),
                       Expr::Lt(Expr::Column("s"),
                                Expr::Literal(std::string("k004200")))));
       }},
      {"date_head",
       [day0] {
         return PlanNode::Select(
             WideScan(), Expr::Lt(Expr::Column("dt"),
                                  Expr::Literal(day0 + 100)));
       }},
      // Bool columns carry no range hints; pruning still comes from the
      // int conjunct while the bool filter must keep applying.
      {"bool_and_int",
       [] {
         return PlanNode::Select(
             WideScan(),
             Expr::And(Expr::Lt(Expr::Column("i"),
                                Expr::Literal(static_cast<int32_t>(512))),
                       Expr::Eq(Expr::Column("b"), Expr::Literal(true))));
       }},
  };

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto ps = pruned_db->Connect({});
    auto us = plain_db->Connect({});
    Result pr = ps->Execute(c.plan());
    Result ur = us->Execute(c.plan());
    ASSERT_TRUE(pr.ok()) << pr.status().ToString();
    ASSERT_TRUE(ur.ok()) << ur.status().ToString();
    EXPECT_EQ(RowMultiset(*pr.table()), RowMultiset(*ur.table()));
    EXPECT_GT(pr.table()->num_rows(), 0);
    // The unpruned scan reads every block; the pruned scan accounts for
    // the same universe as scanned + pruned and actually skips blocks.
    EXPECT_EQ(ur.trace().blocks_pruned, 0);
    EXPECT_EQ(pr.trace().blocks_scanned + pr.trace().blocks_pruned,
              ur.trace().blocks_scanned);
    EXPECT_GT(pr.trace().blocks_pruned, 0);
  }
}

// ---------------------------------------------------------------------------
// Column codecs
// ---------------------------------------------------------------------------

TEST(Compression, PicksExpectedCodecAndRoundTrips) {
  struct Case {
    const char* name;
    ColumnPtr col;
    ColumnEncoding expected;
  };
  std::vector<int32_t> constant(4096, 42);
  std::vector<int64_t> ascending;
  for (int i = 0; i < 4096; ++i) ascending.push_back(1000000 + i);
  std::vector<std::string> low_card;
  for (int i = 0; i < 4096; ++i) low_card.push_back("city-" + std::to_string(i % 8));
  std::vector<double> noise;
  for (int i = 0; i < 4096; ++i) {
    noise.push_back(static_cast<double>((i * 2654435761u) % 1000003) * 1.7e-3);
  }
  std::vector<int32_t> dates;
  for (int i = 0; i < 4096; ++i) dates.push_back(MakeDate(2013, 1, 1) + i);

  std::vector<Case> cases;
  cases.push_back({"constant_int32_rle",
                   TypedColumn<int32_t>(TypeId::kInt32, constant),
                   ColumnEncoding::kRle});
  cases.push_back({"ascending_int64_for",
                   TypedColumn<int64_t>(TypeId::kInt64, ascending),
                   ColumnEncoding::kFor});
  cases.push_back({"low_card_string_dict",
                   TypedColumn<std::string>(TypeId::kString, low_card),
                   ColumnEncoding::kDict});
  cases.push_back({"noise_double_raw",
                   TypedColumn<double>(TypeId::kDouble, noise),
                   ColumnEncoding::kRaw});
  cases.push_back({"dense_date_for",
                   TypedColumn<int32_t>(TypeId::kDate, dates),
                   ColumnEncoding::kFor});

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EncodedColumn enc = EncodeColumn(*c.col);
    EXPECT_EQ(enc.encoding, c.expected) << EncodingName(enc.encoding);
    EXPECT_EQ(enc.num_rows, c.col->size());
    ColumnPtr back;
    ASSERT_TRUE(DecodeColumn(enc, &back).ok());
    EXPECT_TRUE(ColumnsBitEqual(*c.col, *back));
  }
}

TEST(Compression, EveryCodecRoundTripsEveryLegalType) {
  std::vector<uint8_t> bools;
  std::vector<int32_t> ints;
  std::vector<int64_t> longs;
  std::vector<double> doubles;
  std::vector<std::string> strings;
  for (int i = 0; i < 2000; ++i) {
    bools.push_back(i % 3 == 0);
    ints.push_back(i / 7 - 50);
    longs.push_back(static_cast<int64_t>(i / 5) * 1000);
    doubles.push_back((i / 11) * 0.5 - 3.0);
    strings.push_back("v" + std::to_string(i % 29));
  }
  std::vector<ColumnPtr> cols = {
      TypedColumn<uint8_t>(TypeId::kBool, bools),
      TypedColumn<int32_t>(TypeId::kInt32, ints),
      TypedColumn<int64_t>(TypeId::kInt64, longs),
      TypedColumn<double>(TypeId::kDouble, doubles),
      TypedColumn<std::string>(TypeId::kString, strings),
      TypedColumn<int32_t>(TypeId::kDate, ints),
  };
  for (const ColumnPtr& col : cols) {
    for (ColumnEncoding e :
         {ColumnEncoding::kRaw, ColumnEncoding::kRle, ColumnEncoding::kDict,
          ColumnEncoding::kFor}) {
      SCOPED_TRACE(StrFormat("%s as %s", TypeName(col->type()),
                             EncodingName(e)));
      EncodedColumn enc;
      Status st = EncodeColumnAs(*col, e, &enc);
      const bool for_illegal =
          e == ColumnEncoding::kFor && (col->type() == TypeId::kDouble ||
                                        col->type() == TypeId::kString ||
                                        col->type() == TypeId::kBool);
      const bool dict_illegal =
          e == ColumnEncoding::kDict && (col->type() == TypeId::kDouble ||
                                         col->type() == TypeId::kBool);
      if (for_illegal || dict_illegal) {
        EXPECT_FALSE(st.ok());
        continue;
      }
      ASSERT_TRUE(st.ok()) << st.ToString();
      ColumnPtr back;
      ASSERT_TRUE(DecodeColumn(enc, &back).ok());
      EXPECT_TRUE(ColumnsBitEqual(*col, *back));
    }
  }
}

TEST(Compression, DoubleBitPatternsSurviveRle) {
  std::vector<double> v;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int i = 0; i < 64; ++i) v.push_back(nan);
  for (int i = 0; i < 64; ++i) v.push_back(-0.0);
  for (int i = 0; i < 64; ++i) v.push_back(0.0);
  ColumnPtr col = TypedColumn<double>(TypeId::kDouble, v);

  EncodedColumn enc;
  ASSERT_TRUE(EncodeColumnAs(*col, ColumnEncoding::kRle, &enc).ok());
  ColumnPtr back;
  ASSERT_TRUE(DecodeColumn(enc, &back).ok());
  // Bit comparison distinguishes -0.0 from 0.0 and preserves NaN, which
  // value comparison cannot.
  EXPECT_TRUE(ColumnsBitEqual(*col, *back));
}

/// The codec a size-only chooser must pick: every legal codec encoded
/// through EncodeColumnAs, the smallest payload kept, ties to the
/// earlier of raw, RLE, dict, FOR. A dictionary is legal up to 0xffff
/// entries (2-byte codes): EncodeColumn does not weigh 4-byte codes.
EncodedColumn SmallestLegalEncoding(const ColumnVector& col) {
  EncodedColumn best;
  bool have = false;
  for (ColumnEncoding e :
       {ColumnEncoding::kRaw, ColumnEncoding::kRle, ColumnEncoding::kDict,
        ColumnEncoding::kFor}) {
    EncodedColumn enc;
    if (!EncodeColumnAs(col, e, &enc).ok()) continue;
    if (e == ColumnEncoding::kDict) {
      uint32_t entries = 0;
      std::memcpy(&entries, enc.payload.data(), sizeof(entries));
      if (entries > 0xffff) continue;
    }
    if (!have || enc.payload.size() < best.payload.size()) {
      best = std::move(enc);
      have = true;
    }
  }
  return best;
}

/// One value of `type` per int64 (doubles and strings derived from it).
ColumnPtr ColumnOf(TypeId type, const std::vector<int64_t>& v) {
  ColumnPtr c = MakeColumn(type);
  for (int64_t x : v) {
    switch (type) {
      case TypeId::kBool: c->Data<uint8_t>().push_back(x & 1); break;
      case TypeId::kInt32:
      case TypeId::kDate:
        c->Data<int32_t>().push_back(static_cast<int32_t>(x));
        break;
      case TypeId::kInt64: c->Data<int64_t>().push_back(x); break;
      case TypeId::kDouble:
        c->Data<double>().push_back(static_cast<double>(x) * 0.25);
        break;
      case TypeId::kString:
        c->Data<std::string>().push_back(x == 0 ? "" : "s" + std::to_string(x));
        break;
    }
  }
  return c;
}

TEST(Compression, ChoiceIsTheSmallestLegalCodec) {
  const TypeId kTypes[] = {TypeId::kBool,   TypeId::kInt32, TypeId::kDate,
                           TypeId::kInt64,  TypeId::kDouble, TypeId::kString};
  constexpr int64_t kMin64 = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax64 = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin32 = std::numeric_limits<int32_t>::min();
  constexpr int64_t kMax32 = std::numeric_limits<int32_t>::max();
  std::vector<std::pair<std::string, ColumnPtr>> cases;
  auto every_type = [&](const std::string& name, std::vector<int64_t> v) {
    for (TypeId t : kTypes) {
      cases.emplace_back(name + "/" + TypeName(t), ColumnOf(t, v));
    }
  };

  every_type("empty", {});
  every_type("constant1", {7});
  every_type("constant1000", std::vector<int64_t>(1000, 7));
  // Three cycling ints over 8 rows: the dictionary (5 + 12 + 8) ties
  // FOR at 2-byte deltas (9 + 16), both under raw (32) and RLE.
  std::vector<int64_t> tie;
  for (int i = 0; i < 8; ++i) tie.push_back((i % 3) * 1000);
  every_type("dict_ties_for", tie);
  // Distinct-count boundaries: code widths 1/2 and the 0xffff cap, with
  // values spread so that FOR needs 4- or 8-byte deltas.
  for (int64_t d : {255, 256, 257, 65535, 65536}) {
    std::vector<int64_t> cyclic, sorted;
    for (int64_t i = 0; i < 3 * d; ++i) {
      cyclic.push_back((i % d) * 65537);
      sorted.push_back((i / 3) * 65537);
    }
    for (TypeId t : {TypeId::kInt32, TypeId::kInt64, TypeId::kString}) {
      cases.emplace_back(StrFormat("distinct%lld_cyclic/%s", (long long)d,
                                   TypeName(t)),
                         ColumnOf(t, cyclic));
      cases.emplace_back(StrFormat("distinct%lld_sorted/%s", (long long)d,
                                   TypeName(t)),
                         ColumnOf(t, sorted));
    }
  }
  // FOR delta-width boundaries, many distinct values between the ends.
  for (int64_t delta : {int64_t{255}, int64_t{256}, int64_t{65535},
                        int64_t{65536}, int64_t{0xffffffff},
                        int64_t{0x100000000}}) {
    for (int64_t base : {int64_t{0}, int64_t{-12345}, kMin64}) {
      std::vector<int64_t> v = {base, base + delta};
      for (int64_t i = 2; i < 600; ++i) {
        v.push_back(base + (i * 7919) % (delta + 1));
      }
      cases.emplace_back(StrFormat("for_delta%lld_base%lld/int64",
                                   (long long)delta, (long long)base),
                         ColumnOf(TypeId::kInt64, v));
      if (delta <= 0xffffffff && base == 0) {
        for (int64_t& x : v) x += kMin32;  // stays in int32 range
        cases.emplace_back(StrFormat("for_delta%lld/int32", (long long)delta),
                           ColumnOf(TypeId::kInt32, v));
      }
    }
  }
  every_type("int32_extremes", {kMin32, kMax32, 0, kMin32, kMin32, kMax32});
  cases.emplace_back("int64_extremes",
                     ColumnOf(TypeId::kInt64,
                              {kMin64, kMax64, 0, kMin64, kMin64, kMax64, -1}));
  {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::vector<double> v = {-0.0, 0.0, -0.0, -0.0, nan, nan, -nan, 0.0, 1.5};
    for (int i = 0; i < 40; ++i) v.push_back(i % 3 == 0 ? -0.0 : nan);
    cases.emplace_back("signed_zero_nan/double",
                       TypedColumn<double>(TypeId::kDouble, v));
  }
  cases.emplace_back(
      "empty_strings/string",
      TypedColumn<std::string>(TypeId::kString,
                               {"", "", "a", "", "", "", "bb", "", ""}));
  // Seeded sweep of small columns over small domains, where sizes tie
  // often: runs, dictionary and FOR widths all near their boundaries.
  std::mt19937_64 rng(33);
  const int64_t spreads[] = {1, 255, 256, 65535, 65536, int64_t{1} << 32,
                             kMax64};
  for (int c = 0; c < 3000; ++c) {
    const TypeId t = kTypes[rng() % 6];
    const int n = static_cast<int>(rng() % 49);
    const int64_t spread = spreads[rng() % 7];
    std::vector<int64_t> domain(1 + rng() % 12);
    for (int64_t& x : domain) {
      x = spread == kMax64 ? static_cast<int64_t>(rng())
                           : static_cast<int64_t>(rng() % (spread + 1));
    }
    std::vector<int64_t> v;
    for (int i = 0; i < n; ++i) {
      v.push_back(i > 0 && rng() % 2 == 0 ? v.back()
                                          : domain[rng() % domain.size()]);
    }
    cases.emplace_back(StrFormat("sweep%d/%s", c, TypeName(t)),
                       ColumnOf(t, v));
  }

  std::map<ColumnEncoding, int> chosen;
  for (const auto& [name, col] : cases) {
    SCOPED_TRACE(name);
    const EncodedColumn got = EncodeColumn(*col);
    const EncodedColumn want = SmallestLegalEncoding(*col);
    EXPECT_STREQ(EncodingName(got.encoding), EncodingName(want.encoding));
    EXPECT_TRUE(got.payload == want.payload);
    ++chosen[got.encoding];
    if (name == "dict_ties_for/INT32" || name == "dict_ties_for/DATE") {
      EXPECT_EQ(got.encoding, ColumnEncoding::kDict);  // the tie decided
    }
  }
  // Every codec won somewhere, so every comparison was exercised.
  EXPECT_EQ(chosen.size(), 4u);
}

TEST(Compression, CorruptPayloadsAreRecoverableErrors) {
  std::vector<int32_t> v;
  for (int i = 0; i < 1000; ++i) v.push_back(i / 10);
  ColumnPtr col = TypedColumn<int32_t>(TypeId::kInt32, v);

  for (ColumnEncoding e :
       {ColumnEncoding::kRaw, ColumnEncoding::kRle, ColumnEncoding::kDict,
        ColumnEncoding::kFor}) {
    SCOPED_TRACE(EncodingName(e));
    EncodedColumn enc;
    ASSERT_TRUE(EncodeColumnAs(*col, e, &enc).ok());

    ColumnPtr out;
    // Truncation at every interesting boundary must error, not abort.
    EncodedColumn truncated = enc;
    truncated.payload.resize(truncated.payload.size() / 2);
    EXPECT_FALSE(DecodeColumn(truncated, &out).ok());
    truncated.payload.clear();
    EXPECT_FALSE(DecodeColumn(truncated, &out).ok());

    // A length field inflated to claim more data than exists must be
    // caught by bounds checks before any allocation happens.
    EncodedColumn inflated = enc;
    if (inflated.payload.size() >= 4) {
      std::memset(&inflated.payload[0], 0xff, 4);
      ColumnPtr dummy;
      Status st = DecodeColumn(inflated, &dummy);
      if (st.ok()) {
        // If the codec tolerated the patch the result must still be a
        // complete column (never a partial/oversized one).
        EXPECT_EQ(dummy->size(), col->size());
      }
    }
  }

  // Trailing garbage after a well-formed image is rejected.
  EncodedColumn enc;
  ASSERT_TRUE(EncodeColumnAs(*col, ColumnEncoding::kRle, &enc).ok());
  enc.payload += "extra";
  ColumnPtr out;
  EXPECT_FALSE(DecodeColumn(enc, &out).ok());
}

TEST(Compression, InflatedRowCountFailsBeforeAllocation) {
  std::vector<int64_t> longs;
  std::vector<std::string> strings;
  for (int i = 0; i < 256; ++i) {
    longs.push_back(i / 8);
    strings.push_back("s" + std::to_string(i % 5));
  }
  const std::vector<ColumnPtr> cols = {
      TypedColumn<int64_t>(TypeId::kInt64, longs),
      TypedColumn<std::string>(TypeId::kString, strings)};
  for (const ColumnPtr& col : cols) {
    for (ColumnEncoding e :
         {ColumnEncoding::kRaw, ColumnEncoding::kRle, ColumnEncoding::kDict,
          ColumnEncoding::kFor}) {
      EncodedColumn enc;
      if (!EncodeColumnAs(*col, e, &enc).ok()) continue;  // kFor on strings
      for (int shift : {40, 60, 62}) {
        SCOPED_TRACE(StrFormat("%s as %s, 2^%d rows", TypeName(col->type()),
                               EncodingName(e), shift));
        // A checksum-valid file can still claim any row count; the codec
        // must reject it before reserving or resizing anything.
        enc.num_rows = int64_t{1} << shift;
        ColumnPtr out;
        Status st = DecodeColumn(enc, &out);
        EXPECT_FALSE(st.ok());
        EXPECT_NE(st.message().find("row count"), std::string::npos)
            << st.ToString();
      }
      if (e == ColumnEncoding::kDict) {
        // An inflated row count also admits an inflated dictionary size
        // (the u32 that opens the payload); it too must fail first.
        std::memset(&enc.payload[0], 0xff, 4);
        ColumnPtr out;
        EXPECT_FALSE(DecodeColumn(enc, &out).ok());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Spill format
// ---------------------------------------------------------------------------

TablePtr MakeCompressibleTable(int rows) {
  Schema s({{"k", TypeId::kInt64}, {"tag", TypeId::kString},
            {"v", TypeId::kDouble}});
  TablePtr t = MakeTable(s);
  for (int i = 0; i < rows; ++i) {
    t->AppendRow({static_cast<int64_t>(i),
                  std::string("tag-") + std::to_string(i % 4),
                  (i / 64) * 1.5});
  }
  return t;
}

SpillFileMeta MakeMeta(const Table& t) {
  SpillFileMeta meta;
  meta.canon_key = "4{select:x}(0{scan:w})";
  meta.column_names = t.schema().Names();
  for (const Field& f : t.schema().fields()) {
    meta.column_types.push_back(f.type);
  }
  meta.num_rows = t.num_rows();
  meta.bcost_ms = 3.5;
  meta.h = 2.0;
  meta.base_tables = {"w"};
  meta.table_versions = {{"w", t.num_rows()}};
  return meta;
}

bool TablesBitEqual(const Table& a, const Table& b) {
  if (a.num_columns() != b.num_columns()) return false;
  for (int i = 0; i < a.num_columns(); ++i) {
    if (!ColumnsBitEqual(*a.column(i), *b.column(i))) return false;
  }
  return true;
}

/// Overwrites the version word of the spill file at `path` (bytes 4..7,
/// after the magic). The prefix is outside the checksum.
void PatchSpillVersion(const std::string& path, uint32_t version) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 4, SEEK_SET);
  for (int i = 0; i < 4; ++i) std::fputc((version >> (8 * i)) & 0xff, f);
  std::fclose(f);
}

TEST(SpillV2, OtherVersionsAreDeletedAtOpenAndMiss) {
  auto window = [] {
    return PlanNode::Select(
        WideScan(), Expr::And(Expr::Ge(Expr::Column("i"), Expr::Literal(100)),
                              Expr::Lt(Expr::Column("i"), Expr::Literal(900))));
  };
  for (uint32_t version : {1u, 2u, 3u, 4u, 5u, 6u, kSpillFormatVersion + 1}) {
    SCOPED_TRACE(StrFormat("version %u", version));
    TempSpillDir dir;
    DatabaseOptions options;
    options.recycler.spill_dir = dir.path();
    {
      auto db = Database::OpenOrDie(options);
      ASSERT_TRUE(db->CreateTable("w", MakeWideTable()).ok());
      ASSERT_TRUE(db->Execute(window()).ok());
      // Destruction checkpoints the hot cache into the spill directory.
    }
    const std::vector<std::string> files = SpillFiles(dir.path());
    ASSERT_FALSE(files.empty());
    for (const std::string& path : files) {
      PatchSpillVersion(path, version);
      SpillFileMeta meta;
      Status st = ReadSpillMeta(path, &meta);
      EXPECT_FALSE(st.ok());
      EXPECT_NE(st.message().find(StrFormat("version %u", version)),
                std::string::npos)
          << st.ToString();
    }

    auto db = Database::OpenOrDie(options);
    EXPECT_TRUE(SpillFiles(dir.path()).empty());
    EXPECT_EQ(db->recycler().cold_tier().Stats().entries, 0);
    ASSERT_TRUE(db->CreateTable("w", MakeWideTable()).ok());
    Result r = db->Execute(window());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.trace().num_reuses, 0);
    EXPECT_EQ(r.trace().num_adoptions, 0);
    SessionOptions so;
    so.bypass_recycler = true;
    Result bypass = db->Connect(so)->Execute(window());
    ASSERT_TRUE(bypass.ok());
    EXPECT_EQ(r.num_rows(), bypass.num_rows());
    EXPECT_EQ(trace::ResultDigest(*r.table()),
              trace::ResultDigest(*bypass.table()));
  }
}

TEST(SpillV2, CompressedFilesAreSmallerAndBitEqual) {
  TempSpillDir dir;
  TablePtr t = MakeCompressibleTable(20000);
  const std::string raw_path = dir.path() + "/a.raw.spill";
  const std::string packed_path = dir.path() + "/a.packed.spill";
  SpillWriteOptions raw;
  raw.compress = false;
  ASSERT_TRUE(WriteSpillFile(raw_path, *t, MakeMeta(*t), raw).ok());
  ASSERT_TRUE(WriteSpillFile(packed_path, *t, MakeMeta(*t)).ok());

  const auto raw_size = fs::file_size(raw_path);
  const auto packed_size = fs::file_size(packed_path);
  EXPECT_LT(packed_size, raw_size);

  SpillFileMeta meta;
  TablePtr back;
  ASSERT_TRUE(ReadSpillTable(packed_path, &meta, &back).ok());
  EXPECT_GT(meta.raw_bytes, static_cast<int64_t>(packed_size));
  EXPECT_TRUE(TablesBitEqual(*t, *back));

  // The header fast path reports the same raw size without a full read.
  SpillFileMeta header;
  ASSERT_TRUE(ReadSpillMeta(packed_path, &header).ok());
  EXPECT_EQ(header.raw_bytes, meta.raw_bytes);
}

TEST(SpillV2, UncompressedV2OptionRoundTrips) {
  TempSpillDir dir;
  TablePtr t = MakeCompressibleTable(2000);
  const std::string path = dir.path() + "/raw.v2.spill";
  SpillWriteOptions opts;
  opts.compress = false;
  ASSERT_TRUE(WriteSpillFile(path, *t, MakeMeta(*t), opts).ok());
  SpillFileMeta meta;
  TablePtr back;
  ASSERT_TRUE(ReadSpillTable(path, &meta, &back).ok());
  EXPECT_GT(meta.raw_bytes, 0);
  EXPECT_TRUE(TablesBitEqual(*t, *back));
}

TEST(SpillV2, FilteredReadMatchesFullReadThenFilter) {
  std::vector<int32_t> sawtooth;
  for (int i = 0; i < 3000; ++i) sawtooth.push_back(i / 100);
  std::vector<std::string> cities;
  for (int i = 0; i < 3000; ++i) cities.push_back("c" + std::to_string(i % 6));
  std::vector<int64_t> keys;
  for (int i = 0; i < 3000; ++i) keys.push_back(7000 + i);
  std::vector<double> vals;
  for (int i = 0; i < 3000; ++i) vals.push_back((i * 7919) % 997 * 0.25);

  struct Case {
    ColumnPtr col;
    ColumnInterval range;
  };
  std::vector<Case> cases;
  cases.push_back({TypedColumn<int32_t>(TypeId::kInt32, sawtooth),
                   Between(static_cast<int32_t>(5), true,
                           static_cast<int32_t>(20), false)});
  cases.push_back({TypedColumn<std::string>(TypeId::kString, cities),
                   Between(std::string("c1"), true, std::string("c4"), true)});
  cases.push_back({TypedColumn<int64_t>(TypeId::kInt64, keys),
                   Between(static_cast<int64_t>(7500), false,
                           static_cast<int64_t>(8500), true)});
  cases.push_back(
      {TypedColumn<double>(TypeId::kDouble, vals), AtLeast(100.0)});
  // Integer-empty open gap (4, 5): no int32 fits, so nothing selects.
  cases.push_back({TypedColumn<int32_t>(TypeId::kInt32, sawtooth),
                   Between(static_cast<int32_t>(4), false,
                           static_cast<int32_t>(5), false)});
  // Unbounded both ends selects everything.
  cases.push_back(
      {TypedColumn<int64_t>(TypeId::kInt64, keys), ColumnInterval{}});
  // Mixed-type numeric bound (double literal against int column).
  cases.push_back(
      {TypedColumn<int32_t>(TypeId::kInt32, sawtooth), Below(12.5)});
  // Edge values under the value order: NaN lies above every number and
  // -0.0 equals 0.0; int64 beyond 2^53 meets a double bound exactly.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double pick[] = {nan, -0.0, 0.0, 1.5,
                         std::numeric_limits<double>::infinity()};
  std::vector<double> edges;
  for (int i = 0; i < 3000; ++i) edges.push_back(pick[i % 5]);
  cases.push_back({TypedColumn<double>(TypeId::kDouble, edges), Below(nan)});
  cases.push_back({TypedColumn<double>(TypeId::kDouble, edges), AtLeast(nan)});
  cases.push_back({TypedColumn<double>(TypeId::kDouble, edges),
                   Between(-0.0, true, 0.0, true)});
  std::vector<int64_t> big;
  for (int i = 0; i < 3000; ++i) big.push_back((int64_t{1} << 53) + i % 8);
  cases.push_back({TypedColumn<int64_t>(TypeId::kInt64, big),
                   Between(std::ldexp(1.0, 53), false, std::ldexp(1.0, 53) + 4,
                           true)});

  TempSpillDir dir;
  for (size_t i = 0; i < cases.size(); ++i) {
    for (bool compress : {true, false}) {
      SCOPED_TRACE(StrFormat("case %zu, compress %d", i, compress));
      // The filter column plus a row number, which checks the gather.
      const ColumnVector& col = *cases[i].col;
      TablePtr t = MakeTable(
          Schema({{"v", col.type()}, {"row", TypeId::kInt64}}));
      std::vector<int64_t> rows(static_cast<size_t>(col.size()));
      for (size_t r = 0; r < rows.size(); ++r) {
        rows[r] = static_cast<int64_t>(r);
      }
      Batch batch;
      batch.num_rows = col.size();
      batch.columns = {cases[i].col,
                       TypedColumn<int64_t>(TypeId::kInt64, rows)};
      t->AppendBatch(batch);
      const std::string path = dir.path() + StrFormat("/f%zu.spill", i);
      SpillWriteOptions opts;
      opts.compress = compress;
      ASSERT_TRUE(WriteSpillFile(path, *t, MakeMeta(*t), opts).ok());

      SpillFileMeta meta;
      TablePtr full;
      ASSERT_TRUE(ReadSpillTable(path, &meta, &full).ok());
      TablePtr want = MakeTable(full->schema());
      Batch selected;
      const std::vector<int32_t> sel =
          ReferenceSelect(*full->column(0), cases[i].range);
      selected.num_rows = static_cast<int64_t>(sel.size());
      for (int c = 0; c < full->num_columns(); ++c) {
        ColumnPtr out = MakeColumn(full->column(c)->type());
        out->AppendSelected(*full->column(c), sel);
        selected.columns.push_back(std::move(out));
      }
      want->AppendBatch(selected);

      TablePtr got;
      ASSERT_TRUE(
          ReadSpillTableFiltered(path, &meta, 0, cases[i].range, &got).ok());
      EXPECT_EQ(got->num_rows(), want->num_rows());
      EXPECT_TRUE(TablesBitEqual(*got, *want));
      // A bound of the other kind (string vs number) is an error.
      const Datum other = col.type() == TypeId::kString
                              ? Datum(int64_t{1})
                              : Datum(std::string("a"));
      EXPECT_FALSE(
          ReadSpillTableFiltered(path, &meta, 0, AtLeast(other), &got).ok());
    }
  }
}

TEST(SpillV2, CorruptionIsRecoverable) {
  TempSpillDir dir;
  TablePtr t = MakeCompressibleTable(3000);
  const std::string path = dir.path() + "/corrupt.spill";
  ASSERT_TRUE(WriteSpillFile(path, *t, MakeMeta(*t)).ok());
  const auto size = fs::file_size(path);

  // Flip one payload byte: the checksum (verified before any decoding)
  // must reject the file.
  {
    FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, static_cast<long>(size) - 64, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, -1, SEEK_CUR);
    std::fputc(c ^ 0x5a, f);
    std::fclose(f);
  }
  SpillFileMeta meta;
  TablePtr back;
  Status st = ReadSpillTable(path, &meta, &back);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("checksum"), std::string::npos)
      << st.ToString();

  // Truncation is likewise a recoverable error.
  ASSERT_TRUE(WriteSpillFile(path, *t, MakeMeta(*t)).ok());
  fs::resize_file(path, size / 2);
  EXPECT_FALSE(ReadSpillTable(path, &meta, &back).ok());
}

// ---------------------------------------------------------------------------
// Calibrated cost model
// ---------------------------------------------------------------------------

TEST(CostModel, IsAPureFunctionOfItsInputs) {
  CostModel m(1.0);
  EXPECT_EQ(m.machine_factor(), 1.0);
  const double one = m.OperatorMs(OpType::kScan, 1000, 8.0);
  EXPECT_GT(one, 0.0);
  EXPECT_EQ(m.OperatorMs(OpType::kScan, 1000, 8.0), one);
  // Linear in rows and width...
  EXPECT_DOUBLE_EQ(m.OperatorMs(OpType::kScan, 2000, 8.0), 2 * one);
  EXPECT_DOUBLE_EQ(m.OperatorMs(OpType::kScan, 1000, 16.0), 2 * one);
  // ...with heavier constants for heavier operators...
  EXPECT_GT(m.OperatorMs(OpType::kHashJoin, 1000, 8.0), one);
  EXPECT_GT(m.OperatorMs(OpType::kAggregate, 1000, 8.0),
            m.OperatorMs(OpType::kSelect, 1000, 8.0));
  // ...and a log factor on sorts: 1024x the rows costs 2048x
  // (log2 doubles from 10 to 20), i.e. strictly superlinear.
  EXPECT_GT(m.OperatorMs(OpType::kOrderBy, 1 << 20, 8.0),
            1536 * m.OperatorMs(OpType::kOrderBy, 1 << 10, 8.0));
  // Machine factor scales everything proportionally.
  CostModel fast(0.5);
  EXPECT_DOUBLE_EQ(fast.OperatorMs(OpType::kScan, 1000, 8.0), one / 2);
}

TEST(CostModel, GlobalCalibrationIsStableWithinProcess) {
  const CostModel& a = CostModel::Global();
  const CostModel& b = CostModel::Global();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.machine_factor(), 0.25);
  EXPECT_LE(a.machine_factor(), 20.0);
}

/// Two engines running the same workload must annotate identical bcost
/// values — the property wall-clock refresh could not provide.
TEST(CostModel, IdenticalWorkloadsRankIdentically) {
  auto run = [](Database* db) {
    auto s = db->Connect({});
    auto window = [](int32_t lo, int32_t hi) {
      return PlanNode::Select(
          WideScan(),
          Expr::And(Expr::Ge(Expr::Column("i"), Expr::Literal(lo)),
                    Expr::Lt(Expr::Column("i"), Expr::Literal(hi))));
    };
    for (int pass = 0; pass < 2; ++pass) {
      for (int32_t lo : {0, 1000, 2000, 3000}) {
        Result r = s->Execute(window(lo, lo + 1500));
        RDB_CHECK(r.ok());
      }
    }
  };

  DatabaseOptions options;
  options.recycler.mode = RecyclerMode::kHistory;
  auto db1 = Database::OpenOrDie(options);
  auto db2 = Database::OpenOrDie(options);
  RDB_CHECK(db1->CreateTable("w", MakeWideTable()).ok());
  RDB_CHECK(db2->CreateTable("w", MakeWideTable()).ok());
  run(db1.get());
  run(db2.get());

  RecyclerGraph& g1 = db1->recycler().graph();
  RecyclerGraph& g2 = db2->recycler().graph();
  std::shared_lock<std::shared_mutex> l1(g1.mutex());
  std::shared_lock<std::shared_mutex> l2(g2.mutex());
  ASSERT_EQ(g1.nodes().size(), g2.nodes().size());
  ASSERT_GT(g1.nodes().size(), 1u);
  int annotated = 0;
  for (size_t i = 0; i < g1.nodes().size(); ++i) {
    const RGNode* n1 = g1.nodes()[i].get();
    const RGNode* n2 = g2.nodes()[i].get();
    EXPECT_EQ(n1->type, n2->type);
    EXPECT_EQ(n1->rows.load(), n2->rows.load());
    EXPECT_EQ(n1->has_bcost.load(), n2->has_bcost.load());
    if (n1->has_bcost.load()) {
      ++annotated;
      // Exact equality: the model is deterministic, so the engines may
      // not drift apart even in the last bit.
      EXPECT_EQ(n1->bcost_ms.load(), n2->bcost_ms.load())
          << "node " << i << " diverged";
      EXPECT_EQ(db1->recycler().BenefitOf(n1), db2->recycler().BenefitOf(n2));
    }
  }
  EXPECT_GT(annotated, 0);
}

// ---------------------------------------------------------------------------
// Concurrency: pruned scans + compressing cold tier under contention
// ---------------------------------------------------------------------------

TEST(SpeedPackStress, ConcurrentPrunedQueriesWithCompressedSpills) {
  TempSpillDir dir;
  DatabaseOptions options;
  options.recycler.mode = RecyclerMode::kSpeculation;
  options.recycler.cache_bytes = 64 << 10;  // force hot-tier churn
  options.recycler.spill_dir = dir.path();
  options.recycler.cold_tier_capacity_bytes = 256ll << 20;
  auto db = Database::OpenOrDie(options);
  RDB_CHECK(db->CreateTable("w", MakeWideTable()).ok());

  auto window = [](int32_t lo, int32_t hi) {
    return PlanNode::Select(
        WideScan(),
        Expr::And(Expr::Ge(Expr::Column("i"), Expr::Literal(lo)),
                  Expr::Lt(Expr::Column("i"), Expr::Literal(hi))));
  };

  // Precompute ground truth through the recycler-bypass path.
  constexpr int kWindows = 8;
  std::vector<std::multiset<std::string>> expected(kWindows);
  {
    SessionOptions so;
    so.bypass_recycler = true;
    auto ref = db->Connect(so);
    for (int w = 0; w < kWindows; ++w) {
      Result r = ref->Execute(window(w * 1000, w * 1000 + 800));
      ASSERT_TRUE(r.ok());
      expected[w] = RowMultiset(*r.table());
    }
  }

  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 24;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      auto s = db->Connect({});
      for (int q = 0; q < kQueriesPerThread; ++q) {
        const int w = (tid * 3 + q) % kWindows;
        Result r = s->Execute(window(w * 1000, w * 1000 + 800));
        if (!r.ok() || RowMultiset(*r.table()) != expected[w]) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Zone maps pruned under contention, and the counters saw it.
  EXPECT_GT(db->counters().blocks_pruned.load(), 0);
  EXPECT_GT(db->counters().blocks_scanned.load(), 0);

  // Push everything still beneficial out to disk and verify the
  // compressed cold entries report a compression win.
  db->FlushCache();
  if (db->graph_stats().num_cold > 0) {
    EXPECT_GT(db->counters().cold_spill_stored_bytes.load(), 0);
    EXPECT_GE(db->counters().cold_spill_raw_bytes.load(),
              db->counters().cold_spill_stored_bytes.load());
  }
}

}  // namespace
}  // namespace recycledb
