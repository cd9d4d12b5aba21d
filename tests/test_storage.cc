// Unit tests for src/storage: ColumnVector, Schema, Table, Catalog.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <random>
#include <thread>
#include <unordered_set>

#include "common/string_util.h"
#include "storage/catalog.h"
#include "storage/column.h"
#include "storage/table.h"

namespace recycledb {
namespace {

TEST(ColumnTest, AppendAndGet) {
  ColumnVector col(TypeId::kInt64);
  col.Append(Datum(int64_t{7}));
  col.Append(Datum(int64_t{9}));
  EXPECT_EQ(col.size(), 2);
  EXPECT_EQ(std::get<int64_t>(col.GetDatum(0)), 7);
  EXPECT_EQ(std::get<int64_t>(col.GetDatum(1)), 9);
}

TEST(ColumnTest, DateSharesInt32Storage) {
  ColumnVector col(TypeId::kDate);
  col.Append(Datum(MakeDate(1998, 12, 1)));
  EXPECT_EQ(col.Raw<int32_t>()[0], MakeDate(1998, 12, 1));
}

TEST(ColumnTest, AppendSelectedGathers) {
  ColumnVector src(TypeId::kInt32);
  for (int i = 0; i < 10; ++i) src.Append(Datum(int32_t{i}));
  ColumnVector dst(TypeId::kInt32);
  dst.AppendSelected(src, {1, 3, 5});
  ASSERT_EQ(dst.size(), 3);
  EXPECT_EQ(dst.Raw<int32_t>()[0], 1);
  EXPECT_EQ(dst.Raw<int32_t>()[1], 3);
  EXPECT_EQ(dst.Raw<int32_t>()[2], 5);
}

TEST(ColumnTest, AppendRangeStrings) {
  ColumnVector src(TypeId::kString);
  src.Append(Datum(std::string("a")));
  src.Append(Datum(std::string("b")));
  src.Append(Datum(std::string("c")));
  ColumnVector dst(TypeId::kString);
  dst.AppendRange(src, 1, 2);
  ASSERT_EQ(dst.size(), 2);
  EXPECT_EQ(dst.Raw<std::string>()[0], "b");
  EXPECT_EQ(dst.Raw<std::string>()[1], "c");
}

TEST(ColumnTest, HashRowEqualValuesEqualHash) {
  ColumnVector a(TypeId::kInt64), b(TypeId::kInt64);
  a.Append(Datum(int64_t{42}));
  b.Append(Datum(int64_t{42}));
  EXPECT_EQ(a.HashRow(0, 17), b.HashRow(0, 17));
  EXPECT_TRUE(a.RowEquals(0, b, 0));
}

TEST(ColumnTest, HashRowsMatchesHashRowOnEveryTypeAndView) {
  const std::vector<std::pair<TypeId, std::vector<Datum>>> columns = {
      {TypeId::kBool, {true, false, true}},
      {TypeId::kInt32, {int32_t{-7}, int32_t{0}, int32_t{1 << 30}}},
      {TypeId::kDate, {int32_t{9000}, int32_t{-1}, int32_t{0}}},
      {TypeId::kInt64, {int64_t{-1}, int64_t{1} << 40, int64_t{3}}},
      {TypeId::kDouble, {-0.0, 0.0, 2.5}},
      {TypeId::kString, {std::string(""), std::string("a-longer-string-key"),
                         std::string("b")}}};
  for (const auto& [type, values] : columns) {
    auto col = std::make_shared<ColumnVector>(type);
    for (const Datum& v : values) col->Append(v);
    for (ColumnPtr c : {ColumnPtr(col), ColumnVector::Slice(col, 1, 2)}) {
      std::vector<uint64_t> hashes(c->size(), 17);
      c->HashRows(hashes.data());
      for (int64_t r = 0; r < c->size(); ++r) {
        EXPECT_EQ(hashes[r], c->HashRow(r, 17)) << TypeName(type) << " row " << r;
      }
    }
  }
  // RowEquals calls -0.0 and +0.0 equal, so they hash alike.
  auto zeros = std::make_shared<ColumnVector>(TypeId::kDouble);
  zeros->Append(-0.0);
  zeros->Append(0.0);
  EXPECT_TRUE(zeros->RowEquals(0, *zeros, 1));
  EXPECT_EQ(zeros->HashRow(0, 17), zeros->HashRow(1, 17));
}

TEST(ColumnTest, ByteSizeGrowsWithData) {
  ColumnVector col(TypeId::kInt64);
  int64_t empty = col.ByteSize();
  for (int i = 0; i < 1000; ++i) col.Append(Datum(int64_t{i}));
  EXPECT_GE(col.ByteSize(), empty + 8000);
}

TEST(SchemaTest, IndexOf) {
  Schema s({{"a", TypeId::kInt32}, {"b", TypeId::kString}});
  EXPECT_EQ(s.IndexOf("a"), 0);
  EXPECT_EQ(s.IndexOf("b"), 1);
  EXPECT_EQ(s.IndexOf("c"), -1);
  EXPECT_TRUE(s.Has("b"));
  EXPECT_EQ(s.Names(), (std::vector<std::string>{"a", "b"}));
}

TEST(TableTest, AppendRowsAndBatch) {
  Schema s({{"k", TypeId::kInt32}, {"v", TypeId::kDouble}});
  TablePtr t = MakeTable(s);
  t->AppendRow({int32_t{1}, 2.5});
  t->AppendRow({int32_t{2}, 3.5});
  EXPECT_EQ(t->num_rows(), 2);
  EXPECT_EQ(std::get<double>(t->Get(1, 1)), 3.5);

  Batch b;
  b.columns = {MakeColumn(TypeId::kInt32), MakeColumn(TypeId::kDouble)};
  b.columns[0]->Append(Datum(int32_t{3}));
  b.columns[1]->Append(Datum(4.5));
  b.num_rows = 1;
  t->AppendBatch(b);
  EXPECT_EQ(t->num_rows(), 3);
  EXPECT_EQ(std::get<int32_t>(t->Get(2, 0)), 3);
}

TEST(TableTest, RenameColumnsSharesData) {
  Schema s({{"a", TypeId::kInt32}});
  TablePtr t = MakeTable(s);
  t->AppendRow({int32_t{5}});
  TablePtr renamed = t->RenameColumns({"x"});
  EXPECT_EQ(renamed->schema().field(0).name, "x");
  EXPECT_EQ(renamed->num_rows(), 1);
  EXPECT_EQ(renamed->column(0).get(), t->column(0).get());  // zero copy
}

TEST(TableTest, SelectColumnsReorders) {
  Schema s({{"a", TypeId::kInt32}, {"b", TypeId::kString}});
  TablePtr t = MakeTable(s);
  t->AppendRow({int32_t{1}, std::string("x")});
  TablePtr sel = t->SelectColumns({"b", "a"});
  EXPECT_EQ(sel->schema().field(0).name, "b");
  EXPECT_EQ(std::get<int32_t>(sel->Get(0, 1)), 1);
}

TEST(CatalogTest, RegisterAndLookup) {
  Catalog cat;
  Schema s({{"a", TypeId::kInt32}});
  TablePtr t = MakeTable(s);
  t->AppendRow({int32_t{1}});
  EXPECT_TRUE(cat.RegisterTable("t", t).ok());
  EXPECT_FALSE(cat.RegisterTable("t", t).ok());  // duplicate
  EXPECT_NE(cat.GetTable("t"), nullptr);
  EXPECT_EQ(cat.GetTable("missing"), nullptr);
  EXPECT_TRUE(cat.HasTable("t"));
}

TEST(CatalogTest, ColumnStatsDistinctAndMinMax) {
  Catalog cat;
  Schema s({{"k", TypeId::kInt32}});
  TablePtr t = MakeTable(s);
  for (int i = 0; i < 100; ++i) t->AppendRow({int32_t{i % 10}});
  ASSERT_TRUE(cat.RegisterTable("t", t).ok());
  std::optional<ColumnStats> stats = cat.GetColumnStats("t", "k");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->distinct_count, 10);
  EXPECT_EQ(std::get<int32_t>(stats->min_value), 0);
  EXPECT_EQ(std::get<int32_t>(stats->max_value), 9);
}

TEST(CatalogTest, ReplaceTableRecomputesStats) {
  Catalog cat;
  Schema s({{"k", TypeId::kInt32}});
  TablePtr t1 = MakeTable(s);
  t1->AppendRow({int32_t{1}});
  ASSERT_TRUE(cat.RegisterTable("t", t1).ok());
  TablePtr t2 = MakeTable(s);
  t2->AppendRow({int32_t{1}});
  t2->AppendRow({int32_t{2}});
  ASSERT_TRUE(cat.ReplaceTable("t", t2).ok());
  EXPECT_EQ(cat.GetColumnStats("t", "k")->distinct_count, 2);
  EXPECT_FALSE(cat.ReplaceTable("nope", t2).ok());
}

// ---------------------------------------------------------------------------
// On-demand column statistics and copy-on-append growth.
// ---------------------------------------------------------------------------

const std::vector<TypeId> kAllTypes = {TypeId::kBool,  TypeId::kInt32,
                                       TypeId::kDate,  TypeId::kInt64,
                                       TypeId::kDouble, TypeId::kString};

/// One column per TypeId, named c0..c5.
Schema AllTypesSchema() {
  std::vector<Field> fields;
  for (size_t i = 0; i < kAllTypes.size(); ++i) {
    fields.push_back({"c" + std::to_string(i), kAllTypes[i]});
  }
  return Schema(std::move(fields));
}

/// Maps a small non-negative key to a value of `type`, preserving order
/// (so non-decreasing keys give non-decreasing values in every type).
Datum KeyToDatum(TypeId type, int64_t x) {
  switch (type) {
    case TypeId::kBool:
      return x >= 50;
    case TypeId::kInt32:
    case TypeId::kDate:
      return static_cast<int32_t>(x - 40);
    case TypeId::kInt64:
      return int64_t{1'000'000'000} * x - 7;
    case TypeId::kDouble:
      return 0.25 * static_cast<double>(x) - 3.0;
    case TypeId::kString:
      return StrFormat("s%05lld", static_cast<long long>(x));
  }
  RDB_UNREACHABLE("bad type");
}

/// `rows` rows over AllTypesSchema(). Keys are non-decreasing from
/// `first_key` (step 1 every third row) when `sorted`, else uniform in
/// [0, 100) per column.
std::vector<std::vector<Datum>> MakeRows(int64_t rows, bool sorted,
                                         int64_t first_key,
                                         std::mt19937_64* rng) {
  std::vector<std::vector<Datum>> out(rows);
  for (int64_t r = 0; r < rows; ++r) {
    for (TypeId type : kAllTypes) {
      const int64_t x = sorted ? first_key + r / 3
                               : static_cast<int64_t>((*rng)() % 100);
      out[r].push_back(KeyToDatum(type, x));
    }
  }
  return out;
}

/// A batch holding `rows[from, to)`.
Batch RowsToBatch(const Schema& schema,
                  const std::vector<std::vector<Datum>>& rows, int64_t from,
                  int64_t to) {
  Batch b;
  for (const auto& f : schema.fields()) b.columns.push_back(MakeColumn(f.type));
  for (int64_t r = from; r < to; ++r) {
    for (size_t c = 0; c < b.columns.size(); ++c) {
      b.columns[c]->Append(rows[r][c]);
    }
  }
  b.num_rows = to - from;
  return b;
}

/// The statistics pass the catalog ran eagerly before they were computed
/// on demand: every cell boxed, min/max by DatumCompare, distinct row
/// hashes. Kept as the reference the on-demand stats must equal.
ColumnStats BoxedReferenceStats(const ColumnVector& col) {
  ColumnStats stats;
  std::unordered_set<uint64_t> distinct;
  int64_t n = col.size();
  for (int64_t r = 0; r < n; ++r) {
    distinct.insert(col.HashRow(r, 0));
    Datum d = col.GetDatum(r);
    if (r == 0) {
      stats.min_value = d;
      stats.max_value = d;
    } else {
      if (DatumCompare(d, stats.min_value) < 0) stats.min_value = d;
      if (DatumCompare(d, stats.max_value) > 0) stats.max_value = d;
    }
  }
  stats.distinct_count = static_cast<int64_t>(distinct.size());
  return stats;
}

void ExpectSameStats(const ColumnStats& got, const ColumnStats& want,
                     const std::string& where) {
  EXPECT_EQ(got.distinct_count, want.distinct_count) << where;
  EXPECT_TRUE(got.min_value == want.min_value)
      << where << ": min " << DatumToString(got.min_value) << " vs "
      << DatumToString(want.min_value);
  EXPECT_TRUE(got.max_value == want.max_value)
      << where << ": max " << DatumToString(got.max_value) << " vs "
      << DatumToString(want.max_value);
}

/// Checks every column of catalog table `name` against the reference.
void ExpectStatsMatchReference(const Catalog& cat, const std::string& name) {
  TablePtr t = cat.GetTable(name);
  ASSERT_NE(t, nullptr);
  for (int c = 0; c < t->num_columns(); ++c) {
    const Field& f = t->schema().field(c);
    std::optional<ColumnStats> got = cat.GetColumnStats(name, f.name);
    ASSERT_TRUE(got.has_value()) << f.name;
    ExpectSameStats(*got, BoxedReferenceStats(*t->column(c)),
                    name + "." + f.name + " (" + TypeName(f.type) + ")");
  }
}

TEST(CatalogTest, OnDemandStatsEqualBoxedReferenceForEveryType) {
  std::mt19937_64 rng(7);
  const Schema schema = AllTypesSchema();
  Catalog cat;
  // Random rows over three zone-map blocks, a sorted table, an empty one.
  auto random_rows = MakeRows(2500, false, 0, &rng);
  TablePtr random_table = MakeTable(schema);
  random_table->AppendBatch(RowsToBatch(schema, random_rows, 0, 2500));
  ASSERT_TRUE(cat.RegisterTable("random", random_table).ok());
  auto sorted_rows = MakeRows(1500, true, 0, &rng);
  TablePtr sorted_table = MakeTable(schema);
  sorted_table->AppendBatch(RowsToBatch(schema, sorted_rows, 0, 1500));
  ASSERT_TRUE(cat.RegisterTable("sorted", sorted_table).ok());
  ASSERT_TRUE(cat.RegisterTable("empty", MakeTable(schema)).ok());

  ExpectStatsMatchReference(cat, "random");
  ExpectStatsMatchReference(cat, "sorted");
  ExpectStatsMatchReference(cat, "empty");
  // The memoized second read answers the same.
  ExpectStatsMatchReference(cat, "random");
  EXPECT_FALSE(cat.GetColumnStats("random", "nope").has_value());
  EXPECT_FALSE(cat.GetColumnStats("nope", "c0").has_value());
}

TEST(CatalogTest, StatsReflectAppendedAndReplacedRows) {
  std::mt19937_64 rng(11);
  const Schema schema = AllTypesSchema();
  Catalog cat;
  auto rows = MakeRows(1100, true, 10, &rng);
  TablePtr base = MakeTable(schema);
  base->AppendBatch(RowsToBatch(schema, rows, 0, 1100));
  ASSERT_TRUE(cat.RegisterTable("t", base).ok());
  ExpectStatsMatchReference(cat, "t");  // memoizes every column

  // Appended keys lie below and above the base's range.
  auto delta_rows = MakeRows(20, false, 0, &rng);
  delta_rows.push_back(MakeRows(1, true, 900, &rng)[0]);
  TablePtr delta = MakeTable(schema);
  delta->AppendBatch(RowsToBatch(schema, delta_rows, 0, 21));
  const int64_t before = cat.GetColumnStats("t", "c1")->distinct_count;
  ASSERT_TRUE(cat.AppendRows("t", *delta).ok());
  ExpectStatsMatchReference(cat, "t");
  EXPECT_GT(cat.GetColumnStats("t", "c1")->distinct_count, before);
  EXPECT_EQ(std::get<int32_t>(cat.GetColumnStats("t", "c1")->max_value),
            900 - 40);

  auto replaced_rows = MakeRows(300, false, 0, &rng);
  TablePtr replaced = MakeTable(schema);
  replaced->AppendBatch(RowsToBatch(schema, replaced_rows, 0, 300));
  ASSERT_TRUE(cat.ReplaceTable("t", replaced).ok());
  ExpectStatsMatchReference(cat, "t");
  EXPECT_LT(std::get<int32_t>(cat.GetColumnStats("t", "c1")->max_value),
            100 - 40);
}

TEST(CatalogTest, ColumnStatsOutliveAnAppend) {
  // A caller keeps the stats it read while an append publishes a new
  // version (and drops the memo); the kept result must stay readable.
  Catalog cat;
  Schema s({{"k", TypeId::kInt32}});
  TablePtr t = MakeTable(s);
  for (int i = 0; i < 100; ++i) t->AppendRow({int32_t{i % 10}});
  ASSERT_TRUE(cat.RegisterTable("t", t).ok());
  auto kept = cat.GetColumnStats("t", "k");
  TablePtr delta = MakeTable(s);
  delta->AppendRow({int32_t{42}});
  ASSERT_TRUE(cat.AppendRows("t", *delta).ok());
  EXPECT_EQ(kept->distinct_count, 10);
  EXPECT_EQ(std::get<int32_t>(kept->max_value), 9);
  EXPECT_EQ(cat.GetColumnStats("t", "k")->distinct_count, 11);
}

TEST(CatalogTest, ConcurrentAppendsAndStatsReads) {
  // One thread appends one new key per batch while another reads stats:
  // every read must describe some published version, and versions only
  // grow.
  Catalog cat;
  Schema s({{"k", TypeId::kInt64}});
  TablePtr t = MakeTable(s);
  for (int64_t i = 0; i < 4000; ++i) t->AppendRow({i});
  ASSERT_TRUE(cat.RegisterTable("t", t).ok());
  constexpr int64_t kAppends = 1000;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    int64_t last = 0;
    while (!done.load()) {
      std::optional<ColumnStats> st = cat.GetColumnStats("t", "k");
      ASSERT_TRUE(st.has_value());
      // Keys are 0..n-1 in every version, so distinct == max + 1.
      EXPECT_EQ(st->distinct_count, std::get<int64_t>(st->max_value) + 1);
      EXPECT_EQ(std::get<int64_t>(st->min_value), 0);
      EXPECT_GE(st->distinct_count, last);
      last = st->distinct_count;
    }
  });
  for (int64_t i = 0; i < kAppends; ++i) {
    TablePtr delta = MakeTable(s);
    delta->AppendRow({int64_t{4000} + i});
    EXPECT_TRUE(cat.AppendRows("t", *delta).ok());
  }
  done.store(true);
  reader.join();
  EXPECT_EQ(cat.GetColumnStats("t", "k")->distinct_count, 4000 + kAppends);
}

void ExpectSameZoneMap(const ZoneMap& got, const ZoneMap& want,
                       const std::string& where) {
  EXPECT_EQ(got.rows_covered(), want.rows_covered()) << where;
  EXPECT_EQ(got.sorted(), want.sorted()) << where;
  ASSERT_EQ(got.num_blocks(), want.num_blocks()) << where;
  for (int64_t b = 0; b < got.num_blocks(); ++b) {
    const ZoneEntry& g = got.block(b);
    const ZoneEntry& w = want.block(b);
    EXPECT_TRUE(g.min == w.min) << where << " block " << b;
    EXPECT_TRUE(g.max == w.max) << where << " block " << b;
    EXPECT_EQ(g.sorted, w.sorted) << where << " block " << b;
    EXPECT_EQ(g.null_free, w.null_free) << where << " block " << b;
  }
}

TEST(TableTest, WithAppendedEqualsTableBuiltFromScratch) {
  std::mt19937_64 rng(20240611);
  const Schema schema = AllTypesSchema();
  const std::vector<int64_t> edge = {0, 1, 1023, 1024, 1025};
  std::vector<std::pair<int64_t, int64_t>> sizes;
  for (int64_t b : edge) {
    for (int64_t d : edge) sizes.push_back({b, d});
    sizes.push_back({b, 20});
  }
  for (int i = 0; i < 12; ++i) {
    sizes.push_back({static_cast<int64_t>(rng() % 3000),
                     static_cast<int64_t>(rng() % 1500)});
  }
  for (const auto& [base_rows, delta_rows] : sizes) {
    for (int mode = 0; mode < 3; ++mode) {
      // 0: random; 1: sorted across base and delta; 2: each part sorted,
      // the delta restarting below the base's last key.
      const bool sorted = mode > 0;
      const int64_t delta_key = mode == 1 ? base_rows / 3 : 0;
      auto rows = MakeRows(base_rows, sorted, 0, &rng);
      auto delta_part = MakeRows(delta_rows, sorted, delta_key, &rng);
      rows.insert(rows.end(), delta_part.begin(), delta_part.end());
      const int64_t total = base_rows + delta_rows;
      const std::string where = StrFormat(
          "base=%lld delta=%lld mode=%d", static_cast<long long>(base_rows),
          static_cast<long long>(delta_rows), mode);

      // The base grows in uneven batches, like a table built by earlier
      // appends, so its last block may be partial.
      TablePtr base = MakeTable(schema);
      for (int64_t r = 0; r < base_rows;) {
        const int64_t step =
            std::min<int64_t>(base_rows - r, 1 + rng() % 700);
        base->AppendBatch(RowsToBatch(schema, rows, r, r + step));
        r += step;
      }
      TablePtr delta = MakeTable(schema);
      delta->AppendBatch(RowsToBatch(schema, rows, base_rows, total));
      TablePtr scratch = MakeTable(schema);
      scratch->AppendBatch(RowsToBatch(schema, rows, 0, total));
      std::vector<ZoneMap> base_zones;
      for (int c = 0; c < base->num_columns(); ++c) {
        base_zones.push_back(base->zone_map(c));
      }

      TablePtr grown = base->WithAppended(*delta);
      ASSERT_EQ(grown->num_rows(), total) << where;
      ASSERT_EQ(base->num_rows(), base_rows) << where;
      for (int c = 0; c < grown->num_columns(); ++c) {
        const std::string col_where =
            where + " col=" + TypeName(kAllTypes[c]);
        ASSERT_EQ(grown->column(c)->size(), total) << col_where;
        for (int64_t r = 0; r < total; ++r) {
          ASSERT_TRUE(grown->column(c)->RowEquals(r, *scratch->column(c), r))
              << col_where << " row " << r;
        }
        ExpectSameZoneMap(grown->zone_map(c), scratch->zone_map(c),
                          col_where);
        ExpectSameZoneMap(base->zone_map(c), base_zones[c],
                          col_where + " (base)");
      }
    }
  }
}

}  // namespace
}  // namespace recycledb
