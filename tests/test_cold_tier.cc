// Tests for the persistent second-tier result cache (cold tier):
// spill-file round trips and corruption handling, eviction-to-disk with
// lazy re-admission through the exact / subsumption / partial-stitch
// reuse paths, second-chance replacement at the byte cap, restart
// recovery (orphan adoption, and orphan slices rebuilt from their select
// descriptor and stitched without their statement running again, reading
// only the cold slices a stitch uses), invalidation purging spilled
// entries, graceful degradation under a tiny disk quota, canonical-key
// stability under graph-id shifts and distinctness under suffix-like
// column names, a private tier reclaiming its files at once when it
// reopens under the default instance id, and concurrent spill-vs-lookup
// and restart-rebuild stress runs. Every (re)open is followed by
// Recycler::CheckConsistency.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <set>
#include <shared_mutex>
#include <thread>

#include "common/hash.h"
#include "fleet/manifest.h"
#include "recycledb/recycledb.h"
#include "recycler/cold_tier.h"
#include "recycler/recycler.h"
#include "storage/spill_file.h"
#include "test_util.h"

namespace recycledb {
namespace {

namespace fs = std::filesystem;
using recycledb::testing::RowMultiset;
using recycledb::testing::SpillFiles;
using recycledb::testing::TempSpillDir;

/// Deterministic test table: `rows` rows of (a: 0..9, v: spread over
/// [0, 10000)).
TablePtr MakeTestTable(int rows) {
  Schema s({{"a", TypeId::kInt32}, {"v", TypeId::kDouble}});
  TablePtr t = MakeTable(s);
  for (int i = 0; i < rows; ++i) {
    t->AppendRow({static_cast<int32_t>(i % 10),
                  static_cast<double>((i * 7919) % 10000)});
  }
  return t;
}

PlanPtr RangeQuery(double lo, double hi) {
  return PlanNode::Select(
      PlanNode::Scan("f", {"a", "v"}),
      Expr::And(Expr::Ge(Expr::Column("v"), Expr::Literal(lo)),
                Expr::Lt(Expr::Column("v"), Expr::Literal(hi))));
}

/// Single-conjunct broad selection (the subsumption seed: a refinement's
/// conjuncts are a superset of exactly this one).
PlanPtr BroadQuery(double lo) {
  return PlanNode::Select(PlanNode::Scan("f", {"a", "v"}),
                          Expr::Gt(Expr::Column("v"), Expr::Literal(lo)));
}

PlanPtr RefineQuery(double lo, int32_t a) {
  return PlanNode::Select(
      PlanNode::Scan("f", {"a", "v"}),
      Expr::And(Expr::Gt(Expr::Column("v"), Expr::Literal(lo)),
                Expr::Eq(Expr::Column("a"), Expr::Literal(a))));
}

std::unique_ptr<Database> OpenDb(const std::string& spill_dir,
                                 int64_t hot_bytes, int rows,
                                 int64_t cold_capacity = 256ll << 20,
                                 CachePolicy policy = CachePolicy::kLru) {
  DatabaseOptions options;
  options.recycler.mode = RecyclerMode::kSpeculation;
  options.recycler.cache_bytes = hot_bytes;
  options.recycler.cache_policy = policy;
  options.recycler.spill_dir = spill_dir;
  options.recycler.cold_tier_capacity_bytes = cold_capacity;
  options.recycler.capture_plan_explain = true;  // see BaseScans
  std::unique_ptr<Database> db = Database::OpenOrDie(options);
  RDB_CHECK(db->CreateTable("f", MakeTestTable(rows)).ok());
  EXPECT_CONSISTENT(db);  // every (re)open: the tier against its log
  return db;
}

/// Scans of the base table in the plan `r` ran (a stitch's delta branch
/// is one).
int BaseScans(const Result& r) {
  int n = 0;
  const std::string& text = r.trace().plan_explain;
  for (size_t at = text.find("Scan f ["); at != std::string::npos;
       at = text.find("Scan f [", at + 1)) {
    ++n;
  }
  return n;
}

std::multiset<std::string> Expected(Database* db, PlanPtr plan) {
  SessionOptions so;
  so.bypass_recycler = true;
  auto session = db->Connect(so);
  Result r = session->Execute(std::move(plan));
  RDB_CHECK(r.ok());
  return RowMultiset(*r.table());
}

// ---------------------------------------------------------------------------
// Spill file format
// ---------------------------------------------------------------------------

TEST(SpillFile, RoundTripAllTypesBitEqual) {
  TempSpillDir dir;
  Schema s({{"b", TypeId::kBool},
            {"i", TypeId::kInt32},
            {"l", TypeId::kInt64},
            {"d", TypeId::kDouble},
            {"s", TypeId::kString},
            {"dt", TypeId::kDate}});
  TablePtr t = MakeTable(s);
  for (int i = 0; i < 1500; ++i) {
    t->AppendRow({i % 3 == 0, static_cast<int32_t>(i - 700),
                  static_cast<int64_t>(i) * 1234567, i * 0.37 - 200.0,
                  std::string(i % 17, 'x') + std::to_string(i),
                  MakeDate(2013, 4, 1 + i % 28)});
  }
  SpillFileMeta meta;
  meta.canon_key = "4{select:x}(0{scan:f})";
  meta.column_names = t->schema().Names();
  for (const Field& f : s.fields()) meta.column_types.push_back(f.type);
  meta.num_rows = t->num_rows();
  meta.bcost_ms = 12.5;
  meta.h = 3.25;
  meta.benefit = 0.125;
  meta.base_tables = {"f", "g"};
  meta.table_versions = {{"g", 7}, {"f", 4000}};

  const std::string path = dir.path() + "/roundtrip.spill";
  ASSERT_TRUE(WriteSpillFile(path, *t, meta).ok());

  SpillFileMeta header;
  ASSERT_TRUE(ReadSpillMeta(path, &header).ok());
  EXPECT_EQ(header.canon_key, meta.canon_key);
  EXPECT_EQ(header.column_names, meta.column_names);
  EXPECT_EQ(header.column_types, meta.column_types);
  EXPECT_EQ(header.num_rows, meta.num_rows);
  EXPECT_DOUBLE_EQ(header.bcost_ms, meta.bcost_ms);
  EXPECT_DOUBLE_EQ(header.h, meta.h);
  EXPECT_EQ(header.base_tables, meta.base_tables);
  EXPECT_EQ(header.table_versions, meta.table_versions);

  SpillFileMeta meta2;
  TablePtr back;
  ASSERT_TRUE(ReadSpillTable(path, &meta2, &back).ok());
  ASSERT_EQ(back->num_rows(), t->num_rows());
  ASSERT_EQ(back->schema(), t->schema());
  // Bit equality, row for row and in order.
  for (int64_t r = 0; r < t->num_rows(); ++r) {
    for (int c = 0; c < t->num_columns(); ++c) {
      EXPECT_TRUE(DatumEquals(t->Get(r, c), back->Get(r, c)))
          << "row " << r << " col " << c;
    }
  }
}

TEST(SpillFile, EmptyResultRoundTrips) {
  TempSpillDir dir;
  Schema s({{"a", TypeId::kInt32}, {"s", TypeId::kString}});
  TablePtr t = MakeTable(s);  // zero rows: a valid, cacheable result
  SpillFileMeta meta;
  meta.canon_key = "empty";
  meta.column_names = t->schema().Names();
  meta.column_types = {TypeId::kInt32, TypeId::kString};
  meta.num_rows = 0;
  const std::string path = dir.path() + "/empty.spill";
  ASSERT_TRUE(WriteSpillFile(path, *t, meta).ok());
  SpillFileMeta m2;
  TablePtr back;
  ASSERT_TRUE(ReadSpillTable(path, &m2, &back).ok());
  EXPECT_EQ(back->num_rows(), 0);
  EXPECT_EQ(back->schema(), t->schema());
}

TEST(SpillFile, TruncatedFileRejectedRecoverably) {
  TempSpillDir dir;
  TablePtr t = MakeTestTable(500);
  SpillFileMeta meta;
  meta.canon_key = "k";
  meta.column_names = t->schema().Names();
  meta.column_types = {TypeId::kInt32, TypeId::kDouble};
  meta.num_rows = t->num_rows();
  const std::string path = dir.path() + "/trunc.spill";
  ASSERT_TRUE(WriteSpillFile(path, *t, meta).ok());

  fs::resize_file(path, fs::file_size(path) / 2);
  SpillFileMeta m2;
  TablePtr back;
  Status st = ReadSpillTable(path, &m2, &back);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(back, nullptr);
}

TEST(SpillFile, CorruptPayloadFailsChecksum) {
  TempSpillDir dir;
  TablePtr t = MakeTestTable(500);
  SpillFileMeta meta;
  meta.canon_key = "k";
  meta.column_names = t->schema().Names();
  meta.column_types = {TypeId::kInt32, TypeId::kDouble};
  meta.num_rows = t->num_rows();
  const std::string path = dir.path() + "/corrupt.spill";
  ASSERT_TRUE(WriteSpillFile(path, *t, meta).ok());

  // Flip one payload byte (before the trailing checksum).
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, -64, SEEK_END);
  int c = std::fgetc(f);
  std::fseek(f, -64, SEEK_END);
  std::fputc(c ^ 0x5a, f);
  std::fclose(f);

  SpillFileMeta m2;
  TablePtr back;
  Status st = ReadSpillTable(path, &m2, &back);
  EXPECT_FALSE(st.ok());
}

TEST(SpillFile, ImplausibleRowCountRejectedBeforeAllocation) {
  TempSpillDir dir;
  TablePtr t = MakeTestTable(100);
  SpillFileMeta meta;
  meta.canon_key = "k";
  meta.column_names = t->schema().Names();
  meta.column_types = {TypeId::kInt32, TypeId::kDouble};
  meta.num_rows = t->num_rows();
  const std::string path = dir.path() + "/rows.spill";
  ASSERT_TRUE(WriteSpillFile(path, *t, meta).ok());

  // Patch the header's num_rows (offset: 16-byte prefix + "k" string
  // (5) + ncols (4) + two "a"/"v" column records (6 each)) to a value
  // that would allocate terabytes if trusted, and recompute the
  // checksum over header + payload so the file stays checksum-valid.
  // The codecs must fail with a recoverable Status before allocating.
  std::string bytes;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    bytes.resize(fs::file_size(path));
    ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }
  const uint64_t huge = 1ull << 40;
  std::memcpy(&bytes[16 + 5 + 4 + 6 + 6], &huge, sizeof(huge));
  StreamChecksum checksum;
  checksum.Update(bytes.data() + 16, bytes.size() - 16 - 8);
  const uint64_t sum = checksum.Digest();
  std::memcpy(&bytes[bytes.size() - 8], &sum, sizeof(sum));
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }

  SpillFileMeta m2;
  ASSERT_TRUE(ReadSpillMeta(path, &m2).ok());
  ASSERT_EQ(m2.num_rows, static_cast<int64_t>(huge));
  TablePtr back;
  Status st = ReadSpillTable(path, &m2, &back);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("row count"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(back, nullptr);
  st = ReadSpillTableFiltered(path, &m2, 1, ColumnInterval{}, &back);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(back, nullptr);
}

TEST(SpillFile, GarbageFileRejected) {
  TempSpillDir dir;
  const std::string path = dir.path() + "/garbage.spill";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("this is not a spill file", f);
  std::fclose(f);
  SpillFileMeta meta;
  EXPECT_FALSE(ReadSpillMeta(path, &meta).ok());
}

TEST(StreamChecksum, IsXxh64AndIgnoresChunking) {
  auto digest = [](const std::string& bytes) {
    StreamChecksum c;
    c.Update(bytes.data(), bytes.size());
    return c.Digest();
  };
  // Published XXH64 (seed 0) values.
  EXPECT_EQ(digest(""), 0xef46db3751d8e999ULL);
  EXPECT_EQ(digest("a"), 0xd24ec4f1a98c6e5bULL);
  EXPECT_EQ(digest("Nobody inspects the spammish repetition"),
            0xfbcea83c8a378bf1ULL);

  std::string buf;
  for (int i = 0; i < 1000; ++i) {
    buf.push_back(static_cast<char>((i * 131 + i / 7) & 0xff));
  }
  const uint64_t whole = digest(buf);
  for (size_t cut = 0; cut <= buf.size(); ++cut) {
    StreamChecksum c;
    c.Update(buf.data(), cut);
    c.Update(buf.data() + cut, buf.size() - cut);
    ASSERT_EQ(c.Digest(), whole) << "split at " << cut;
  }
  for (size_t chunk = 1; chunk <= 70; ++chunk) {
    StreamChecksum c;
    for (size_t pos = 0; pos < buf.size(); pos += chunk) {
      c.Update(buf.data() + pos, std::min(chunk, buf.size() - pos));
    }
    ASSERT_EQ(c.Digest(), whole) << "chunks of " << chunk;
  }
  // The length is mixed in: a trailing zero byte changes the digest.
  EXPECT_NE(digest(buf + std::string(1, '\0')), whole);
}

TEST(SpillFile, EveryByteFlipAndTruncationIsAnError) {
  TempSpillDir dir;
  TablePtr t = MakeTestTable(200);
  SpillFileMeta meta;
  meta.canon_key = "k";
  meta.column_names = t->schema().Names();
  meta.column_types = {TypeId::kInt32, TypeId::kDouble};
  meta.num_rows = t->num_rows();
  const std::string path = dir.path() + "/flip.spill";
  auto put = [&path](const std::string& bytes) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  };
  // Neither the full nor the filtered read may accept the file.
  auto rejected = [&path] {
    SpillFileMeta m;
    TablePtr back;
    if (ReadSpillTable(path, &m, &back).ok() || back != nullptr) return false;
    return !ReadSpillTableFiltered(path, &m, 1, ColumnInterval{}, &back).ok() &&
           back == nullptr;
  };
  for (bool compress : {true, false}) {
    SCOPED_TRACE(compress ? "compressed" : "raw");
    SpillWriteOptions opts;
    opts.compress = compress;
    ASSERT_TRUE(WriteSpillFile(path, *t, meta, opts).ok());
    std::string bytes;
    {
      std::FILE* f = std::fopen(path.c_str(), "rb");
      ASSERT_NE(f, nullptr);
      bytes.resize(fs::file_size(path));
      ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
      std::fclose(f);
    }
    ASSERT_GT(bytes.size(), 1500u);
    ASSERT_LT(bytes.size(), 2600u);
    for (size_t pos = 0; pos < bytes.size(); ++pos) {
      for (unsigned char mask : {0x01, 0xff}) {
        std::string flipped = bytes;
        flipped[pos] = static_cast<char>(flipped[pos] ^ mask);
        put(flipped);
        ASSERT_TRUE(rejected()) << "byte " << pos << " ^ " << int{mask};
      }
    }
    for (size_t len = 0; len < bytes.size(); ++len) {
      put(bytes.substr(0, len));
      ASSERT_TRUE(rejected()) << "truncated to " << len;
    }
    put(bytes);
    EXPECT_TRUE(!rejected());
  }
}

TEST(ColdTier, PrivateOpenWritesNothingToAFreshDir) {
  TempSpillDir dir;
  // Open checks that the directory is writable without writing to it: a
  // probe file would show as a changed modification time even after its
  // unlink. The sleep puts any such change past the clock's granularity.
  const auto before = fs::last_write_time(dir.path());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  DatabaseOptions options;
  options.recycler.spill_dir = dir.path();
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(options, &db).ok());
  EXPECT_TRUE(fs::is_empty(dir.path()));
  EXPECT_EQ(fs::last_write_time(dir.path()), before);
  db.reset();  // nothing ran, so the checkpoint has nothing to write
  EXPECT_TRUE(fs::is_empty(dir.path()));
}

// ---------------------------------------------------------------------------
// Eviction -> spill -> lazy re-admission
// ---------------------------------------------------------------------------

TEST(ColdTier, EvictionSpillsAndExactMatchReadmits) {
  TempSpillDir dir;
  // Hot cache fits one ~70KB range result; the second evicts the first.
  auto db = OpenDb(dir.path(), 128 << 10, 20000);
  auto expected_a = Expected(db.get(), RangeQuery(0, 3000));

  ASSERT_TRUE(db->Execute(RangeQuery(0, 3000)).ok());
  ASSERT_TRUE(db->Execute(RangeQuery(3000, 6000)).ok());
  db->recycler().cold_tier().Drain();  // eviction spills asynchronously
  EXPECT_GE(db->counters().cold_spills.load(), 1);
  EXPECT_GE(db->graph_stats().num_cold, 1);

  Result again = db->Execute(RangeQuery(0, 3000));
  ASSERT_TRUE(again.ok());
  EXPECT_GE(again.trace().num_reuses, 1);
  EXPECT_GE(again.trace().num_cold_hits, 1);
  EXPECT_EQ(RowMultiset(*again.table()), expected_a);
  // The cold hit promoted the entry back into the hot tier.
  EXPECT_GE(db->counters().cold_readmissions.load(), 1);
}

TEST(ColdTier, SubsumptionReadmitsFromCold) {
  TempSpillDir dir;
  auto db = OpenDb(dir.path(), 256 << 20, 20000);
  auto expected = Expected(db.get(), RefineQuery(5000, 3));

  ASSERT_TRUE(db->Execute(BroadQuery(5000)).ok());
  db->FlushCache();  // demotes the broad slice to the cold tier
  EXPECT_GE(db->graph_stats().num_cold, 1);

  Result r = db->Execute(RefineQuery(5000, 3));
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r.trace().num_subsumption_reuses, 1);
  EXPECT_GE(r.trace().num_cold_hits, 1);
  EXPECT_EQ(RowMultiset(*r.table()), expected);
}

TEST(ColdTier, PartialStitchReadmitsFromCold) {
  TempSpillDir dir;
  auto db = OpenDb(dir.path(), 256 << 20, 20000);
  auto expected = Expected(db.get(), RangeQuery(1000, 5000));

  ASSERT_TRUE(db->Execute(RangeQuery(0, 3000)).ok());
  ASSERT_TRUE(db->Execute(RangeQuery(3000, 6000)).ok());
  int64_t registered = db->recycler().interval_index_entries();
  db->FlushCache();
  // Cold slices keep their interval-index registrations.
  EXPECT_EQ(db->recycler().interval_index_entries(), registered);

  Result r = db->Execute(RangeQuery(1000, 5000));
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r.trace().num_partial_reuses, 1);
  EXPECT_GE(r.trace().num_cold_hits, 2);  // both slices loaded from disk
  EXPECT_EQ(RowMultiset(*r.table()), expected);
}

TEST(ColdTier, RejectedPromotionStillServesSnapshot) {
  TempSpillDir dir;
  // Benefit policy + tiny hot cache: after eviction the cold entry may
  // not win re-admission, but the loaded snapshot must still serve.
  auto db = OpenDb(dir.path(), 128 << 10, 20000, 256ll << 20,
                   CachePolicy::kBenefit);
  auto expected = Expected(db.get(), RangeQuery(0, 3000));
  ASSERT_TRUE(db->Execute(RangeQuery(0, 3000)).ok());
  db->FlushCache();
  Result again = db->Execute(RangeQuery(0, 3000));
  ASSERT_TRUE(again.ok());
  EXPECT_GE(again.trace().num_cold_hits, 1);
  EXPECT_EQ(RowMultiset(*again.table()), expected);
}

// ---------------------------------------------------------------------------
// Replacement and degradation
// ---------------------------------------------------------------------------

TEST(ColdTier, SecondChanceEvictionRespectsByteCap) {
  TempSpillDir dir;
  // Each ~1500-wide slice is ~18KB on disk; cap the tier at ~40KB so
  // only about two fit.
  const int64_t cap = 40 << 10;
  auto db = OpenDb(dir.path(), 256 << 20, 20000, cap);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(db->Execute(RangeQuery(i * 1500.0, (i + 1) * 1500.0)).ok());
  }
  db->FlushCache();  // spills all six; the sweep must hold the cap
  ColdTierStats stats = db->recycler().cold_tier().Stats();
  EXPECT_LE(stats.used_bytes, cap);
  EXPECT_GT(stats.entries, 0);
  EXPECT_LT(stats.entries, 6);
  EXPECT_GE(db->counters().cold_evictions.load(), 1);
  // Swept-away entries are gone; surviving or recomputed, results stay
  // correct.
  Result r = db->Execute(RangeQuery(0, 1500));
  ASSERT_TRUE(r.ok());
}

TEST(ColdTier, TinyQuotaDegradesToMemoryOnly) {
  TempSpillDir dir;
  // Valid but useless quota: every result is larger, so every spill is
  // rejected and the engine behaves exactly like a memory-only build.
  auto db = OpenDb(dir.path(), 256 << 20, 20000, /*cold_capacity=*/4096);
  auto expected = Expected(db.get(), RangeQuery(0, 3000));
  ASSERT_TRUE(db->Execute(RangeQuery(0, 3000)).ok());
  db->FlushCache();
  EXPECT_EQ(db->recycler().cold_tier().Stats().entries, 0);
  Result r = db->Execute(RangeQuery(0, 3000));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.trace().num_cold_hits, 0);
  EXPECT_EQ(RowMultiset(*r.table()), expected);
  EXPECT_EQ(db->counters().cold_spills.load(), 0);
}

TEST(ColdTier, CorruptSpillFileIsRecoverable) {
  TempSpillDir dir;
  auto db = OpenDb(dir.path(), 256 << 20, 20000);
  auto expected = Expected(db.get(), RangeQuery(0, 3000));
  ASSERT_TRUE(db->Execute(RangeQuery(0, 3000)).ok());
  db->FlushCache();

  // Corrupt every spill file in place.
  int corrupted = 0;
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    if (entry.path().extension() != ".spill") continue;
    std::FILE* f = std::fopen(entry.path().c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -32, SEEK_END);
    int c = std::fgetc(f);
    std::fseek(f, -32, SEEK_END);
    std::fputc(c ^ 0xff, f);
    std::fclose(f);
    ++corrupted;
  }
  ASSERT_GE(corrupted, 1);

  // The query recomputes (no abort), the dead entry is dropped, and the
  // error is counted.
  Result r = db->Execute(RangeQuery(0, 3000));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.trace().num_cold_hits, 0);
  EXPECT_EQ(RowMultiset(*r.table()), expected);
  EXPECT_GE(db->counters().cold_load_errors.load(), 1);
}

// ---------------------------------------------------------------------------
// Invalidation (the stale-data bugfix)
// ---------------------------------------------------------------------------

TEST(ColdTier, InvalidateTablePurgesSpilledEntries) {
  TempSpillDir dir;
  auto db = OpenDb(dir.path(), 256 << 20, 20000);
  ASSERT_TRUE(db->Execute(RangeQuery(0, 3000)).ok());
  db->FlushCache();
  ASSERT_GT(db->recycler().cold_tier().Stats().entries, 0);

  db->InvalidateTable("f");
  EXPECT_EQ(db->recycler().cold_tier().Stats().entries, 0);
  Result r = db->Execute(RangeQuery(0, 3000));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.trace().num_cold_hits, 0);
}

TEST(ColdTier, ReplaceTableNeverServesStaleColdResults) {
  TempSpillDir dir;
  auto db = OpenDb(dir.path(), 256 << 20, 20000);
  ASSERT_TRUE(db->Execute(RangeQuery(0, 3000)).ok());
  db->FlushCache();

  // Replace with a table whose every v is out of the cached range: a
  // stale cold result would wrongly return rows.
  Schema s({{"a", TypeId::kInt32}, {"v", TypeId::kDouble}});
  TablePtr fresh = MakeTable(s);
  for (int i = 0; i < 100; ++i) {
    fresh->AppendRow({static_cast<int32_t>(i % 10), 9000.0 + i % 100});
  }
  ASSERT_TRUE(db->ReplaceTable("f", fresh).ok());

  Result r = db->Execute(RangeQuery(0, 3000));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.trace().num_cold_hits, 0);
  EXPECT_EQ(r.num_rows(), 0);
}

// ---------------------------------------------------------------------------
// Restart recovery
// ---------------------------------------------------------------------------

TEST(ColdTier, RestartWarmsUpFromSpillDir) {
  TempSpillDir dir;
  std::multiset<std::string> expected_a, expected_b;
  {
    auto db = OpenDb(dir.path(), 256 << 20, 20000);
    expected_a = Expected(db.get(), RangeQuery(0, 3000));
    expected_b = Expected(db.get(), RangeQuery(4000, 7000));
    ASSERT_TRUE(db->Execute(RangeQuery(0, 3000)).ok());
    ASSERT_TRUE(db->Execute(RangeQuery(4000, 7000)).ok());
    // Destruction checkpoints the hot cache into the spill directory.
  }
  ASSERT_FALSE(fs::is_empty(dir.path()));

  auto db = OpenDb(dir.path(), 256 << 20, 20000);
  EXPECT_GE(db->recycler().cold_tier().Stats().orphans, 2);
  Result ra = db->Execute(RangeQuery(0, 3000));
  Result rb = db->Execute(RangeQuery(4000, 7000));
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_GE(ra.trace().num_cold_hits, 1);
  EXPECT_GE(rb.trace().num_cold_hits, 1);
  EXPECT_EQ(RowMultiset(*ra.table()), expected_a);
  EXPECT_EQ(RowMultiset(*rb.table()), expected_b);
  EXPECT_GE(db->counters().cold_adoptions.load(), 2);
  EXPECT_CONSISTENT(db);
}

TEST(ColdTier, PrivateReopenUnderTheDefaultIdReclaimsAtOnce) {
  // A private tier is a fleet of one under the default id. A copy of its
  // directory taken while it runs is what a crash leaves: the log lists
  // the files under a lease that has not run out. Reopening under the
  // same id owns them at once, with no lease to wait for.
  TempSpillDir dir, crashed;
  std::multiset<std::string> expected;
  {
    auto db = OpenDb(dir.path(), 256 << 20, 20000);
    expected = Expected(db.get(), RangeQuery(0, 3000));
    ASSERT_TRUE(db->Execute(RangeQuery(0, 3000)).ok());
    db->FlushCache();
    EXPECT_CONSISTENT(db);
    for (const auto& e : fs::directory_iterator(dir.path())) {
      fs::copy_file(e.path(), crashed.path() + "/" + e.path().filename().string());
    }
  }
  fleet::ManifestLog log;
  ASSERT_TRUE(log.Open(crashed.path(), /*writable=*/false, /*create=*/false)
                  .ok());
  const fleet::ManifestView& view = log.view();
  ASSERT_EQ(view.entries.size(), 1u);
  EXPECT_EQ(view.entries.begin()->second.owner, kDefaultInstanceId);
  EXPECT_TRUE(view.OwnerLive(kDefaultInstanceId, fleet::UnixMillisNow()));

  for (const std::string& path : {crashed.path(), dir.path()}) {
    auto db = OpenDb(path, 256 << 20, 20000);
    const ColdTierStats stats = db->recycler().cold_tier().Stats();
    EXPECT_EQ(stats.entries, 1);
    EXPECT_EQ(stats.peer_entries, 0);
    EXPECT_GT(stats.used_bytes, 0);
    Result r = db->Execute(RangeQuery(0, 3000));
    ASSERT_TRUE(r.ok());
    EXPECT_GE(r.trace().num_cold_hits, 1);
    EXPECT_EQ(RowMultiset(*r.table()), expected);
    EXPECT_CONSISTENT(db);
  }
}

TEST(ColdTier, RestartAdoptedSlicesServeStitching) {
  TempSpillDir dir;
  std::multiset<std::string> expected;
  {
    auto db = OpenDb(dir.path(), 256 << 20, 20000);
    expected = Expected(db.get(), RangeQuery(1000, 5000));
    ASSERT_TRUE(db->Execute(RangeQuery(0, 3000)).ok());
    ASSERT_TRUE(db->Execute(RangeQuery(3000, 6000)).ok());
  }
  auto db = OpenDb(dir.path(), 256 << 20, 20000);
  // Prime the graph with the slice shapes so adoption re-registers them
  // in the interval index (each served from disk), then stitch.
  Result s1 = db->Execute(RangeQuery(0, 3000));
  Result s2 = db->Execute(RangeQuery(3000, 6000));
  EXPECT_GE(s1.trace().num_cold_hits, 1);
  EXPECT_GE(s2.trace().num_cold_hits, 1);
  Result r = db->Execute(RangeQuery(1000, 5000));
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r.trace().num_reuses, 1);
  EXPECT_EQ(RowMultiset(*r.table()), expected);
  EXPECT_CONSISTENT(db);
}

TEST(ColdTier, RestartReplaceTablePurgesOrphans) {
  TempSpillDir dir;
  {
    auto db = OpenDb(dir.path(), 256 << 20, 20000);
    ASSERT_TRUE(db->Execute(RangeQuery(0, 3000)).ok());
  }
  auto db = OpenDb(dir.path(), 256 << 20, 20000);
  ASSERT_GT(db->recycler().cold_tier().Stats().orphans, 0);

  Schema s({{"a", TypeId::kInt32}, {"v", TypeId::kDouble}});
  TablePtr fresh = MakeTable(s);
  for (int i = 0; i < 100; ++i) {
    fresh->AppendRow({static_cast<int32_t>(i % 10), 9500.0});
  }
  ASSERT_TRUE(db->ReplaceTable("f", fresh).ok());
  EXPECT_EQ(db->recycler().cold_tier().Stats().entries, 0);

  Result r = db->Execute(RangeQuery(0, 3000));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.trace().num_cold_hits, 0);
  EXPECT_EQ(r.num_rows(), 0);  // stale rows would be nonzero
  EXPECT_CONSISTENT(db);
}

TEST(ColdTier, RestartCorruptFileRecomputes) {
  TempSpillDir dir;
  std::multiset<std::string> expected;
  {
    auto db = OpenDb(dir.path(), 256 << 20, 20000);
    expected = Expected(db.get(), RangeQuery(0, 3000));
    ASSERT_TRUE(db->Execute(RangeQuery(0, 3000)).ok());
  }
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    if (entry.path().extension() != ".spill") continue;
    std::FILE* f = std::fopen(entry.path().c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -16, SEEK_END);
    std::fputc(0x77, f);
    std::fclose(f);
  }
  auto db = OpenDb(dir.path(), 256 << 20, 20000);
  Result r = db->Execute(RangeQuery(0, 3000));
  ASSERT_TRUE(r.ok());  // recoverable: recomputed, no abort
  EXPECT_EQ(RowMultiset(*r.table()), expected);
  EXPECT_CONSISTENT(db);
}

// ---------------------------------------------------------------------------
// Spill format v4: the select descriptor
// ---------------------------------------------------------------------------

/// Structural equality with datums compared bit for bit (a double by its
/// bit pattern, so -0.0 differs from +0.0).
bool SameExpr(const Expr& a, const Expr& b) {
  if (a.kind() != b.kind() || a.column_name() != b.column_name() ||
      a.compare_op() != b.compare_op() || a.logical_op() != b.logical_op() ||
      a.arith_op() != b.arith_op() || a.like_kind() != b.like_kind() ||
      a.children().size() != b.children().size()) {
    return false;
  }
  auto same_datum = [](const Datum& x, const Datum& y) {
    if (x.index() != y.index()) return false;
    if (const double* dx = std::get_if<double>(&x)) {
      return std::memcmp(dx, &std::get<double>(y), sizeof(double)) == 0;
    }
    return x == y;
  };
  if (!same_datum(a.literal(), b.literal())) return false;
  if (a.in_values().size() != b.in_values().size()) return false;
  for (size_t i = 0; i < a.in_values().size(); ++i) {
    if (!same_datum(a.in_values()[i], b.in_values()[i])) return false;
  }
  for (size_t i = 0; i < a.children().size(); ++i) {
    if (!SameExpr(*a.children()[i], *b.children()[i])) return false;
  }
  return true;
}

TEST(SpillV4, SelectDescriptorRoundTripsBitExactly) {
  const std::vector<std::string> in = {"d", "i", "day", "s", "x#12"};
  auto col = [](const char* c) { return Expr::Column(c); };
  const ExprPtr pred = AndAll({
      Expr::Gt(col("d"), Expr::Literal(-0.0)),           // open, -0.0
      Expr::Le(col("d"), Expr::Literal(0.1 + 0.2)),      // closed, last bit
      Expr::Ge(col("i"), Expr::Literal(int64_t{-7})),    // int64, closed
      Expr::Lt(col("i"), Expr::Literal(int64_t{1} << 40)),
      Expr::Ge(col("day"), Expr::Literal(int32_t{9000})),  // date
      Expr::Lt(col("day"), Expr::Literal(int32_t{9031})),
      Expr::Ge(col("s"), Expr::Literal(std::string("a'b"))),  // string
      Expr::Lt(col("s"), Expr::Literal(std::string("m\0n", 3))),
      Expr::Not(Expr::In(col("x#12"), {Datum(int32_t{1}), Datum(true),
                                       Datum(), Datum(2.5)})),
      Expr::Like(LikeKind::kPrefix, col("s"), "ab%"),
      Expr::Eq(Expr::Arith(ArithOp::kMul, col("d"), Expr::Literal(-0.0)),
               Expr::Func("abs", {col("d")})),
  });
  // The descriptor's bytes are the predicate's key over the child's
  // output (a Select's positional param key).
  auto schema_of = [](const std::vector<std::string>& names) {
    std::vector<Field> fields;
    for (const std::string& n : names) fields.push_back({n, TypeId::kInt64});
    return Schema(std::move(fields));
  };
  const Schema input = schema_of(in);
  const std::string bytes = pred->Key(&input);

  TempSpillDir dir;
  const std::string path = dir.path() + "/d.spill";
  TablePtr t = MakeTestTable(10);
  SpillFileMeta meta;
  meta.canon_key = "select-key";
  meta.column_names = {"a", "v"};
  meta.column_types = {TypeId::kInt32, TypeId::kDouble};
  meta.num_rows = t->num_rows();
  meta.select_child_key = "child-key";
  meta.select_predicate = bytes;
  ASSERT_TRUE(WriteSpillFile(path, *t, meta).ok());
  SpillFileMeta back;
  ASSERT_TRUE(ReadSpillMeta(path, &back).ok());
  EXPECT_EQ(back.select_child_key, "child-key");
  ASSERT_EQ(back.select_predicate, bytes);

  // Ordinals read back through the reader's own column names.
  ExprPtr decoded = DecodeExprOrdinal(back.select_predicate, in);
  ASSERT_NE(decoded, nullptr);
  EXPECT_TRUE(SameExpr(*decoded, *pred));
  EXPECT_EQ(decoded->Key(nullptr), pred->Key(nullptr));
  // Under other names the same ordinals come back: re-encoding over those
  // names yields the same image.
  const std::vector<std::string> renamed = {"d2", "i2", "day2", "s2", "x#40"};
  ExprPtr moved = DecodeExprOrdinal(bytes, renamed);
  ASSERT_NE(moved, nullptr);
  const Schema renamed_input = schema_of(renamed);
  EXPECT_EQ(moved->Key(&renamed_input), bytes);
  std::set<std::string> moved_columns;
  moved->CollectColumns(&moved_columns);
  EXPECT_EQ(moved_columns,
            std::set<std::string>(renamed.begin(), renamed.end()));

  // The open/closed ends survive as range specs, -0.0 with its sign.
  std::vector<RangeSpec> specs = ExtractRangeSpecs(decoded, nullptr);
  const RangeSpec* d = nullptr;
  for (const RangeSpec& sp : specs) d = sp.column == "d" ? &sp : d;
  ASSERT_NE(d, nullptr);
  EXPECT_FALSE(d->range.lo.inclusive);
  EXPECT_TRUE(d->range.hi.inclusive);
  EXPECT_TRUE(std::signbit(std::get<double>(d->range.lo.value)));
  EXPECT_EQ(std::get<double>(d->range.hi.value), 0.1 + 0.2);

  // A parameter keys by its name and reads back as itself.
  const ExprPtr with_param = Expr::Eq(col("d"), Expr::Param("p"));
  ExprPtr param_back = DecodeExprOrdinal(with_param->Key(&input), in);
  ASSERT_NE(param_back, nullptr);
  EXPECT_TRUE(SameExpr(*param_back, *with_param));
  // Malformed images decode to nothing: truncated, trailing, or an
  // ordinal past the reader's columns.
  EXPECT_EQ(DecodeExprOrdinal(bytes.substr(0, bytes.size() - 1), in),
            nullptr);
  EXPECT_EQ(DecodeExprOrdinal(bytes + "x", in), nullptr);
  EXPECT_EQ(DecodeExprOrdinal(bytes, {"d", "i", "day", "s"}), nullptr);
}

TEST(SpillV4, MismatchedOrphanIsNeverPublishedAndExactInsertAdopts) {
  TempSpillDir dir;
  std::multiset<std::string> expected_slice, expected_inner;
  {
    auto db = OpenDb(dir.path(), 256 << 20, 20000);
    expected_slice = Expected(db.get(), RangeQuery(0, 3000));
    expected_inner = Expected(db.get(), RangeQuery(1000, 2000));
    ASSERT_TRUE(db->Execute(RangeQuery(0, 3000)).ok());
  }
  // Rewrite the file's descriptor to another predicate over the same
  // child, keeping its key: the rebuilt node's key cannot match.
  const std::vector<std::string> files = SpillFiles(dir.path());
  ASSERT_EQ(files.size(), 1u);
  SpillFileMeta meta;
  TablePtr table;
  ASSERT_TRUE(ReadSpillTable(files[0], &meta, &table).ok());
  ASSERT_FALSE(meta.select_child_key.empty());
  const Schema child_output({{"a", TypeId::kInt32}, {"v", TypeId::kDouble}});
  meta.select_predicate =
      Expr::And(Expr::Ge(Expr::Column("v"), Expr::Literal(0.0)),
                Expr::Lt(Expr::Column("v"), Expr::Literal(2999.0)))
          ->Key(&child_output);
  ASSERT_TRUE(WriteSpillFile(files[0], *table, meta).ok());

  auto db = OpenDb(dir.path(), 256 << 20, 20000);
  // A range lookup over the scan walks the orphans filed under it.
  Result inner = db->Execute(RangeQuery(1000, 2000));
  ASSERT_TRUE(inner.ok());
  EXPECT_EQ(inner.trace().num_reuses, 0);
  EXPECT_EQ(RowMultiset(*inner.table()), expected_inner);
  EXPECT_EQ(db->counters().cold_orphan_key_mismatches.load(), 1);
  EXPECT_EQ(db->counters().cold_orphans_rebuilt.load(), 0);
  EXPECT_EQ(db->recycler().cold_tier().Stats().orphans, 1);
  EXPECT_EQ(db->graph_stats().num_cold, 0);

  // The exact statement still adopts the file by its key.
  Result exact = db->Execute(RangeQuery(0, 3000));
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact.trace().num_adoptions, 1);
  EXPECT_EQ(exact.trace().num_cold_hits, 1);
  EXPECT_EQ(RowMultiset(*exact.table()), expected_slice);
}

// ---------------------------------------------------------------------------
// Derived reuse over orphan slices: rebuilt at the first lookup, read only
// when used
// ---------------------------------------------------------------------------

TEST(ColdTier, RestartOrphanSlicesStitchWithoutPriming) {
  TempSpillDir dir;
  std::multiset<std::string> expected;
  {
    auto db = OpenDb(dir.path(), 256 << 20, 20000);
    expected = Expected(db.get(), RangeQuery(1000, 5000));
    ASSERT_TRUE(db->Execute(RangeQuery(0, 3000)).ok());
    ASSERT_TRUE(db->Execute(RangeQuery(3000, 6000)).ok());
  }
  auto db = OpenDb(dir.path(), 256 << 20, 20000);
  Result r = db->Execute(RangeQuery(1000, 5000));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.trace().num_partial_reuses, 1);
  EXPECT_EQ(r.trace().num_adoptions, 2);
  EXPECT_EQ(r.trace().num_cold_hits, 2);
  // No delta branch: the base table is never scanned.
  EXPECT_EQ(BaseScans(r), 0) << r.trace().plan_explain;
  EXPECT_EQ(db->counters().cold_slice_loads.load(), 2);
  EXPECT_EQ(db->counters().cold_orphans_rebuilt.load(), 2);
  EXPECT_EQ(db->counters().cold_readmissions.load(), 0);
  EXPECT_EQ(RowMultiset(*r.table()), expected);
}

TEST(ColdTier, StitchReadsOnlyTheColdSlicesItUses) {
  TempSpillDir dir;
  auto db = OpenDb(dir.path(), 256 << 20, 20000);
  auto expected = Expected(db.get(), RangeQuery(1000, 5500));
  // Eight cold slices overlapping each other, then one hot slice ending
  // where the first cold one starts.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(db->Execute(RangeQuery(3000 + 100 * i, 6000 + 100 * i)).ok());
  }
  db->FlushCache();
  ASSERT_EQ(db->graph_stats().num_cold, 8);
  ASSERT_TRUE(db->Execute(RangeQuery(0, 3000)).ok());
  ASSERT_EQ(db->graph_stats().num_cached, 1);
  const int64_t slice_loads = db->counters().cold_slice_loads.load();
  const int64_t readmissions = db->counters().cold_readmissions.load();

  // The hot slice covers [1000, 3000); only [3000, 6000) starts early
  // enough to fill the rest, so it is the one cold read.
  Result r = db->Execute(RangeQuery(1000, 5500));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.trace().num_partial_reuses, 1);
  EXPECT_EQ(r.trace().num_cold_hits, 1);
  EXPECT_EQ(BaseScans(r), 0) << r.trace().plan_explain;
  EXPECT_EQ(db->counters().cold_slice_loads.load(), slice_loads + 1);
  EXPECT_EQ(db->counters().cold_readmissions.load(), readmissions);
  EXPECT_EQ(RowMultiset(*r.table()), expected);
}

TEST(ColdTier, ColdSliceAroundAHotOneIsReadOnce) {
  TempSpillDir dir;
  auto db = OpenDb(dir.path(), 256 << 20, 20000);
  auto expected = Expected(db.get(), RangeQuery(1500, 3000));
  ASSERT_TRUE(db->Execute(RangeQuery(1000, 4000)).ok());
  db->FlushCache();
  // Stitched from the cold slice, then admitted hot in its own right.
  ASSERT_TRUE(db->Execute(RangeQuery(2000, 2500)).ok());
  ASSERT_EQ(db->graph_stats().num_cached, 1);
  const int64_t slice_loads = db->counters().cold_slice_loads.load();

  // The hot slice splits the cold one's share into two clips: one read.
  Result r = db->Execute(RangeQuery(1500, 3000));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.trace().num_partial_reuses, 1);
  EXPECT_EQ(r.trace().num_cold_hits, 1);
  EXPECT_EQ(BaseScans(r), 0) << r.trace().plan_explain;
  EXPECT_EQ(db->counters().cold_slice_loads.load(), slice_loads + 1);
  EXPECT_EQ(RowMultiset(*r.table()), expected);
}

TEST(ColdTier, ColdSubsumptionProbeReadsNothingItCannotDeriveFrom) {
  TempSpillDir dir;
  auto db = OpenDb(dir.path(), 256 << 20, 20000);
  auto a_equals = [](int32_t a) {
    return PlanNode::Select(PlanNode::Scan("f", {"a", "v"}),
                            Expr::Eq(Expr::Column("a"), Expr::Literal(a)));
  };
  auto expected = Expected(db.get(), a_equals(3));
  ASSERT_TRUE(db->Execute(a_equals(2)).ok());
  db->FlushCache();
  ASSERT_EQ(db->graph_stats().num_cold, 1);
  const int64_t slice_loads = db->counters().cold_slice_loads.load();
  const int64_t readmissions = db->counters().cold_readmissions.load();

  Result r = db->Execute(a_equals(3));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.trace().num_reuses, 0);
  EXPECT_EQ(r.trace().num_cold_hits, 0);
  EXPECT_EQ(db->counters().cold_slice_loads.load(), slice_loads);
  EXPECT_EQ(db->counters().cold_readmissions.load(), readmissions);
  EXPECT_EQ(RowMultiset(*r.table()), expected);
}

TEST(ColdTier, StaleOrphanNeverStitches) {
  TempSpillDir dir;
  {
    auto db = OpenDb(dir.path(), 256 << 20, 20000);
    ASSERT_TRUE(db->Execute(RangeQuery(0, 3000)).ok());
    ASSERT_TRUE(db->Execute(RangeQuery(3000, 6000)).ok());
  }
  auto db = OpenDb(dir.path(), 256 << 20, 20000);
  // Rows appended after the close fall inside both slices.
  Schema s({{"a", TypeId::kInt32}, {"v", TypeId::kDouble}});
  TablePtr delta = MakeTable(s);
  for (int i = 0; i < 50; ++i) {
    delta->AppendRow({static_cast<int32_t>(i % 10), 1000.5 + 80 * i});
  }
  ASSERT_TRUE(db->AppendTable("f", *delta).ok());
  const auto expected = Expected(db.get(), RangeQuery(1000, 5000));

  Result r = db->Execute(RangeQuery(1000, 5000));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.trace().num_partial_reuses, 0);
  EXPECT_EQ(BaseScans(r), 1) << r.trace().plan_explain;
  EXPECT_EQ(db->counters().cold_slice_loads.load(), 0);
  EXPECT_EQ(RowMultiset(*r.table()), expected);
}

TEST(ColdTier, HeaderWithoutRowMarksIsDeletedAtOpen) {
  // Every image carries a row mark for each base table: a header naming a
  // base table without one is corrupt, so the open scan deletes the file
  // and the query recomputes.
  TempSpillDir dir;
  std::multiset<std::string> expected;
  {
    auto db = OpenDb(dir.path(), 256 << 20, 20000);
    expected = Expected(db.get(), RangeQuery(0, 3000));
    ASSERT_TRUE(db->Execute(RangeQuery(0, 3000)).ok());
  }
  const std::vector<std::string> files = SpillFiles(dir.path());
  ASSERT_EQ(files.size(), 1u);
  SpillFileMeta meta;
  TablePtr table;
  ASSERT_TRUE(ReadSpillTable(files[0], &meta, &table).ok());
  ASSERT_EQ(meta.base_tables, std::vector<std::string>{"f"});
  ASSERT_EQ(meta.table_versions.size(), 1u);
  meta.table_versions.clear();
  ASSERT_TRUE(WriteSpillFile(files[0], *table, meta).ok());
  SpillFileMeta back;
  EXPECT_FALSE(ReadSpillMeta(files[0], &back).ok());

  auto db = OpenDb(dir.path(), 256 << 20, 20000);
  EXPECT_TRUE(SpillFiles(dir.path()).empty());
  EXPECT_EQ(db->recycler().cold_tier().Stats().orphans, 0);
  Result r = db->Execute(RangeQuery(0, 3000));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.trace().num_reuses, 0);
  EXPECT_EQ(r.trace().num_adoptions, 0);
  EXPECT_EQ(RowMultiset(*r.table()), expected);
}

// ---------------------------------------------------------------------------
// Canonical key stability
// ---------------------------------------------------------------------------

TEST(ColdTier, CanonicalKeyStableAcrossInsertionOrder) {
  Catalog catalog;
  RDB_CHECK(catalog.RegisterTable("f", MakeTestTable(2000)).ok());
  RecyclerConfig cfg;
  cfg.mode = RecyclerMode::kSpeculation;

  // The TopN sorts on the aggregate's output, which it reads by ordinal;
  // the two graphs below number their nodes differently, and the key must
  // not depend on the numbering.
  auto plan = [] {
    return PlanNode::TopN(
        PlanNode::Aggregate(PlanNode::Scan("f", {"a", "v"}), {"a"},
                            {{AggFunc::kSum, Expr::Column("v"), "sv"}}),
        {{"sv", false}}, 5);
  };

  Recycler rec1(&catalog, cfg);
  rec1.Execute(plan());

  Recycler rec2(&catalog, cfg);
  rec2.Execute(RangeQuery(0, 5000));  // shifts node ids
  rec2.Execute(plan());

  auto topn = [](Recycler& rec) -> RGNode* {
    std::shared_lock<std::shared_mutex> lock(rec.graph().mutex());
    for (const auto& n : rec.graph().nodes()) {
      if (n->type == OpType::kTopN) return n.get();
    }
    return nullptr;
  };
  RGNode* t1 = topn(rec1);
  RGNode* t2 = topn(rec2);
  ASSERT_NE(t1, nullptr);
  ASSERT_NE(t2, nullptr);
  // The ids really did differ (the test would be vacuous otherwise).
  EXPECT_NE(t1->id, t2->id);
  EXPECT_EQ(rec1.CanonicalSubtreeKey(t1), rec2.CanonicalSubtreeKey(t2));
}

TEST(ColdTier, SuffixLikeColumnNamesKeepDistinctKeys) {
  // Base columns named like graph-id suffixes: a predicate on one must
  // never be served, after a restart, as the other's spilled result.
  Schema s({{"a#1", TypeId::kInt32}, {"a#@1", TypeId::kInt32}});
  TablePtr g = MakeTable(s);
  for (int32_t i = 0; i < 100; ++i) g->AppendRow({i, 99 - i});
  auto select = [](const char* column) {
    return PlanNode::Select(
        PlanNode::Scan("g", {"a#1", "a#@1"}),
        Expr::Gt(Expr::Column(column), Expr::Literal(int32_t{89})));
  };
  TempSpillDir dir;
  DatabaseOptions options;
  options.recycler.mode = RecyclerMode::kHistory;
  options.recycler.spill_dir = dir.path();
  {
    auto db = Database::OpenOrDie(options);
    ASSERT_TRUE(db->CreateTable("g", g).ok());
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(db->Execute(select("a#1")).ok());
    // Destruction checkpoints the hot cache into the spill directory.
  }
  ASSERT_FALSE(SpillFiles(dir.path()).empty());

  auto db = Database::OpenOrDie(options);
  ASSERT_TRUE(db->CreateTable("g", g).ok());
  Result r = db->Execute(select("a#@1"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.trace().num_reuses, 0);
  EXPECT_EQ(RowMultiset(*r.table()), Expected(db.get(), select("a#@1")));
  EXPECT_EQ(r.table()->num_rows(), 10);
}

// ---------------------------------------------------------------------------
// Concurrency (TSan target)
// ---------------------------------------------------------------------------

TEST(ColdTierConcurrency, SpillVsLookupStress) {
  TempSpillDir dir;
  // Hot cache fits roughly one window result: constant eviction churn
  // spills while other streams take cold hits and promote entries back.
  auto db = OpenDb(dir.path(), 32 << 10, 5000, 64ll << 20);

  constexpr int kWindows = 6;
  std::vector<std::multiset<std::string>> expected;
  for (int k = 0; k < kWindows; ++k) {
    expected.push_back(
        Expected(db.get(), RangeQuery(k * 1500.0, k * 1500.0 + 3000.0)));
  }

  constexpr int kThreads = 4;
  constexpr int kIters = 24;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto session = db->Connect();
      for (int i = 0; i < kIters; ++i) {
        if (t == 0 && i % 8 == 7) db->FlushCache();
        if (t == 1 && i % 12 == 11) db->InvalidateTable("f");
        int k = (t * 7 + i) % kWindows;
        Result r =
            session->Execute(RangeQuery(k * 1500.0, k * 1500.0 + 3000.0));
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(RowMultiset(*r.table()), expected[k]) << "window " << k;
      }
    });
  }
  for (auto& th : threads) th.join();

  // The run must actually have exercised the tier.
  EXPECT_GE(db->counters().cold_spills.load(), 1);
}

TEST(ColdTierConcurrency, RestartRebuildRace) {
  TempSpillDir dir;
  constexpr int kSlices = 8;
  auto slice = [](int i) {
    return RangeQuery(i * 1250.0, i * 1250.0 + 1500.0);
  };
  // Windows 0..5 overlap the slices; statements 6..13 are the slices'
  // own, which must match the rebuilt nodes rather than insert twins.
  constexpr int kStatements = 6 + kSlices;
  auto statement = [&](int k) {
    return k < 6 ? RangeQuery(k * 1200.0 + 600.0, k * 1200.0 + 3300.0)
                 : slice(k - 6);
  };
  std::vector<std::multiset<std::string>> expected;
  {
    auto db = OpenDb(dir.path(), 256 << 20, 5000);
    for (int k = 0; k < kStatements; ++k) {
      expected.push_back(Expected(db.get(), statement(k)));
    }
    for (int i = 0; i < kSlices; ++i) {
      ASSERT_TRUE(db->Execute(slice(i)).ok());
    }
  }
  // Four clients race the first lookups over the scan right after Open:
  // any of them may walk, and the walks must rebuild every slice once.
  auto db = OpenDb(dir.path(), 256 << 20, 5000);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto session = db->Connect();
      for (int i = 0; i < kStatements; ++i) {
        const int k = (t * 5 + i) % kStatements;
        Result r = session->Execute(statement(k));
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(RowMultiset(*r.table()), expected[k]) << "statement " << k;
      }
    });
  }
  for (auto& th : threads) th.join();

  // Each orphan is adopted once, rebuilt by a walk or inserted by its
  // own statement first.
  EXPECT_EQ(db->counters().cold_adoptions.load(), kSlices);
  EXPECT_GE(db->counters().cold_orphans_rebuilt.load(), 1);
  EXPECT_CONSISTENT(db);
  Recycler& rec = db->recycler();
  std::shared_lock<std::shared_mutex> lock(rec.graph().mutex());
  std::set<std::string> keys;
  for (const auto& n : rec.graph().nodes()) {
    EXPECT_TRUE(keys.insert(rec.CanonicalSubtreeKey(n.get())).second)
        << "two graph nodes under one key";
  }
}

}  // namespace
}  // namespace recycledb
