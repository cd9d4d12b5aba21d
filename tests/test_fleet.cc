// Tests for the fleet tier: several engine processes sharing one
// cold-tier directory through the manifest log.
//
// Covered here: the log's frames and replay rules (round trips, an entry
// is live only when added after every purge of its tables, purge
// retention at compaction), its recovery rule (the last record truncated
// at every byte or flipped at every byte leaves the earlier records
// standing), a refresh that finds nothing new reading nothing, two live
// instances over one directory (the second serves exact / subsumption /
// stitch hits from the first's spills without re-executing, and never
// steals ownership), compaction while a peer tails the log, stale-lease
// takeover (expired owners are claimed, live ones are not; an opener
// leaves a live peer's in-flight files alone), purges (applied by the
// next append, kept for a peer hundreds of purges behind without costing
// it its untouched entries, and never undone by a lagging owner), the
// read-only adoption mode, the async spill queue's drain barrier, and a
// spill-vs-adopt race between two instances (run under TSan by the
// `fleet` ctest label). Warm-standby failover rides the same harness: a
// tailing standby serves the primary's results from statement one. Every
// step of a test is followed by Recycler::CheckConsistency, which checks
// the tier against a replay of the log.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/file_io.h"
#include "fleet/lock_file.h"
#include "fleet/manifest.h"
#include "recycledb/recycledb.h"
#include "recycler/cold_tier.h"
#include "recycler/recycler.h"
#include "test_util.h"

namespace recycledb {
namespace {

namespace fs = std::filesystem;
using fleet::LogRecord;
using fleet::ManifestLog;
using fleet::ManifestView;
using fleet::RecordType;
using recycledb::testing::RowMultiset;
using recycledb::testing::TempSpillDir;

/// Deterministic base table shared by every instance in a test: the
/// fleet contract is same base data, so each process builds the same
/// rows from the same generator.
TablePtr MakeTestTable(int rows) {
  Schema s({{"a", TypeId::kInt32}, {"v", TypeId::kDouble}});
  TablePtr t = MakeTable(s);
  for (int i = 0; i < rows; ++i) {
    t->AppendRow({static_cast<int32_t>(i % 10),
                  static_cast<double>((i * 7919) % 10000)});
  }
  return t;
}

/// `f` after a ReplaceTable: MakeTestTable's rows with every `a` moved,
/// so any range over `v` returns other rows than before.
TablePtr MakeReplacedTable(int rows) {
  Schema s({{"a", TypeId::kInt32}, {"v", TypeId::kDouble}});
  TablePtr t = MakeTable(s);
  for (int i = 0; i < rows; ++i) {
    t->AppendRow({static_cast<int32_t>((i + 1) % 10),
                  static_cast<double>((i * 7919) % 10000)});
  }
  return t;
}

PlanPtr RangeOver(const std::string& table, double lo, double hi) {
  return PlanNode::Select(
      PlanNode::Scan(table, {"a", "v"}),
      Expr::And(Expr::Ge(Expr::Column("v"), Expr::Literal(lo)),
                Expr::Lt(Expr::Column("v"), Expr::Literal(hi))));
}

PlanPtr RangeQuery(double lo, double hi) { return RangeOver("f", lo, hi); }

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

/// One fleet member over `spill_dir` under the given instance id; `f`
/// defaults to MakeTestTable(rows).
std::unique_ptr<Database> OpenInstance(const std::string& spill_dir,
                                       const std::string& instance,
                                       int rows = 20000,
                                       bool read_only = false,
                                       int64_t lease_ms = 30000,
                                       TablePtr f = nullptr) {
  DatabaseOptions options;
  options.recycler.mode = RecyclerMode::kSpeculation;
  options.recycler.cache_bytes = 256ll << 20;
  options.recycler.spill_dir = spill_dir;
  options.recycler.cold_tier_capacity_bytes = 256ll << 20;
  options.recycler.fleet_instance = instance;
  options.recycler.spill_read_only = read_only;
  options.recycler.fleet_lease_ms = lease_ms;
  std::unique_ptr<Database> db = Database::OpenOrDie(options);
  RDB_CHECK(
      db->CreateTable("f", f != nullptr ? f : MakeTestTable(rows)).ok());
  return db;
}

std::multiset<std::string> Expected(Database* db, PlanPtr plan) {
  SessionOptions so;
  so.bypass_recycler = true;
  auto session = db->Connect(so);
  Result r = session->Execute(std::move(plan));
  RDB_CHECK(r.ok());
  return RowMultiset(*r.table());
}

/// Runs the canonical warm-up on instance A: three disjoint slices plus
/// a broad slice, all demoted to the shared cold tier and in the log
/// (FlushCache drains the async queue before returning).
void WarmPrimary(Database* a) {
  ASSERT_TRUE(a->Execute(RangeQuery(0, 3000)).ok());
  ASSERT_TRUE(a->Execute(RangeQuery(3000, 6000)).ok());
  ASSERT_TRUE(a->Execute(BroadQuery(5000)).ok());
  a->FlushCache();
  ASSERT_GT(a->recycler().cold_tier().Stats().entries, 0);
  EXPECT_CONSISTENT(a);
}

/// The directory's log as a reader opening it sees it.
ManifestView ReplayLog(const std::string& dir) {
  ManifestLog log;
  RDB_CHECK(log.Open(dir, /*writable=*/false, /*create=*/false).ok());
  return log.view();
}

/// The log reads whole: no bad frame follows its good prefix.
bool LogReadsWhole(const std::string& dir) {
  ManifestLog log;
  RDB_CHECK(log.Open(dir, /*writable=*/false, /*create=*/false).ok());
  return log.offset() ==
         static_cast<int64_t>(fs::file_size(ManifestLog::Path(dir)));
}

/// Appends an owner record for `id` under the flock, as that instance
/// would: a crashed owner's stale lease, or a live one's renewal.
void AppendOwnerRecord(const std::string& dir, const std::string& id,
                       int64_t lease_expiry_ms) {
  fleet::DirLock lock;
  ASSERT_TRUE(fleet::DirLock::Acquire(ManifestLog::LockPath(dir), &lock).ok());
  ManifestLog log;
  ASSERT_TRUE(log.Open(dir, /*writable=*/true, /*create=*/false).ok());
  std::vector<LogRecord> batch(1);
  batch[0].type = RecordType::kOwner;
  batch[0].owner = id;
  batch[0].value = lease_expiry_ms;
  ASSERT_TRUE(log.Append(&batch, fleet::UnixMillisNow()).ok());
}

LogRecord Add(const std::string& file, const std::string& owner,
              std::vector<std::string> tables) {
  LogRecord r;
  r.type = RecordType::kAdd;
  r.name = file;
  r.canon_key = "key:" + file;
  r.owner = owner;
  r.tables = std::move(tables);
  return r;
}

LogRecord Purge(const std::string& table) {
  LogRecord r;
  r.type = RecordType::kPurge;
  r.name = table;
  return r;
}

LogRecord Owner(const std::string& id, int64_t lease_expiry_ms) {
  LogRecord r;
  r.type = RecordType::kOwner;
  r.owner = id;
  r.value = lease_expiry_ms;
  return r;
}

/// Frames `records`, numbering them 1.. in order.
std::string Frames(std::vector<LogRecord> records) {
  std::string out;
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].seq = static_cast<int64_t>(i + 1);
    fleet::AppendFrame(records[i], &out);
  }
  return out;
}

ManifestView Replay(std::string_view buf, size_t* good = nullptr) {
  std::vector<LogRecord> records;
  const size_t n = fleet::DecodeFrames(buf, &records);
  if (good != nullptr) *good = n;
  ManifestView view;
  for (const LogRecord& r : records) view.Apply(r);
  return view;
}

bool SameView(const ManifestView& a, const ManifestView& b) {
  if (a.last_seq != b.last_seq || a.records != b.records ||
      a.owners.size() != b.owners.size() ||
      a.entries.size() != b.entries.size() ||
      a.purges.size() != b.purges.size()) {
    return false;
  }
  for (const auto& [id, o] : a.owners) {
    auto it = b.owners.find(id);
    if (it == b.owners.end() || it->second.seq != o.seq ||
        it->second.lease_expiry_ms != o.lease_expiry_ms) {
      return false;
    }
  }
  for (const auto& [file, e] : a.entries) {
    auto it = b.entries.find(file);
    if (it == b.entries.end() || it->second.seq != e.seq ||
        it->second.owner != e.owner || it->second.canon_key != e.canon_key ||
        it->second.tables != e.tables) {
      return false;
    }
  }
  return true;
}

void CopyDir(const std::string& from, const std::string& to) {
  for (const auto& e : fs::directory_iterator(from)) {
    fs::copy_file(e.path(), to + "/" + e.path().filename().string(),
                  fs::copy_options::overwrite_existing);
  }
}

// ---------------------------------------------------------------------------
// The manifest log
// ---------------------------------------------------------------------------

TEST(FleetManifestLog, RecordsRoundTripAndReplay) {
  const std::string buf =
      Frames({Owner("alpha", 1700000000000),
              Add("r01-alpha-1.spill", "alpha", {"f"}),
              Add("r02-beta-3.spill", "beta", {"f", "g"}),
              Add("r03-alpha-2.spill", "alpha", {"h"}),
              Purge("g"),  // retires beta's entry: it reads g
              Add("r04-beta-4.spill", "beta", {"g"}),  // after the purge
              Owner("beta", 1700000123456)});
  std::vector<LogRecord> records;
  ASSERT_EQ(fleet::DecodeFrames(buf, &records), buf.size());
  ASSERT_EQ(records.size(), 7u);
  EXPECT_EQ(records[2].type, RecordType::kAdd);
  EXPECT_EQ(records[2].seq, 3);
  EXPECT_EQ(records[2].name, "r02-beta-3.spill");
  EXPECT_EQ(records[2].canon_key, "key:r02-beta-3.spill");
  EXPECT_EQ(records[2].owner, "beta");
  EXPECT_EQ(records[2].tables, (std::vector<std::string>{"f", "g"}));
  EXPECT_EQ(records[6].value, 1700000123456);

  ManifestView view = Replay(buf);
  EXPECT_EQ(view.last_seq, 7);
  EXPECT_EQ(view.records, 7);
  // Live only when added after every purge of its tables.
  EXPECT_EQ(view.entries.count("r01-alpha-1.spill"), 1u);
  EXPECT_EQ(view.entries.count("r02-beta-3.spill"), 0u);
  EXPECT_EQ(view.entries.count("r03-alpha-2.spill"), 1u);
  EXPECT_EQ(view.entries.count("r04-beta-4.spill"), 1u);
  EXPECT_TRUE(view.AnyPurged({"x", "g"}));
  EXPECT_FALSE(view.AnyPurged({"f"}));
  // Liveness: unknown owners are never live.
  EXPECT_TRUE(view.OwnerLive("alpha", 1699999999999));
  EXPECT_FALSE(view.OwnerLive("alpha", 1700000000001));
  EXPECT_FALSE(view.OwnerLive("ghost", 0));

  // A drop removes the entry; a second add moves its ownership.
  LogRecord drop;
  drop.type = RecordType::kDrop;
  drop.name = "r01-alpha-1.spill";
  drop.seq = 8;
  view.Apply(drop);
  LogRecord moved = Add("r03-alpha-2.spill", "beta", {"h"});
  moved.seq = 9;
  view.Apply(moved);
  EXPECT_EQ(view.entries.count("r01-alpha-1.spill"), 0u);
  EXPECT_EQ(view.entries.at("r03-alpha-2.spill").owner, "beta");
}

TEST(FleetManifestLog, CompactionKeepsAPurgeUntilEveryLiveOwnerAppliedIt) {
  const int64_t now = 1000;
  ManifestView view = Replay(Frames({
      Owner("alpha", now + 500),            // 1: live, applied up to 1
      Add("r1-alpha-1.spill", "alpha", {"f"}),  // 2
      Purge("f"),                           // 3: alpha has not applied it
      Owner("beta", now + 500),             // 4: live, applied up to 4
      Owner("gamma", now - 1),              // 5: dead
      Add("r2-beta-1.spill", "beta", {"g"}),  // 6
  }));
  std::vector<LogRecord> live = view.LiveRecords(now);
  // Alpha and beta (gamma is dead), the purge, beta's entry (alpha's
  // died by the purge), in seq order.
  ASSERT_EQ(live.size(), 4u);
  EXPECT_EQ(live[0].owner, "alpha");
  EXPECT_EQ(live[1].type, RecordType::kPurge);
  EXPECT_EQ(live[2].owner, "beta");
  EXPECT_EQ(live[3].name, "r2-beta-1.spill");

  // Once alpha's owner record passes the purge, nobody needs it.
  LogRecord renew = Owner("alpha", now + 500);
  renew.seq = 7;
  view.Apply(renew);
  live = view.LiveRecords(now);
  ASSERT_EQ(live.size(), 3u);
  for (const LogRecord& r : live) EXPECT_NE(r.type, RecordType::kPurge);
}

TEST(FleetManifestLog, TruncatedOrFlippedLastRecordKeepsEarlierRecords) {
  // Unit level: every prefix of the last record, and every one-byte
  // flip in it, reads as the log without that record.
  const std::vector<LogRecord> earlier = {
      Owner("alpha", 1700000000000), Add("r1-alpha-1.spill", "alpha", {"f"}),
      Purge("g")};
  std::vector<LogRecord> all = earlier;
  all.push_back(Add("r2-alpha-2.spill", "alpha", {"f", "h"}));
  const std::string buf = Frames(all);
  const std::string prefix = Frames(earlier);
  const ManifestView want = Replay(prefix);
  ASSERT_LT(prefix.size(), buf.size());
  for (size_t cut = prefix.size(); cut < buf.size(); ++cut) {
    size_t good = 0;
    ManifestView got = Replay(std::string_view(buf).substr(0, cut), &good);
    EXPECT_EQ(good, prefix.size()) << "cut at " << cut;
    EXPECT_TRUE(SameView(got, want)) << "cut at " << cut;
  }
  for (size_t at = prefix.size(); at < buf.size(); ++at) {
    for (unsigned char bit : {0x01, 0x80}) {
      std::string flipped = buf;
      flipped[at] = static_cast<char>(flipped[at] ^ bit);
      size_t good = 0;
      ManifestView got = Replay(flipped, &good);
      EXPECT_EQ(good, prefix.size()) << "flip at " << at;
      EXPECT_TRUE(SameView(got, want)) << "flip at " << at;
    }
  }

  // Engine level: alpha's log, with its last record cut or flipped. A
  // new member opens over each copy without an abort, serves the right
  // rows, and its first append leaves a log that reads whole.
  TempSpillDir dir;
  std::multiset<std::string> expected;
  {
    auto a = OpenInstance(dir.path(), "alpha");
    expected = Expected(a.get(), RangeQuery(0, 3000));
    WarmPrimary(a.get());
  }
  std::string log;
  ASSERT_TRUE(ReadWholeFile(ManifestLog::Path(dir.path()), &log).ok());
  std::vector<LogRecord> records;
  ASSERT_EQ(fleet::DecodeFrames(log, &records), log.size());
  std::string head;
  for (size_t i = 0; i + 1 < records.size(); ++i) {
    fleet::AppendFrame(records[i], &head);
  }
  ASSERT_EQ(log.compare(0, head.size(), head), 0);
  std::vector<std::string> variants;
  for (size_t cut = head.size(); cut < log.size(); ++cut) {
    variants.push_back(log.substr(0, cut));
  }
  for (size_t at = head.size(); at < log.size(); ++at) {
    variants.push_back(log);
    variants.back()[at] = static_cast<char>(variants.back()[at] ^ 0x10);
  }
  for (const std::string& variant : variants) {
    TempSpillDir copy;
    CopyDir(dir.path(), copy.path());
    {
      std::ofstream f(ManifestLog::Path(copy.path()),
                      std::ios::binary | std::ios::trunc);
      f.write(variant.data(), static_cast<std::streamsize>(variant.size()));
    }
    EXPECT_TRUE(SameView(ReplayLog(copy.path()), Replay(head)));
    auto b = OpenInstance(copy.path(), "beta");
    EXPECT_CONSISTENT(b);
    Result r = b->Execute(RangeQuery(0, 3000));
    ASSERT_TRUE(r.ok());
    EXPECT_GE(r.trace().num_cold_hits, 1);
    EXPECT_EQ(RowMultiset(*r.table()), expected);
    EXPECT_TRUE(LogReadsWhole(copy.path()));
    EXPECT_CONSISTENT(b);
  }
}

TEST(FleetManifestLog, RefreshReadsOnlyWhatWasAppended) {
  TempSpillDir dir;
  auto a = OpenInstance(dir.path(), "alpha");
  WarmPrimary(a.get());
  auto b = OpenInstance(dir.path(), "beta");
  const std::string log = ManifestLog::Path(dir.path());
  auto bytes_read = [&b] {
    return b->counters().fleet_log_bytes_read.load();
  };

  // Nothing appended since beta's open: the refresh reads nothing.
  int64_t before = bytes_read();
  ASSERT_TRUE(b->RefreshFleet().ok());
  EXPECT_EQ(bytes_read(), before);
  EXPECT_CONSISTENT(b);

  // Alpha appends one batch; beta's refresh reads exactly its bytes.
  const int64_t size_before = static_cast<int64_t>(fs::file_size(log));
  ASSERT_TRUE(a->Execute(RangeQuery(6000, 9000)).ok());
  a->FlushCache();
  const int64_t size_after = static_cast<int64_t>(fs::file_size(log));
  ASSERT_GT(size_after, size_before);
  before = bytes_read();
  int64_t peers = 0;
  ASSERT_TRUE(b->RefreshFleet(&peers).ok());
  EXPECT_EQ(peers, 1);
  EXPECT_EQ(bytes_read() - before, size_after - size_before);
  EXPECT_CONSISTENT(b);

  before = bytes_read();
  ASSERT_TRUE(b->RefreshFleet().ok());
  EXPECT_EQ(bytes_read(), before);
  EXPECT_CONSISTENT(b);
  EXPECT_CONSISTENT(a);
}

TEST(FleetManifestLog, CompactionWhileAPeerTailsTheLog) {
  TempSpillDir dir;
  // Alpha's cap holds about two range results, so its spills evict one
  // another: adds and drops pile up over few live entries.
  DatabaseOptions options;
  options.recycler.mode = RecyclerMode::kSpeculation;
  options.recycler.spill_dir = dir.path();
  options.recycler.cold_tier_capacity_bytes = 160 << 10;
  options.recycler.fleet_instance = "alpha";
  auto a = Database::OpenOrDie(options);
  ASSERT_TRUE(a->CreateTable("f", MakeTestTable(20000)).ok());
  ASSERT_TRUE(a->Execute(RangeQuery(0, 1000)).ok());
  a->FlushCache();
  auto b = OpenInstance(dir.path(), "beta");
  ASSERT_TRUE(b->RefreshFleet().ok());
  EXPECT_CONSISTENT(b);
  const int64_t generation = ReplayLog(dir.path()).generation;

  for (int i = 1; i < 12; ++i) {
    ASSERT_TRUE(a->Execute(RangeQuery(i * 800.0, i * 800.0 + 1000)).ok());
    a->FlushCache();
    EXPECT_CONSISTENT(a);
  }
  const ManifestView now = ReplayLog(dir.path());
  EXPECT_GT(now.generation, generation);
  EXPECT_LE(now.records, 2 * (1 + static_cast<int64_t>(
                                      now.LiveRecords(fleet::UnixMillisNow())
                                          .size())));

  // Beta notices the new file and reads it from its start: it tracks
  // exactly alpha's live entries, and serves them.
  ASSERT_TRUE(b->RefreshFleet().ok());
  EXPECT_CONSISTENT(b);
  EXPECT_EQ(b->recycler().cold_tier().Stats().peer_entries,
            static_cast<int64_t>(now.entries.size()));
  auto expected = Expected(b.get(), RangeQuery(8800, 9800));
  Result r = b->Execute(RangeQuery(8800, 9800));
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r.trace().num_cold_hits, 1);
  EXPECT_EQ(RowMultiset(*r.table()), expected);
  EXPECT_CONSISTENT(b);
}

// ---------------------------------------------------------------------------
// Two instances over one directory
// ---------------------------------------------------------------------------

TEST(FleetSharing, SecondInstanceServesPeerSpillsWithoutReexecuting) {
  TempSpillDir dir;
  auto a = OpenInstance(dir.path(), "alpha");
  WarmPrimary(a.get());

  // B opens while A is live: A's files surface as peer entries.
  auto b = OpenInstance(dir.path(), "beta");
  EXPECT_CONSISTENT(b);
  ColdTierStats bstats = b->recycler().cold_tier().Stats();
  EXPECT_GT(bstats.peer_entries, 0);
  EXPECT_EQ(bstats.used_bytes, 0);  // peer files never count against B's cap

  auto expected_exact = Expected(b.get(), RangeQuery(0, 3000));
  auto expected_refine = Expected(b.get(), RefineQuery(5000, 3));
  auto expected_stitch = Expected(b.get(), RangeQuery(1000, 5000));

  // Exact: B adopts A's slice by canonical key and serves it from disk.
  Result exact = b->Execute(RangeQuery(0, 3000));
  ASSERT_TRUE(exact.ok());
  EXPECT_GE(exact.trace().num_adoptions, 1);
  EXPECT_GE(exact.trace().num_reuses, 1);
  EXPECT_GE(exact.trace().num_cold_hits, 1);
  EXPECT_EQ(exact.trace().num_materialized, 0);  // served, not re-executed
  EXPECT_EQ(RowMultiset(*exact.table()), expected_exact);
  EXPECT_CONSISTENT(b);

  // Subsumption: prime the broad shape (adopting A's spill for it, again
  // from disk rather than by re-executing), then the refinement subsumes
  // from the adopted superset and filters.
  Result broad = b->Execute(BroadQuery(5000));
  ASSERT_TRUE(broad.ok());
  EXPECT_GE(broad.trace().num_adoptions, 1);
  EXPECT_GE(broad.trace().num_cold_hits, 1);
  EXPECT_EQ(broad.trace().num_materialized, 0);
  Result refine = b->Execute(RefineQuery(5000, 3));
  ASSERT_TRUE(refine.ok());
  EXPECT_GE(refine.trace().num_subsumption_reuses, 1);
  EXPECT_EQ(RowMultiset(*refine.table()), expected_refine);
  EXPECT_CONSISTENT(b);

  // Stitch: both of A's disjoint slices cover the probe window.
  Result stitch = b->Execute(RangeQuery(1000, 5000));
  ASSERT_TRUE(stitch.ok());
  EXPECT_GE(stitch.trace().num_partial_reuses, 1);
  EXPECT_EQ(RowMultiset(*stitch.table()), expected_stitch);
  EXPECT_CONSISTENT(b);

  EXPECT_GE(b->counters().cold_adoptions.load(), 2);

  // Ownership never moved: every entry in the log still names A.
  const ManifestView view = ReplayLog(dir.path());
  ASSERT_GT(view.entries.size(), 0u);
  for (const auto& [file, e] : view.entries) EXPECT_EQ(e.owner, "alpha");
  EXPECT_TRUE(view.OwnerLive("alpha", fleet::UnixMillisNow()));
  EXPECT_CONSISTENT(a);
}

TEST(FleetSharing, PeerEntryRefreshedAfterInsertIsAdoptedAtTheNextLookup) {
  // B inserts the broad node (below a speculated aggregate root, so the
  // selection itself is never materialized) and walks the scan's parents
  // for orphans; the walk rebuilds and adopts A's range slice from its
  // select descriptor. Only afterwards does A publish the broad result,
  // which B learns through RefreshFleet: the refresh must make B's next
  // derived lookup over the scan walk again and adopt it.
  TempSpillDir dir;
  auto a = OpenInstance(dir.path(), "alpha");
  ASSERT_TRUE(a->Execute(RangeQuery(0, 3000)).ok());
  a->FlushCache();
  auto b = OpenInstance(dir.path(), "beta");
  ASSERT_TRUE(b->recycler().cold_tier().has_orphans());
  Result agg = b->Execute(PlanNode::Aggregate(
      BroadQuery(5000), {"a"}, {{AggFunc::kSum, Expr::Column("v"), "sv"}}));
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg.trace().num_adoptions, 1);
  EXPECT_EQ(b->counters().cold_orphans_rebuilt.load(), 1);
  EXPECT_CONSISTENT(b);

  ASSERT_TRUE(a->Execute(BroadQuery(5000)).ok());
  a->FlushCache();
  EXPECT_CONSISTENT(a);
  int64_t peers = 0;
  ASSERT_TRUE(b->RefreshFleet(&peers).ok());
  ASSERT_GE(peers, 1);
  EXPECT_CONSISTENT(b);

  auto expected = Expected(b.get(), RefineQuery(5000, 3));
  Result refine = b->Execute(RefineQuery(5000, 3));
  ASSERT_TRUE(refine.ok());
  EXPECT_EQ(refine.trace().num_adoptions, 1);
  EXPECT_EQ(refine.trace().num_subsumption_reuses, 1);
  EXPECT_EQ(refine.trace().num_cold_hits, 1);
  EXPECT_EQ(RowMultiset(*refine.table()), expected);
  EXPECT_CONSISTENT(b);
}

TEST(FleetSharing, CorruptLogFallsBackToDirectoryRescan) {
  TempSpillDir dir;
  {
    auto a = OpenInstance(dir.path(), "alpha");
    WarmPrimary(a.get());
  }  // graceful shutdown gives up alpha's lease

  // Smash the log. Opening must fall back to scanning the spill files
  // themselves; every image stays adoptable.
  {
    std::ofstream f(ManifestLog::Path(dir.path()),
                    std::ios::binary | std::ios::trunc);
    f << "garbage garbage garbage";
  }
  auto b = OpenInstance(dir.path(), "beta");
  EXPECT_CONSISTENT(b);
  EXPECT_GT(b->recycler().cold_tier().Stats().entries, 0);

  auto expected = Expected(b.get(), RangeQuery(0, 3000));
  Result r = b->Execute(RangeQuery(0, 3000));
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r.trace().num_adoptions, 1);
  EXPECT_GE(r.trace().num_cold_hits, 1);
  EXPECT_EQ(RowMultiset(*r.table()), expected);
  EXPECT_CONSISTENT(b);

  // B's first append rewrote a log that reads whole and lists its claims.
  EXPECT_TRUE(LogReadsWhole(dir.path()));
  const ManifestView view = ReplayLog(dir.path());
  ASSERT_GT(view.entries.size(), 0u);
  for (const auto& [file, e] : view.entries) EXPECT_EQ(e.owner, "beta");
}

// ---------------------------------------------------------------------------
// Leases
// ---------------------------------------------------------------------------

TEST(FleetLease, ExpiredOwnersEntriesAreClaimedAtOpen) {
  TempSpillDir dir;
  {
    auto a = OpenInstance(dir.path(), "alpha");
    WarmPrimary(a.get());
  }
  // An expired lease for alpha: a crashed process that never cleaned up.
  AppendOwnerRecord(dir.path(), "alpha", fleet::UnixMillisNow() - 60 * 1000);

  auto b = OpenInstance(dir.path(), "beta");
  EXPECT_CONSISTENT(b);
  ColdTierStats stats = b->recycler().cold_tier().Stats();
  EXPECT_GT(stats.entries, 0);
  EXPECT_EQ(stats.peer_entries, 0);   // dead owner: claimed, not peered
  EXPECT_GT(stats.used_bytes, 0);     // claimed files count against B

  // The claim is durable: the log now names beta.
  const ManifestView after = ReplayLog(dir.path());
  ASSERT_GT(after.entries.size(), 0u);
  for (const auto& [file, e] : after.entries) EXPECT_EQ(e.owner, "beta");
}

TEST(FleetLease, LiveOwnersEntriesAreNotClaimed) {
  TempSpillDir dir;
  {
    auto a = OpenInstance(dir.path(), "alpha");
    WarmPrimary(a.get());
  }
  AppendOwnerRecord(dir.path(), "alpha", fleet::UnixMillisNow() + 60 * 1000);

  auto b = OpenInstance(dir.path(), "beta");
  EXPECT_CONSISTENT(b);
  ColdTierStats stats = b->recycler().cold_tier().Stats();
  EXPECT_GT(stats.peer_entries, 0);
  EXPECT_EQ(stats.used_bytes, 0);

  const ManifestView after = ReplayLog(dir.path());
  for (const auto& [file, e] : after.entries) EXPECT_EQ(e.owner, "alpha");
}

TEST(FleetLease, OpenLeavesALivePeersInFlightFilesAlone) {
  TempSpillDir dir;
  auto a = OpenInstance(dir.path(), "alpha");
  WarmPrimary(a.get());  // alpha's first append records its live lease
  auto plant = [&](const std::string& name) {
    const std::string path = dir.path() + "/" + name;
    std::ofstream(path) << "partial";
    return path;
  };
  // What alpha may be writing right now: a spill, and a compaction of
  // the log under the flock (held below, as alpha's write would).
  const std::string peer_spill = plant("r00000000000000aa-alpha-7.spill.tmp");
  const std::string log_tmp = plant("manifest.log.tmp");
  // Torn writes the opener may delete: its own (a prior incarnation's)
  // and an owner's without a lease.
  const std::vector<std::string> stale = {
      plant("r00000000000000bb-beta-1.spill.tmp"),
      plant("r00000000000000cc-ghost-2.spill.tmp")};

  fleet::DirLock held;
  ASSERT_TRUE(
      fleet::DirLock::Acquire(ManifestLog::LockPath(dir.path()), &held).ok());
  // B scans and deletes before its first append, which then waits for
  // the flock.
  std::unique_ptr<Database> b;
  std::thread opener([&] { b = OpenInstance(dir.path(), "beta"); });
  bool swept = false;
  for (int i = 0; i < 2000 && !swept; ++i) {
    swept = true;
    for (const std::string& path : stale) swept = swept && !fs::exists(path);
    if (!swept) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const bool peer_spill_kept = fs::exists(peer_spill);
  const bool log_tmp_kept = fs::exists(log_tmp);
  held.Release();
  opener.join();

  EXPECT_TRUE(swept);
  EXPECT_TRUE(peer_spill_kept);
  EXPECT_TRUE(log_tmp_kept);
  EXPECT_TRUE(fs::exists(peer_spill));  // B's own append leaves it too
  EXPECT_CONSISTENT(b);
}

TEST(FleetLease, StaleLeaseTakeoverAtRefresh) {
  TempSpillDir dir;
  auto a = OpenInstance(dir.path(), "alpha", /*rows=*/20000, false,
                        /*lease_ms=*/30000);
  WarmPrimary(a.get());
  auto b = OpenInstance(dir.path(), "beta");
  EXPECT_GT(b->recycler().cold_tier().Stats().peer_entries, 0);
  EXPECT_CONSISTENT(b);

  // Alpha "crashes": its lease expires (a SIGKILL leaves the last lease
  // standing until it runs out).
  AppendOwnerRecord(dir.path(), "alpha", fleet::UnixMillisNow() - 60 * 1000);

  ASSERT_TRUE(b->RefreshFleet().ok());
  EXPECT_CONSISTENT(b);
  EXPECT_GE(b->counters().fleet_lease_takeovers.load(), 1);
  ColdTierStats stats = b->recycler().cold_tier().Stats();
  EXPECT_EQ(stats.peer_entries, 0);
  EXPECT_GT(stats.used_bytes, 0);

  const ManifestView after = ReplayLog(dir.path());
  for (const auto& [file, e] : after.entries) EXPECT_EQ(e.owner, "beta");

  // The adopted results still serve.
  auto expected = Expected(b.get(), RangeQuery(0, 3000));
  Result r = b->Execute(RangeQuery(0, 3000));
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r.trace().num_cold_hits, 1);
  EXPECT_EQ(RowMultiset(*r.table()), expected);
  EXPECT_CONSISTENT(b);

  // Keep alpha alive to the end: its dtor must tolerate having been
  // taken over (it forfeits rather than deleting beta's files).
  a.reset();
  EXPECT_TRUE(fs::exists(ManifestLog::Path(dir.path())));
  Result again = b->Execute(RangeQuery(3000, 6000));
  ASSERT_TRUE(again.ok());
  EXPECT_GE(again.trace().num_cold_hits, 1);
  EXPECT_CONSISTENT(b);
}

// ---------------------------------------------------------------------------
// Purges
// ---------------------------------------------------------------------------

TEST(FleetPurgeLog, PeerMoreThan256PurgesBehindKeepsItsUntouchedEntries) {
  TempSpillDir dir;
  auto a = OpenInstance(dir.path(), "alpha");
  auto b = OpenInstance(dir.path(), "beta");
  for (Database* db : {a.get(), b.get()}) {
    ASSERT_TRUE(db->CreateTable("g", MakeTestTable(10)).ok());
    ASSERT_TRUE(db->CreateTable("h", MakeTestTable(20000)).ok());
  }

  // Beta owns a spill over f and one over h, both in the log.
  ASSERT_TRUE(b->Execute(RangeQuery(0, 3000)).ok());
  ASSERT_TRUE(b->Execute(RangeOver("h", 0, 3000)).ok());
  b->FlushCache();
  ASSERT_TRUE(b->RefreshFleet().ok());
  ASSERT_EQ(b->recycler().cold_tier().Stats().entries, 2);
  EXPECT_CONSISTENT(b);

  // 300 purges before beta reads the log again: alpha replaces f, then g
  // again and again.
  ASSERT_TRUE(a->ReplaceTable("f", MakeReplacedTable(20000)).ok());
  for (int i = 1; i < 300; ++i) {
    ASSERT_TRUE(a->ReplaceTable("g", MakeTestTable(10)).ok());
  }
  EXPECT_CONSISTENT(a);

  // Beta retires its spill over f and keeps the one over h: no purge
  // named h.
  ASSERT_TRUE(b->RefreshFleet().ok());
  EXPECT_CONSISTENT(b);
  EXPECT_EQ(b->recycler().cold_tier().Stats().entries, 1);
  auto expected_h = Expected(b.get(), RangeOver("h", 0, 3000));
  Result kept = b->Execute(RangeOver("h", 0, 3000));
  ASSERT_TRUE(kept.ok());
  EXPECT_GE(kept.trace().num_cold_hits, 1);
  EXPECT_EQ(RowMultiset(*kept.table()), expected_h);
  EXPECT_CONSISTENT(b);

  // A member over the new f is never served beta's stale spill.
  auto c = OpenInstance(dir.path(), "gamma", 20000, false, 30000,
                        MakeReplacedTable(20000));
  EXPECT_CONSISTENT(c);
  auto expected = Expected(c.get(), RangeQuery(0, 3000));
  Result r = c->Execute(RangeQuery(0, 3000));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.trace().num_adoptions, 0);
  EXPECT_EQ(RowMultiset(*r.table()), expected);
  EXPECT_CONSISTENT(c);
}

TEST(FleetPurgeLog, OpenAfterManyPurgesAdoptsOnlyUntouchedEntries) {
  TempSpillDir dir;
  auto a = OpenInstance(dir.path(), "alpha");
  auto b = OpenInstance(dir.path(), "beta");
  ASSERT_TRUE(a->CreateTable("h", MakeTestTable(20000)).ok());
  ASSERT_TRUE(b->CreateTable("g", MakeTestTable(10)).ok());

  // Alpha spills over f and over h, then stays idle: it never reads the
  // log again, so its entry over f outlives, in its own view, the purge
  // that made it stale.
  ASSERT_TRUE(a->Execute(RangeQuery(0, 3000)).ok());
  ASSERT_TRUE(a->Execute(RangeOver("h", 0, 3000)).ok());
  a->FlushCache();
  ASSERT_EQ(a->recycler().cold_tier().Stats().entries, 2);

  // Beta replaces f, then g 256 times.
  ASSERT_TRUE(b->ReplaceTable("f", MakeReplacedTable(20000)).ok());
  for (int i = 0; i < 256; ++i) {
    ASSERT_TRUE(b->ReplaceTable("g", MakeTestTable(10)).ok());
  }
  EXPECT_CONSISTENT(b);

  // A fresh member over the new f never tracks alpha's entry over f,
  // let alone serves its stale rows, and adopts the one over h.
  auto d = OpenInstance(dir.path(), "delta", 20000, false, 30000,
                        MakeReplacedTable(20000));
  ASSERT_TRUE(d->CreateTable("h", MakeTestTable(20000)).ok());
  EXPECT_CONSISTENT(d);
  EXPECT_EQ(d->recycler().cold_tier().Stats().entries, 1);
  auto expected = Expected(d.get(), RangeQuery(0, 3000));
  Result r = d->Execute(RangeQuery(0, 3000));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.trace().num_adoptions, 0);
  EXPECT_EQ(RowMultiset(*r.table()), expected);
  Result h = d->Execute(RangeOver("h", 0, 3000));
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h.trace().num_adoptions, 1);
  EXPECT_GE(h.trace().num_cold_hits, 1);
  EXPECT_CONSISTENT(d);
}

TEST(FleetPurgeLog, PurgeReadByAnAppendIsAppliedAtOnce) {
  TempSpillDir dir;
  auto a = OpenInstance(dir.path(), "alpha");
  auto b = OpenInstance(dir.path(), "beta");
  ASSERT_TRUE(b->CreateTable("g", MakeTestTable(100)).ok());
  ASSERT_TRUE(b->Execute(RangeQuery(0, 3000)).ok());
  b->FlushCache();
  EXPECT_CONSISTENT(b);

  // Alpha replaces f. Beta's next append (a spill over g) reads the
  // purge before any refresh does, and applies it then.
  ASSERT_TRUE(a->ReplaceTable("f", MakeReplacedTable(20000)).ok());
  ASSERT_TRUE(b->Execute(PlanNode::Select(
                             PlanNode::Scan("g", {"a", "v"}),
                             Expr::Gt(Expr::Column("v"), Expr::Literal(0.0))))
                  .ok());
  b->FlushCache();
  EXPECT_EQ(b->recycler().cold_tier().Stats().entries, 1);  // g's only
  EXPECT_CONSISTENT(b);
  ASSERT_TRUE(b->RefreshFleet().ok());
  EXPECT_EQ(b->recycler().cold_tier().Stats().entries, 1);
  EXPECT_CONSISTENT(b);

  // Had beta's spill over f stayed live, alpha's refresh would track it
  // and serve it over the new f.
  ASSERT_TRUE(a->RefreshFleet().ok());
  EXPECT_CONSISTENT(a);
  auto expected = Expected(a.get(), RangeQuery(0, 3000));
  Result r = a->Execute(RangeQuery(0, 3000));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.trace().num_adoptions, 0);
  EXPECT_EQ(RowMultiset(*r.table()), expected);
  EXPECT_CONSISTENT(a);
}

TEST(FleetPurgeLog, ALaggingOwnersRetiredEntryIsNeverTrackedAgain) {
  // The re-tracking sequence: beta tracks alpha's spill over f, replaces
  // f, and then alpha — which has not read the purge — writes to the
  // log again. Beta's next refresh must not take alpha's stale entry
  // back: the rows it holds are the old f's.
  TempSpillDir dir;
  auto a = OpenInstance(dir.path(), "alpha");
  auto b = OpenInstance(dir.path(), "beta");
  ASSERT_TRUE(a->CreateTable("g", MakeTestTable(100)).ok());
  ASSERT_TRUE(a->Execute(RangeQuery(0, 3000)).ok());
  a->FlushCache();
  ASSERT_TRUE(b->RefreshFleet().ok());
  ASSERT_EQ(b->recycler().cold_tier().Stats().peer_entries, 1);
  EXPECT_CONSISTENT(b);

  ASSERT_TRUE(b->ReplaceTable("f", MakeReplacedTable(20000)).ok());
  EXPECT_EQ(b->recycler().cold_tier().Stats().entries, 0);
  EXPECT_CONSISTENT(b);

  ASSERT_TRUE(a->Execute(PlanNode::Select(
                             PlanNode::Scan("g", {"a", "v"}),
                             Expr::Gt(Expr::Column("v"), Expr::Literal(0.0))))
                  .ok());
  a->FlushCache();
  EXPECT_CONSISTENT(a);

  ASSERT_TRUE(b->RefreshFleet().ok());
  EXPECT_CONSISTENT(b);
  auto expected = Expected(b.get(), RangeQuery(0, 3000));
  Result r = b->Execute(RangeQuery(0, 3000));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.trace().num_adoptions, 0);
  EXPECT_EQ(r.trace().num_cold_hits, 0);
  EXPECT_EQ(RowMultiset(*r.table()), expected);
  EXPECT_CONSISTENT(b);
}

// ---------------------------------------------------------------------------
// Read-only adoption mode
// ---------------------------------------------------------------------------

TEST(FleetReadOnly, AdoptsAndServesWithoutWriting) {
  TempSpillDir dir;
  {
    auto a = OpenInstance(dir.path(), "alpha");
    WarmPrimary(a.get());
  }
  const auto log_before = fs::file_size(ManifestLog::Path(dir.path()));
  size_t files_before = 0;
  for (const auto& e : fs::directory_iterator(dir.path())) {
    (void)e;
    ++files_before;
  }

  auto b = OpenInstance(dir.path(), "reader", 20000, /*read_only=*/true);
  EXPECT_CONSISTENT(b);
  ColdTierStats stats = b->recycler().cold_tier().Stats();
  EXPECT_GT(stats.peer_entries, 0);
  EXPECT_EQ(stats.used_bytes, 0);

  auto expected = Expected(b.get(), RangeQuery(0, 3000));
  Result r = b->Execute(RangeQuery(0, 3000));
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r.trace().num_adoptions, 1);
  EXPECT_GE(r.trace().num_cold_hits, 1);
  EXPECT_EQ(RowMultiset(*r.table()), expected);
  EXPECT_CONSISTENT(b);

  // Evictions in read-only mode never touch the shared directory.
  b->FlushCache();
  ASSERT_TRUE(b->RefreshFleet().ok());
  EXPECT_CONSISTENT(b);
  b.reset();
  size_t files_after = 0;
  for (const auto& e : fs::directory_iterator(dir.path())) {
    (void)e;
    ++files_after;
  }
  EXPECT_EQ(files_after, files_before);
  EXPECT_EQ(fs::file_size(ManifestLog::Path(dir.path())), log_before);
}

TEST(FleetReadOnly, OpenProbeDistinguishesAdoptionFromUnusableDir) {
  TempSpillDir dir;
  // A regular file where a directory is required: both probes reject it
  // (this stands in for a genuinely unwritable dir — the suite may run
  // as root, where permission bits do not bind).
  const std::string not_a_dir = dir.path() + "/plainfile";
  {
    std::ofstream f(not_a_dir);
    f << "x";
  }
  const std::string under_file = not_a_dir + "/sub";
  EXPECT_FALSE(ColdTier::ValidateSpillDir(under_file).ok());
  EXPECT_FALSE(ColdTier::ValidateSpillDirReadable(under_file).ok());
  EXPECT_FALSE(ColdTier::ValidateSpillDirReadable(not_a_dir).ok());

  // A perfectly readable directory passes the read probe; Database::Open
  // accepts it in read-only mode without requiring writability.
  EXPECT_TRUE(ColdTier::ValidateSpillDirReadable(dir.path()).ok());
  DatabaseOptions options;
  options.recycler.spill_dir = dir.path();
  options.recycler.spill_read_only = true;
  options.recycler.fleet_instance = "reader";
  std::unique_ptr<Database> db;
  EXPECT_TRUE(Database::Open(options, &db).ok());

  // Config validation: a fleet member needs a spill directory.
  DatabaseOptions bad;
  bad.recycler.fleet_instance = "reader";
  std::unique_ptr<Database> none;
  EXPECT_FALSE(Database::Open(bad, &none).ok());
}

// ---------------------------------------------------------------------------
// Async spill queue
// ---------------------------------------------------------------------------

TEST(FleetAsyncSpill, DrainBarrierCommitsEverythingQueued) {
  TempSpillDir dir;
  auto a = OpenInstance(dir.path(), "alpha");
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(a->Execute(RangeQuery(i * 1200.0, (i + 1) * 1200.0)).ok());
  }
  a->FlushCache();  // enqueue + drain
  EXPECT_CONSISTENT(a);
  ColdTierStats stats = a->recycler().cold_tier().Stats();
  EXPECT_EQ(stats.pending_spills, 0);
  EXPECT_GE(stats.entries, 8);
  EXPECT_GE(a->counters().cold_spills.load(), 8);

  // Every queued image is already in the log for a new peer.
  auto b = OpenInstance(dir.path(), "beta");
  EXPECT_GE(b->recycler().cold_tier().Stats().peer_entries, 8);
  EXPECT_CONSISTENT(b);
}

// ---------------------------------------------------------------------------
// Spill-vs-adopt race (TSan target)
// ---------------------------------------------------------------------------

TEST(FleetConcurrency, SpillVsAdoptRaceStaysConsistent) {
  TempSpillDir dir;
  auto a = OpenInstance(dir.path(), "alpha");
  auto b = OpenInstance(dir.path(), "beta");

  constexpr int kWindows = 6;
  std::vector<std::multiset<std::string>> expected;
  for (int k = 0; k < kWindows; ++k) {
    expected.push_back(
        Expected(a.get(), RangeQuery(k * 1500.0, (k + 1) * 1500.0)));
  }

  std::atomic<bool> stop{false};
  // A spills continuously: execute a window, flush it to the shared dir.
  std::thread spiller([&] {
    int i = 0;
    while (!stop.load()) {
      int k = i++ % kWindows;
      Result r = a->Execute(RangeQuery(k * 1500.0, (k + 1) * 1500.0));
      ASSERT_TRUE(r.ok());
      a->FlushCache();
    }
  });
  // B refreshes against the log and serves the same windows.
  std::thread adopter([&] {
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(b->RefreshFleet().ok());
      int k = i % kWindows;
      Result r = b->Execute(RangeQuery(k * 1500.0, (k + 1) * 1500.0));
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(RowMultiset(*r.table()), expected[k]) << "window " << k;
    }
  });
  adopter.join();
  stop.store(true);
  spiller.join();

  EXPECT_GE(b->counters().fleet_refreshes.load(), 40);
  EXPECT_CONSISTENT(a);
  ASSERT_TRUE(b->RefreshFleet().ok());
  EXPECT_CONSISTENT(b);
}

// ---------------------------------------------------------------------------
// Warm standby
// ---------------------------------------------------------------------------

TEST(FleetStandby, TailingStandbyServesWarmAfterPromote) {
  TempSpillDir dir;
  auto primary = OpenInstance(dir.path(), "primary");
  WarmPrimary(primary.get());

  auto standby = OpenInstance(dir.path(), "standby");
  fleet::StandbyTailer tailer(standby.get(), {});
  ASSERT_TRUE(tailer.RefreshNow().ok());
  EXPECT_GE(tailer.refreshes(), 1);
  EXPECT_GT(standby->recycler().cold_tier().Stats().peer_entries, 0);
  EXPECT_CONSISTENT(standby);

  // More results land on the primary while the standby tails.
  ASSERT_TRUE(primary->Execute(RangeQuery(6000, 9000)).ok());
  primary->FlushCache();
  ASSERT_TRUE(tailer.RefreshNow().ok());

  // Primary dies; the standby takes over.
  primary.reset();
  ASSERT_TRUE(tailer.Promote().ok());
  EXPECT_CONSISTENT(standby);

  // First statements after failover serve from the primary's spills.
  auto expected = Expected(standby.get(), RangeQuery(0, 3000));
  Result r = standby->Execute(RangeQuery(0, 3000));
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r.trace().num_adoptions + static_cast<int>(
                                standby->counters().cold_adoptions.load()),
            1);
  EXPECT_GE(r.trace().num_cold_hits, 1);
  EXPECT_EQ(r.trace().num_materialized, 0);
  EXPECT_EQ(RowMultiset(*r.table()), expected);

  Result later = standby->Execute(RangeQuery(6000, 9000));
  ASSERT_TRUE(later.ok());
  EXPECT_GE(later.trace().num_cold_hits, 1);
  EXPECT_CONSISTENT(standby);
}

}  // namespace
}  // namespace recycledb
