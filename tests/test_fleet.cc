// Tests for the fleet tier: several engine processes sharing one
// cold-tier directory through the ownership manifest.
//
// Covered here: manifest round trips and fail-soft parsing (corruption,
// version skew), two live instances over one directory (the second serves
// exact / subsumption / stitch hits from the first's spills without
// re-executing, and never steals ownership), stale-lease takeover (expired
// owners are claimed, live ones are not; an opener leaves a live peer's
// in-flight files alone), purges that a member read only
// through a manifest sync or lost to the bounded purge log (at a refresh or
// at open), the read-only adoption mode, the async spill queue's drain
// barrier, and a spill-vs-adopt race between two instances (run under TSan by
// the `fleet` ctest label). Warm-standby failover rides the same harness: a
// tailing standby serves the primary's results from statement one.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <filesystem>
#include <fstream>
#include <thread>

#include "fleet/lock_file.h"
#include "fleet/manifest.h"
#include "recycledb/recycledb.h"
#include "recycler/cold_tier.h"
#include "recycler/recycler.h"
#include "test_util.h"

namespace recycledb {
namespace {

namespace fs = std::filesystem;
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

PlanPtr RangeQuery(double lo, double hi) {
  return PlanNode::Select(
      PlanNode::Scan("f", {"a", "v"}),
      Expr::And(Expr::Ge(Expr::Column("v"), Expr::Literal(lo)),
                Expr::Lt(Expr::Column("v"), Expr::Literal(hi))));
}

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
/// a broad slice, all demoted to the shared cold tier and published in
/// the manifest (FlushCache drains the async queue before returning).
void WarmPrimary(Database* a) {
  ASSERT_TRUE(a->Execute(RangeQuery(0, 3000)).ok());
  ASSERT_TRUE(a->Execute(RangeQuery(3000, 6000)).ok());
  ASSERT_TRUE(a->Execute(BroadQuery(5000)).ok());
  a->FlushCache();
  ASSERT_GT(a->recycler().cold_tier().Stats().entries, 0);
}

// ---------------------------------------------------------------------------
// Manifest format
// ---------------------------------------------------------------------------

TEST(FleetManifest, RoundTripsOwnersEntriesPurges) {
  fleet::Manifest m;
  m.seq = 42;
  m.owners.push_back({"alpha", 1700000000000});
  m.owners.push_back({"beta", 1700000123456});
  m.entries.push_back({"4{select}(0{scan:f})", "r01-alpha-1.spill", "alpha", 7});
  m.entries.push_back({"9{agg}(0{scan:g})", "r02-beta-3.spill", "beta", 41});
  m.purges.push_back({"f", 5});
  m.purges.push_back({"g", 6});

  fleet::Manifest back;
  ASSERT_TRUE(fleet::ParseManifest(fleet::SerializeManifest(m), &back).ok());
  EXPECT_EQ(back.seq, 42);
  ASSERT_EQ(back.owners.size(), 2u);
  EXPECT_EQ(back.owners[1].id, "beta");
  EXPECT_EQ(back.owners[1].lease_expiry_ms, 1700000123456);
  ASSERT_EQ(back.entries.size(), 2u);
  EXPECT_EQ(back.entries[0].canon_key, "4{select}(0{scan:f})");
  EXPECT_EQ(back.entries[0].file, "r01-alpha-1.spill");
  EXPECT_EQ(back.entries[0].owner, "alpha");
  EXPECT_EQ(back.entries[0].admit_seq, 7);
  ASSERT_EQ(back.purges.size(), 2u);
  EXPECT_EQ(back.purges[1].table, "g");
  EXPECT_EQ(back.purges[1].seq, 6);

  // Liveness: unknown and empty owners are never live.
  EXPECT_TRUE(back.OwnerLive("alpha", 1699999999999));
  EXPECT_FALSE(back.OwnerLive("alpha", 1700000000001));
  EXPECT_FALSE(back.OwnerLive("ghost", 0));
  EXPECT_FALSE(back.OwnerLive("", 0));
}

TEST(FleetManifest, CorruptionAndSkewAreRecoverable) {
  fleet::Manifest m;
  m.seq = 1;
  m.entries.push_back({"k", "f.spill", "a", 1});
  std::string buf = fleet::SerializeManifest(m);

  // Flip a byte in the middle: checksum fails, recoverable status.
  std::string corrupt = buf;
  corrupt[corrupt.size() / 2] ^= 0x40;
  fleet::Manifest out;
  Status st = fleet::ParseManifest(corrupt, &out);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);

  // Truncation.
  EXPECT_FALSE(
      fleet::ParseManifest(buf.substr(0, buf.size() / 2), &out).ok());
  // Garbage.
  EXPECT_FALSE(fleet::ParseManifest("not a manifest at all", &out).ok());
  // Empty.
  EXPECT_FALSE(fleet::ParseManifest("", &out).ok());

  // Version skew: a manifest from a newer engine is rejected
  // recoverably (the version field sits right after the 4-byte magic).
  std::string skewed = buf;
  uint32_t newer = fleet::kManifestFormatVersion + 1;
  std::memcpy(&skewed[4], &newer, sizeof(newer));
  st = fleet::ParseManifest(skewed, &out);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  // So is one from an older engine.
  uint32_t older = fleet::kManifestFormatVersion - 1;
  std::memcpy(&skewed[4], &older, sizeof(older));
  st = fleet::ParseManifest(skewed, &out);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(FleetManifest, PurgeLogIsBounded) {
  fleet::Manifest m;
  for (size_t i = 0; i < fleet::kManifestMaxPurges + 20; ++i) {
    m.AddPurge("t" + std::to_string(i));
    ++m.seq;
  }
  EXPECT_LE(m.purges.size(), fleet::kManifestMaxPurges);
  // The survivors are the newest records.
  EXPECT_EQ(m.purges.back().table,
            "t" + std::to_string(fleet::kManifestMaxPurges + 19));
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

  // Stitch: both of A's disjoint slices cover the probe window.
  Result stitch = b->Execute(RangeQuery(1000, 5000));
  ASSERT_TRUE(stitch.ok());
  EXPECT_GE(stitch.trace().num_partial_reuses, 1);
  EXPECT_EQ(RowMultiset(*stitch.table()), expected_stitch);

  EXPECT_GE(b->counters().cold_adoptions.load(), 2);

  // Ownership never moved: every entry in the manifest still names A.
  fleet::Manifest m;
  ASSERT_TRUE(
      fleet::ReadManifestFile(fleet::ManifestPath(dir.path()), &m).ok());
  ASSERT_GT(m.entries.size(), 0u);
  for (const auto& e : m.entries) EXPECT_EQ(e.owner, "alpha");
  EXPECT_NE(m.FindOwner("alpha"), nullptr);
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

  ASSERT_TRUE(a->Execute(BroadQuery(5000)).ok());
  a->FlushCache();
  int64_t peers = 0;
  ASSERT_TRUE(b->RefreshFleet(&peers).ok());
  ASSERT_GE(peers, 1);

  auto expected = Expected(b.get(), RefineQuery(5000, 3));
  Result refine = b->Execute(RefineQuery(5000, 3));
  ASSERT_TRUE(refine.ok());
  EXPECT_EQ(refine.trace().num_adoptions, 1);
  EXPECT_EQ(refine.trace().num_subsumption_reuses, 1);
  EXPECT_EQ(refine.trace().num_cold_hits, 1);
  EXPECT_EQ(RowMultiset(*refine.table()), expected);
}

TEST(FleetSharing, CorruptManifestFallsBackToDirectoryRescan) {
  TempSpillDir dir;
  {
    auto a = OpenInstance(dir.path(), "alpha");
    WarmPrimary(a.get());
  }  // graceful shutdown drops alpha's owner record

  // Smash the manifest. Opening must fall back to scanning the spill
  // files themselves; every image stays adoptable.
  {
    std::ofstream f(fleet::ManifestPath(dir.path()),
                    std::ios::binary | std::ios::trunc);
    f << "garbage garbage garbage";
  }
  auto b = OpenInstance(dir.path(), "beta");
  EXPECT_GT(b->recycler().cold_tier().Stats().entries, 0);

  auto expected = Expected(b.get(), RangeQuery(0, 3000));
  Result r = b->Execute(RangeQuery(0, 3000));
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r.trace().num_adoptions, 1);
  EXPECT_GE(r.trace().num_cold_hits, 1);
  EXPECT_EQ(RowMultiset(*r.table()), expected);

  // B's first sync rebuilt a valid manifest.
  fleet::Manifest m;
  EXPECT_TRUE(
      fleet::ReadManifestFile(fleet::ManifestPath(dir.path()), &m).ok());
}

TEST(FleetSharing, VersionSkewedManifestFallsBackToRescan) {
  TempSpillDir dir;
  {
    auto a = OpenInstance(dir.path(), "alpha");
    WarmPrimary(a.get());
  }
  // Rewrite the manifest with a future format version (valid checksum
  // layout is irrelevant: the version check rejects first).
  std::string buf;
  {
    std::ifstream in(fleet::ManifestPath(dir.path()), std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    buf = ss.str();
  }
  uint32_t newer = fleet::kManifestFormatVersion + 7;
  std::memcpy(&buf[4], &newer, sizeof(newer));
  {
    std::ofstream f(fleet::ManifestPath(dir.path()),
                    std::ios::binary | std::ios::trunc);
    f.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  }

  auto b = OpenInstance(dir.path(), "beta");
  EXPECT_GT(b->recycler().cold_tier().Stats().entries, 0);
  Result r = b->Execute(RangeQuery(3000, 6000));
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r.trace().num_cold_hits, 1);
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
  // Resurrect alpha's owner record with an expired lease: a crashed
  // process that never cleaned up. (Graceful shutdown removed it, so
  // hand-write it back.)
  fleet::Manifest m;
  ASSERT_TRUE(
      fleet::ReadManifestFile(fleet::ManifestPath(dir.path()), &m).ok());
  m.owners.push_back({"alpha", fleet::UnixMillisNow() - 60 * 1000});
  ++m.seq;
  ASSERT_TRUE(
      fleet::WriteManifestFile(fleet::ManifestPath(dir.path()), m).ok());

  auto b = OpenInstance(dir.path(), "beta");
  ColdTierStats stats = b->recycler().cold_tier().Stats();
  EXPECT_GT(stats.entries, 0);
  EXPECT_EQ(stats.peer_entries, 0);   // dead owner: claimed, not peered
  EXPECT_GT(stats.used_bytes, 0);     // claimed files count against B

  // The claim is durable: the manifest now names beta.
  fleet::Manifest after;
  ASSERT_TRUE(
      fleet::ReadManifestFile(fleet::ManifestPath(dir.path()), &after).ok());
  ASSERT_GT(after.entries.size(), 0u);
  for (const auto& e : after.entries) EXPECT_EQ(e.owner, "beta");
}

TEST(FleetLease, LiveOwnersEntriesAreNotClaimed) {
  TempSpillDir dir;
  {
    auto a = OpenInstance(dir.path(), "alpha");
    WarmPrimary(a.get());
  }
  fleet::Manifest m;
  ASSERT_TRUE(
      fleet::ReadManifestFile(fleet::ManifestPath(dir.path()), &m).ok());
  m.owners.push_back({"alpha", fleet::UnixMillisNow() + 60 * 1000});
  ++m.seq;
  ASSERT_TRUE(
      fleet::WriteManifestFile(fleet::ManifestPath(dir.path()), m).ok());

  auto b = OpenInstance(dir.path(), "beta");
  ColdTierStats stats = b->recycler().cold_tier().Stats();
  EXPECT_GT(stats.peer_entries, 0);
  EXPECT_EQ(stats.used_bytes, 0);

  fleet::Manifest after;
  ASSERT_TRUE(
      fleet::ReadManifestFile(fleet::ManifestPath(dir.path()), &after).ok());
  for (const auto& e : after.entries) EXPECT_EQ(e.owner, "alpha");
}

TEST(FleetLease, OpenLeavesALivePeersInFlightFilesAlone) {
  TempSpillDir dir;
  auto a = OpenInstance(dir.path(), "alpha");  // publishes a live lease
  auto plant = [&](const std::string& name) {
    const std::string path = dir.path() + "/" + name;
    std::ofstream(path) << "partial";
    return path;
  };
  // What alpha may be writing right now: a spill, and the manifest under
  // the flock (held below, as alpha's write would).
  const std::string peer_spill = plant("r00000000000000aa-alpha-7.spill.tmp");
  const std::string manifest_tmp = plant("manifest.rdbm.tmp");
  // Torn writes the opener may delete: its own (a prior incarnation's),
  // an owner without a lease, and a private tier's.
  const std::vector<std::string> stale = {
      plant("r00000000000000bb-beta-1.spill.tmp"),
      plant("r00000000000000cc-ghost-2.spill.tmp"),
      plant("r00000000000000dd-3.spill.tmp")};

  fleet::DirLock held;
  ASSERT_TRUE(
      fleet::DirLock::Acquire(fleet::ManifestLockPath(dir.path()), &held)
          .ok());
  // B scans and deletes before its first manifest sync, which then waits
  // for the flock.
  std::unique_ptr<Database> b;
  std::thread opener([&] { b = OpenInstance(dir.path(), "beta"); });
  bool swept = false;
  for (int i = 0; i < 2000 && !swept; ++i) {
    swept = true;
    for (const std::string& path : stale) swept = swept && !fs::exists(path);
    if (!swept) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const bool peer_spill_kept = fs::exists(peer_spill);
  const bool manifest_tmp_kept = fs::exists(manifest_tmp);
  held.Release();
  opener.join();

  EXPECT_TRUE(swept);
  EXPECT_TRUE(peer_spill_kept);
  EXPECT_TRUE(manifest_tmp_kept);
  EXPECT_TRUE(fs::exists(peer_spill));  // B's own sync leaves it too
}

TEST(FleetLease, StaleLeaseTakeoverAtRefresh) {
  TempSpillDir dir;
  auto a = OpenInstance(dir.path(), "alpha", /*rows=*/20000, false,
                        /*lease_ms=*/30000);
  WarmPrimary(a.get());
  auto b = OpenInstance(dir.path(), "beta");
  EXPECT_GT(b->recycler().cold_tier().Stats().peer_entries, 0);

  // Alpha "crashes": expire its lease in place (keep the owner record,
  // as a SIGKILL would).
  {
    fleet::DirLock lock;
    ASSERT_TRUE(
        fleet::DirLock::Acquire(fleet::ManifestLockPath(dir.path()), &lock)
            .ok());
    fleet::Manifest m;
    ASSERT_TRUE(
        fleet::ReadManifestFile(fleet::ManifestPath(dir.path()), &m).ok());
    fleet::ManifestOwner* alpha = m.FindOwner("alpha");
    ASSERT_NE(alpha, nullptr);
    alpha->lease_expiry_ms = fleet::UnixMillisNow() - 60 * 1000;
    ++m.seq;
    ASSERT_TRUE(
        fleet::WriteManifestFile(fleet::ManifestPath(dir.path()), m).ok());
  }

  ASSERT_TRUE(b->RefreshFleet().ok());
  EXPECT_GE(b->counters().fleet_lease_takeovers.load(), 1);
  ColdTierStats stats = b->recycler().cold_tier().Stats();
  EXPECT_EQ(stats.peer_entries, 0);
  EXPECT_GT(stats.used_bytes, 0);

  fleet::Manifest after;
  ASSERT_TRUE(
      fleet::ReadManifestFile(fleet::ManifestPath(dir.path()), &after).ok());
  for (const auto& e : after.entries) EXPECT_EQ(e.owner, "beta");

  // The adopted results still serve.
  auto expected = Expected(b.get(), RangeQuery(0, 3000));
  Result r = b->Execute(RangeQuery(0, 3000));
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r.trace().num_cold_hits, 1);
  EXPECT_EQ(RowMultiset(*r.table()), expected);

  // Keep alpha alive to the end: its dtor must tolerate having been
  // taken over (it forfeits rather than deleting beta's files).
  a.reset();
  EXPECT_TRUE(fs::exists(fleet::ManifestPath(dir.path())));
  Result again = b->Execute(RangeQuery(3000, 6000));
  ASSERT_TRUE(again.ok());
}

// ---------------------------------------------------------------------------
// Purge log
// ---------------------------------------------------------------------------

TEST(FleetPurgeLog, PeerPastTheLogBoundDropsWhatALostPurgeCouldMatch) {
  TempSpillDir dir;
  auto a = OpenInstance(dir.path(), "alpha");
  auto b = OpenInstance(dir.path(), "beta");
  ASSERT_TRUE(a->CreateTable("g", MakeTestTable(10)).ok());

  // Beta owns a spill over f, published in the manifest.
  ASSERT_TRUE(b->Execute(RangeQuery(0, 3000)).ok());
  b->FlushCache();
  ASSERT_TRUE(b->RefreshFleet().ok());
  ASSERT_EQ(b->recycler().cold_tier().Stats().entries, 1);

  // 300 purges before beta refreshes again: alpha replaces f, then g
  // often enough that f's purge record ages out of the bounded log.
  ASSERT_TRUE(a->ReplaceTable("f", MakeReplacedTable(20000)).ok());
  for (int i = 1; i < 300; ++i) {
    ASSERT_TRUE(a->ReplaceTable("g", MakeTestTable(10)).ok());
  }
  fleet::Manifest m;
  ASSERT_TRUE(
      fleet::ReadManifestFile(fleet::ManifestPath(dir.path()), &m).ok());
  ASSERT_EQ(m.purges.size(), fleet::kManifestMaxPurges);
  for (const fleet::ManifestPurge& p : m.purges) ASSERT_EQ(p.table, "g");

  // Beta cannot tell which purges it missed, so it drops everything one
  // of them could have matched.
  ASSERT_TRUE(b->RefreshFleet().ok());
  EXPECT_EQ(b->recycler().cold_tier().Stats().entries, 0);

  // A member over the new f is never served beta's stale spill.
  auto c = OpenInstance(dir.path(), "gamma", 20000, false, 30000,
                        MakeReplacedTable(20000));
  auto expected = Expected(c.get(), RangeQuery(0, 3000));
  Result r = c->Execute(RangeQuery(0, 3000));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.trace().num_adoptions, 0);
  EXPECT_EQ(RowMultiset(*r.table()), expected);
}

TEST(FleetPurgeLog, OpenPastTheLogBoundNeverAdoptsWhatALostPurgeCouldMatch) {
  TempSpillDir dir;
  auto a = OpenInstance(dir.path(), "alpha");
  auto b = OpenInstance(dir.path(), "beta");
  ASSERT_TRUE(b->CreateTable("g", MakeTestTable(10)).ok());

  // Alpha spills over f, then stays idle: it never refreshes, so its
  // manifest entry outlives the purge that made it stale.
  ASSERT_TRUE(a->Execute(RangeQuery(0, 3000)).ok());
  a->FlushCache();
  ASSERT_EQ(a->recycler().cold_tier().Stats().entries, 1);

  // Beta replaces f, then g often enough that f's purge record ages out
  // of the bounded log.
  ASSERT_TRUE(b->ReplaceTable("f", MakeReplacedTable(20000)).ok());
  for (size_t i = 0; i < fleet::kManifestMaxPurges; ++i) {
    ASSERT_TRUE(b->ReplaceTable("g", MakeTestTable(10)).ok());
  }
  fleet::Manifest m;
  ASSERT_TRUE(
      fleet::ReadManifestFile(fleet::ManifestPath(dir.path()), &m).ok());
  ASSERT_EQ(m.purges.size(), fleet::kManifestMaxPurges);
  for (const fleet::ManifestPurge& p : m.purges) ASSERT_EQ(p.table, "g");

  // A fresh member over the new f reads a full log at open: a gap, so it
  // never tracks alpha's entry, let alone serves its stale rows.
  auto d = OpenInstance(dir.path(), "delta", 20000, false, 30000,
                        MakeReplacedTable(20000));
  EXPECT_EQ(d->recycler().cold_tier().Stats().entries, 0);
  auto expected = Expected(d.get(), RangeQuery(0, 3000));
  Result r = d->Execute(RangeQuery(0, 3000));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.trace().num_adoptions, 0);
  EXPECT_EQ(RowMultiset(*r.table()), expected);
}

TEST(FleetPurgeLog, PurgeReadByAManifestSyncIsAppliedAtTheNextRefresh) {
  TempSpillDir dir;
  auto a = OpenInstance(dir.path(), "alpha");
  auto b = OpenInstance(dir.path(), "beta");
  ASSERT_TRUE(b->CreateTable("g", MakeTestTable(100)).ok());
  ASSERT_TRUE(b->Execute(RangeQuery(0, 3000)).ok());
  b->FlushCache();

  // Alpha replaces f. Beta's next manifest write (a spill over g) reads
  // the purge before any refresh does.
  ASSERT_TRUE(a->ReplaceTable("f", MakeReplacedTable(20000)).ok());
  ASSERT_TRUE(b->Execute(PlanNode::Select(
                             PlanNode::Scan("g", {"a", "v"}),
                             Expr::Gt(Expr::Column("v"), Expr::Literal(0.0))))
                  .ok());
  b->FlushCache();
  ASSERT_TRUE(b->RefreshFleet().ok());
  EXPECT_EQ(b->recycler().cold_tier().Stats().entries, 1);  // g's only

  // Had beta kept its spill over f listed, alpha's refresh would track it
  // again and serve it over the new f.
  ASSERT_TRUE(a->RefreshFleet().ok());
  auto expected = Expected(a.get(), RangeQuery(0, 3000));
  Result r = a->Execute(RangeQuery(0, 3000));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.trace().num_adoptions, 0);
  EXPECT_EQ(RowMultiset(*r.table()), expected);
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
  const auto manifest_before =
      fs::file_size(fleet::ManifestPath(dir.path()));
  size_t files_before = 0;
  for (const auto& e : fs::directory_iterator(dir.path())) {
    (void)e;
    ++files_before;
  }

  auto b = OpenInstance(dir.path(), "reader", 20000, /*read_only=*/true);
  ColdTierStats stats = b->recycler().cold_tier().Stats();
  EXPECT_GT(stats.peer_entries, 0);
  EXPECT_EQ(stats.used_bytes, 0);

  auto expected = Expected(b.get(), RangeQuery(0, 3000));
  Result r = b->Execute(RangeQuery(0, 3000));
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r.trace().num_adoptions, 1);
  EXPECT_GE(r.trace().num_cold_hits, 1);
  EXPECT_EQ(RowMultiset(*r.table()), expected);

  // Evictions in read-only mode never touch the shared directory.
  b->FlushCache();
  b.reset();
  size_t files_after = 0;
  for (const auto& e : fs::directory_iterator(dir.path())) {
    (void)e;
    ++files_after;
  }
  EXPECT_EQ(files_after, files_before);
  EXPECT_EQ(fs::file_size(fleet::ManifestPath(dir.path())), manifest_before);
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
  ColdTierStats stats = a->recycler().cold_tier().Stats();
  EXPECT_EQ(stats.pending_spills, 0);
  EXPECT_GE(stats.entries, 8);
  EXPECT_GE(a->counters().cold_spills.load(), 8);

  // Every queued image is already manifest-visible to a new peer.
  auto b = OpenInstance(dir.path(), "beta");
  EXPECT_GE(b->recycler().cold_tier().Stats().peer_entries, 8);
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
  // B refreshes against the manifest and serves the same windows.
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

  // More results land on the primary while the standby tails.
  ASSERT_TRUE(primary->Execute(RangeQuery(6000, 9000)).ok());
  primary->FlushCache();
  ASSERT_TRUE(tailer.RefreshNow().ok());

  // Primary dies; the standby takes over.
  primary.reset();
  ASSERT_TRUE(tailer.Promote().ok());

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
}

}  // namespace
}  // namespace recycledb
