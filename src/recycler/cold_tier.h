// The cold tier: a size-bounded on-disk spill directory below the
// in-memory benefit cache.
//
// When the hot cache evicts a result, the recycler serializes it into a spill
// file (storage/spill_file.h) and flips the node to MatState::kCold; the node
// stays registered in the graph and the interval index, so exact, subsumption
// and partial-stitch lookups keep finding it and lazily re-admit it (load
// from disk -> promote to hot -> serve) instead of re-executing the subtree.
// On process start the tier scans its directory and keeps every readable
// entry as an *orphan* keyed by the canonical subtree key; newly inserted
// graph nodes probe that map and adopt matching orphans, which is how a
// restart warms up from disk. An orphan whose header carries a select
// descriptor (spill_file.h) is also filed under its child's canonical
// key, so the recycler can rebuild the slice's graph node from the
// header when a derived-reuse lookup first reaches that child.
//
// Replacement is second-chance at a byte cap: entries sit on a clock
// list, loads set their reference bit, and an over-cap spill sweeps the
// clock — referenced entries get one more round, unreferenced ones are
// deleted. Files survive promotion back to the hot tier (results are
// immutable, so the image never goes stale), which makes later
// demotions free and lets a shutdown checkpoint skip already-spilled
// entries; invalidation is the only path that must delete files.
//
// Every tier is a fleet member: it records which spill files it owns in
// the directory's manifest log (fleet/manifest.h), under its instance id
// or, when it has none, the default id. A private tier is a fleet of one
// under the default id, so it reclaims its own files at once when it
// reopens; the directory must then belong to that one engine. Peer
// entries are tracked as *peer orphans*: adoptable by canonical key
// exactly like restart orphans, but never deleted, never swept, and never
// counted against this instance's byte cap — eviction rights stay with
// the owner. RefreshPeers() tails the log for new peer spills, purge
// records, and stale-lease takeover of a crashed owner's files.
// Read-only mode (a standby on a read-only mount) opens adopt-only: every
// file is a peer orphan and nothing is ever written.
//
// A tier with nothing to record touches no log file: an open that finds
// no log, and a close or checkpoint that wrote no spill, make no log I/O.
// The worker appends the records of committed spills in one batch before
// it goes idle; drops by Remove ride along with the next batch.
//
// Spill I/O runs on a background worker in every writable tier, started
// by the first spill (a tier that never spills runs no thread):
// SpillAsync enqueues the pinned result snapshot and returns
// immediately, Load serves still-pending entries straight from that
// snapshot (no miss window), and Drain() is the
// barrier checkpoints and shutdown use. A failed or swept-while-pending
// spill reports the node through the drop callback, which runs with no
// cold-tier lock held so the recycler can take its graph/cache locks to
// demote.
//
// Thread-safety: internally synchronized by one leaf mutex, acquired
// after the recycler's graph/cache locks and never held across calls
// back into them (lock order: graph mutex -> cache mutex -> cold-tier
// mutex, with the mat shard mutex independent below the cache mutex;
// see DESIGN.md "Cold tier"). Loads perform file I/O under the mutex:
// they are a slow path by definition (a miss that would otherwise
// re-execute a subtree). Spill writes run on the worker with the mutex
// released.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "fleet/manifest.h"
#include "storage/spill_file.h"

namespace recycledb {

struct RGNode;

/// Point-in-time snapshot of the tier (diagnostics, tests, benches).
struct ColdTierStats {
  int64_t entries = 0;        // live + orphan, owned + peer
  int64_t orphans = 0;        // entries not yet adopted by a graph node
  int64_t used_bytes = 0;     // owned bytes only (peer files are the
                              // owner's budget)
  int64_t capacity_bytes = 0;
  /// Uncompressed size of the stored entries (what used_bytes would be
  /// without column compression).
  int64_t raw_bytes = 0;
  /// Entries owned by other instances (tracked, adoptable, never swept
  /// locally).
  int64_t peer_entries = 0;
  /// Async spills accepted but not yet committed to disk.
  int64_t pending_spills = 0;
};

/// The instance id of a tier opened without one: a private tier, the
/// only member of its directory's fleet.
inline constexpr char kDefaultInstanceId[] = "default";

/// How a ColdTier opens its directory (built by the recycler from
/// RecyclerConfig).
struct ColdTierOptions {
  std::string dir;
  int64_t capacity_bytes = 0;
  /// Adopt-only: never create, delete or lock anything in the directory
  /// (standby on a read-only mount). Implies no spills.
  bool read_only = false;
  /// This process's identity in the manifest log and in its spill file
  /// names; empty means kDefaultInstanceId.
  std::string instance_id;
  /// Liveness lease duration; an instance whose lease expires forfeits
  /// its entries to stale-lease takeover.
  int64_t lease_ms = 30000;
};

class ColdTier {
 public:
  ColdTier() = default;
  ~ColdTier();

  // Non-copyable (owns file-backed state).
  ColdTier(const ColdTier&) = delete;
  ColdTier& operator=(const ColdTier&) = delete;

  /// Validates that `dir` can be created and that the process may
  /// create and delete entries in it (access(2) with W_OK | X_OK; no
  /// file is written). Open runs it for a writable tier.
  static Status ValidateSpillDir(const std::string& dir);

  /// Read-only variant: validates that `dir` exists and is a readable
  /// directory WITHOUT creating or writing anything (adopt-only opens
  /// on a read-only mount must probe without side effects).
  static Status ValidateSpillDirReadable(const std::string& dir);

  /// Opens the tier over `options.dir` with a byte cap: creates the
  /// directory, deletes stale .tmp files, and scans *.spill into the
  /// orphan map (unreadable or duplicate-key files are deleted, newest
  /// key wins). The manifest log, when the scan finds one, decides which
  /// files are ours or claimable (ours, a dead owner's, or unlisted and
  /// named by no live writer) and which are a live peer's, and which
  /// .tmp files are stale (a live peer's spill .tmp and the log's own
  /// .tmp are left alone). An unlisted file over a table the log purged
  /// is deleted: it may predate the purge. A tier that found a log then
  /// appends its lease and its claims; one that found none writes
  /// nothing. A writable tier starts its spill worker on the first
  /// SpillAsync. An empty dir leaves the tier disabled and returns OK.
  Status Open(const ColdTierOptions& options);

  /// What the last Open returned (OK if none ran). Database::Open returns
  /// it, so an unusable spill_dir surfaces there as an actionable Status.
  const Status& open_status() const { return open_status_; }

  bool enabled() const { return enabled_; }
  bool read_only() const { return read_only_; }
  const std::string& instance_id() const { return instance_; }

  /// Whether spills compress columns (per-column codec selection). Set
  /// once at engine construction, before any spill.
  void set_compress(bool v) { compress_ = v; }
  bool compress() const { return compress_; }

  /// Callback for entries dropped off the recycler's sync paths (spill
  /// failures and commit-time sweeps): invoked with NO cold-tier lock
  /// held, so it may take the graph/cache locks to demote the
  /// nodes. Set once at engine construction.
  void set_drop_callback(
      std::function<void(const std::vector<const RGNode*>&)> cb) {
    drop_cb_ = std::move(cb);
  }

  /// Callback invoked once per committed spill file with its on-disk
  /// and uncompressed sizes (counter accounting). Runs on the worker
  /// with no cold-tier lock held.
  void set_spilled_callback(
      std::function<void(const RGNode*, int64_t, int64_t)> cb) {
    spilled_cb_ = std::move(cb);
  }

  /// Cheap pre-check for the adoption probe on graph insertion.
  bool has_orphans() const {
    return num_orphans_.load(std::memory_order_relaxed) > 0;
  }

  /// Grows by one whenever an orphan joins the map (Open's scan, or a
  /// RefreshPeers that discovers peer entries); adoptions and purges only
  /// shrink the map and leave it alone. A node probed for adoption at
  /// generation G needs no new probe while the generation is still G.
  int64_t orphan_generation() const { return orphan_gen_.load(); }

  /// True when `node` has a live spill file or a pending spill.
  bool Has(const RGNode* node) const;

  /// On-disk and uncompressed sizes of `node`'s committed entry; false
  /// when it has none (spill-byte accounting in the recycler's
  /// counters). Pending spills report false.
  bool EntrySizes(const RGNode* node, int64_t* stored_bytes,
                  int64_t* raw_bytes) const;

  /// Enqueues the pinned `snapshot` as `node`'s spill file for the
  /// background worker and returns immediately (true = accepted, or a
  /// file or pending spill already exists; the entry serves loads from
  /// the snapshot until the file commits). False when the tier is
  /// disabled or read-only, or the result is larger than the cap. At
  /// commit the worker runs the second-chance sweep to fit the cap; a
  /// failed write, a result the sweep could not fit, and the sweep's
  /// victims are reported through the drop callback.
  bool SpillAsync(const RGNode* node, const std::string& canon_key,
                  TablePtr snapshot, const SpillFileMeta& meta);

  /// Blocks until the spill queue is empty, the worker idle and its
  /// committed spills in the manifest log (checkpoint/shutdown barrier;
  /// also used by deterministic tests).
  /// Callers must NOT hold the recycler's cache mutex: the worker's
  /// drop callback acquires it.
  void Drain();

  /// Loads `node`'s spilled result and sets its second-chance bit; a
  /// pending spill is served directly from its in-memory
  /// snapshot. NotFound when the node has no live entry (e.g. it was
  /// swept between the state check and the load); other errors mean a
  /// corrupt file — the caller should Remove(node) and treat it as a
  /// miss.
  Status Load(const RGNode* node, TablePtr* out);

  /// Like Load, but materializes only the rows whose value in column
  /// `filter_column` falls in `range` (ReadSpillTableFiltered: the
  /// selection runs on the encoded image before any decode). Sets the
  /// second-chance bit on success. The slice is a partial result and
  /// must never be promoted to the hot tier or re-spilled by the caller.
  /// Fails recoverably for pending spills (the caller falls back to the
  /// full in-memory snapshot).
  Status LoadSlice(const RGNode* node, int filter_column,
                   const ColumnInterval& range, TablePtr* out);

  /// Headers of the orphans filed under `child_key` (select descriptors
  /// naming that child), ascending by canonical key. Copies: the caller
  /// rebuilds graph nodes from them and adopts each through AdoptOrphan,
  /// which fails harmlessly for one adopted or purged meanwhile.
  std::vector<SpillFileMeta> OrphanSlicesUnder(
      const std::string& child_key) const;

  /// Claims the orphan under `canon_key` for `node` (making it live) and
  /// returns its metadata. False when no orphan has that key. Adopting
  /// a peer orphan never takes ownership of the file: the entry serves
  /// reads here while eviction rights stay with the owning instance.
  bool AdoptOrphan(const std::string& canon_key, const RGNode* node,
                   SpillFileMeta* meta, int64_t* bytes);

  /// Deletes `node`'s entry and file (invalidation, corrupt file); a
  /// pending spill is canceled. Peer entries are only forgotten
  /// locally — the owner keeps the file. The drop reaches the manifest
  /// log with the next append (the caller holds the recycler's locks).
  void Remove(const RGNode* node);

  /// Deletes every entry (live or orphan) whose subtree reads `table`
  /// (update invalidation: stale cold results must never be re-admitted).
  /// Live nodes whose entries were purged are appended to
  /// `dropped_nodes` for graph-state demotion by the caller. A writable
  /// tier appends a purge record, so peers retire their copies at their
  /// next refresh and a later open never claims an older unlisted file
  /// over the table.
  void PurgeTable(const std::string& table,
                  std::vector<const RGNode*>* dropped_nodes);

  /// What one RefreshPeers found.
  struct RefreshStats {
    int64_t new_peer_entries = 0;
    int64_t lease_takeovers = 0;
    /// Manifest log bytes read; 0 when nothing was appended since the
    /// last read.
    int64_t log_bytes_read = 0;
  };

  /// Fleet refresh: reads the manifest log past this tier's offset and
  /// applies it — (a) purge records, (b) new peer entries as adoptable
  /// peer orphans, (c) peer entries their owner dropped, (d) entries a
  /// peer took over after this tier's lease lapsed — then (e) claims
  /// entries whose owner's lease expired (stale-lease takeover; skipped
  /// in read-only mode) and (f) renews this instance's lease when due.
  /// A compacted log is read again from its start. Live nodes dropped by
  /// (a)/(c)/(d) are appended to `dropped_nodes`.
  Status RefreshPeers(std::vector<const RGNode*>* dropped_nodes,
                      RefreshStats* stats);

  /// Checks the tier's invariants once its spill worker is idle:
  /// replaying the manifest log up to this tier's offset gives its view
  /// of the log, whose entries under this instance are exactly the
  /// tier's logged entries (plus drops not appended yet) and whose
  /// entries under peers cover every tracked peer entry; every owned
  /// entry names an existing file whose header key equals the entry's
  /// key; used_bytes is the owned bytes and within the cap; the maps
  /// agree; and no node is both live and pending. Internal on the first
  /// violation. Must not be called with the recycler's cache mutex held.
  Status CheckConsistency();

  ColdTierStats Stats() const;

 private:
  struct Rec {
    std::string path;
    std::string file;  // path relative to dir_ (the log's name for it)
    std::string canon_key;
    int64_t bytes = 0;
    bool second_chance = false;
    /// This instance owns the file (may delete/sweep it and lists it in
    /// the log). Peer entries are read-only here.
    bool owned = true;
    /// Owned: the log lists the file under this instance.
    bool logged = false;
    /// Peer entries: the owning instance.
    std::string owner;
    /// Seq of the add record that made the entry live (0: none yet);
    /// purges with a higher seq retire it.
    int64_t admit_seq = 0;
    /// Owning graph node; nullptr for orphans awaiting adoption.
    const RGNode* node = nullptr;
    SpillFileMeta meta;  // header copy (adoption re-seeds node stats)

    /// Uncompressed size for accounting. An empty result's raw image is
    /// 0 bytes, so it counts at its on-disk size instead.
    int64_t raw_bytes() const {
      return meta.raw_bytes > 0 ? meta.raw_bytes : bytes;
    }
  };
  using ClockIt = std::list<Rec>::iterator;

  /// A spill accepted by SpillAsync but not yet committed. The snapshot
  /// pins the result so loads can serve it while the write is in
  /// flight.
  struct PendingSpill {
    const RGNode* node = nullptr;
    std::string canon_key;
    TablePtr snapshot;
    SpillFileMeta meta;
    bool canceled = false;  // Remove/purge raced the worker
  };
  using PendingIt = std::list<PendingSpill>::iterator;

  /// Erases `it` from every map, deletes its file (owned entries only,
  /// queueing the log's drop record when it was logged), adjusts
  /// accounting. Caller holds mu_.
  void EvictRec(ClockIt it, std::vector<const RGNode*>* dropped_nodes);

  /// Second-chance sweep over OWNED entries until `need_bytes` fit under
  /// the cap. Caller holds mu_. Returns false when the clock ran dry
  /// without fitting.
  bool SweepToFit(int64_t need_bytes,
                  std::vector<const RGNode*>* dropped_nodes);

  /// Commits one written spill file into the maps (dedupe, sweep, link).
  /// Called by the worker. Caller holds mu_.
  bool CommitSpillLocked(const RGNode* node, const std::string& canon_key,
                         const std::string& path, int64_t bytes,
                         SpillFileMeta stored,
                         std::vector<const RGNode*>* dropped_nodes);

  /// Appends to the manifest log under the flock: reads and applies what
  /// peers appended first, then writes the queued purges and drops, an
  /// add for every owned entry not yet logged, and this instance's owner
  /// record (lease 0 when `leaving`), creating the log when there is
  /// none. False when the flock or the write failed (the work stays
  /// queued). Caller holds mu_; never called read-only.
  bool AppendLogLocked(std::vector<const RGNode*>* dropped_nodes,
                       bool leaving = false);

  /// Applies records read from the log to the tier. `resynced`: they are
  /// a whole (replaced) file, so tracked entries it does not list go
  /// first. Caller holds mu_.
  void CatchUpLocked(const std::vector<fleet::LogRecord>& records,
                     bool resynced, std::vector<const RGNode*>* dropped_nodes,
                     RefreshStats* stats);

  /// Makes `it` a peer entry of `owner` (it took the file over).
  void ForfeitLocked(ClockIt it, const std::string& owner, int64_t admit_seq);

  /// Makes a peer entry ours, to be re-added under this instance.
  void ClaimLocked(ClockIt it);

  /// Inserts a scanned/discovered file as an orphan Rec, filed under its
  /// select descriptor's child key when it has one. Caller holds mu_.
  ClockIt AddOrphanLocked(const std::string& path, int64_t bytes,
                          SpillFileMeta meta, bool owned,
                          const std::string& owner, int64_t admit_seq,
                          bool logged);

  /// Takes `it` out of by_child_ (it was adopted or is being erased).
  /// Caller holds mu_.
  void UnfileOrphanLocked(ClockIt it);

  /// Marks `ps` canceled and takes it off the queue (a spill already in
  /// flight is off the queue: the worker discards its file). Caller holds
  /// mu_.
  void CancelPendingLocked(PendingSpill* ps);

  /// Retires every entry over `table` admitted before `seq`, and cancels
  /// pending spills over it. Caller holds mu_.
  void ApplyPurgeLocked(const std::string& table, int64_t seq,
                        std::vector<const RGNode*>* dropped_nodes);

  void WorkerLoop();

  std::string FilePath(uint64_t name_hash);

  mutable std::mutex mu_;
  Status open_status_;
  bool enabled_ = false;
  bool compress_ = true;
  bool read_only_ = false;
  std::string instance_;
  int64_t lease_ms_ = 30000;
  std::string dir_;
  int64_t capacity_bytes_ = 0;
  int64_t used_bytes_ = 0;
  uint64_t next_file_id_ = 0;
  /// Clock order over OWNED entries (front = next sweep victim).
  std::list<Rec> clock_;
  /// Peer-owned entries: adoptable, never swept or deleted.
  std::list<Rec> peers_;
  std::unordered_map<const RGNode*, ClockIt> live_;
  std::unordered_map<std::string, ClockIt> by_key_;
  std::unordered_map<std::string, ClockIt> by_file_;
  /// Orphans with a select descriptor, by the descriptor's child key.
  std::unordered_multimap<std::string, ClockIt> by_child_;
  std::atomic<int64_t> num_orphans_{0};
  std::atomic<int64_t> orphan_gen_{0};

  // --- manifest log (guarded by mu_) ----------------------------------
  fleet::ManifestLog log_;
  /// Our lease expiry as of the last append (renew-ahead check).
  int64_t lease_expiry_ms_ = 0;
  /// Something is not in the log yet: an owned entry not logged, or a
  /// queued purge or drop.
  bool log_dirty_ = false;
  /// Tables purged here since the last append.
  std::vector<std::string> unlogged_purges_;
  /// Files of logged entries evicted since the last append.
  std::vector<std::string> unlogged_drops_;

  // --- spill queue (guarded by mu_) ------------------------------------
  bool stop_worker_ = false;
  bool worker_busy_ = false;
  std::list<PendingSpill> pending_;
  std::unordered_map<const RGNode*, PendingIt> pending_by_node_;
  std::condition_variable work_cv_;
  std::condition_variable drain_cv_;
  /// Started by the first SpillAsync, under mu_.
  std::thread worker_;

  std::function<void(const std::vector<const RGNode*>&)> drop_cb_;
  std::function<void(const RGNode*, int64_t, int64_t)> spilled_cb_;
};

}  // namespace recycledb
