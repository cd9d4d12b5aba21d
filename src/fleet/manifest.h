// The fleet ownership manifest: the small on-disk record that lets
// several engine processes share one cold-tier directory.
//
// One file, `<spill_dir>/manifest.rdbm`, holds (a) the owner table —
// every instance that writes the directory, with a wall-clock lease
// expiry it renews on each manifest write; (b) the entry table — one
// record per spill file, keyed by the canonical subtree key, naming the
// file and the owning instance; and (c) a bounded log of purge records
// (table invalidations) that peers apply at their next refresh, so a
// ReplaceTable in one process retires the table's spilled results in
// every process at refresh granularity.
//
// Writers follow the spill-file discipline exactly: serialize into
// "<path>.tmp", fsync-free rename into place, trailing FNV-1a checksum
// over everything before it. Readers therefore never need a lock — a
// rename is atomic, and a torn or stale read fails the checksum and is
// retried at the next refresh. Writers DO coordinate: read-modify-write
// cycles run under an exclusive flock on `<spill_dir>/manifest.lock`
// (fleet/lock_file.h), so two instances never interleave updates.
//
// Parse failures are always recoverable Statuses, never aborts: a
// corrupt, truncated or version-skewed manifest makes an opener fall
// back to a directory re-scan (every readable spill file is adoptable;
// ownership is rebuilt as the instances touch the manifest again).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace recycledb {
namespace fleet {

/// Version 2 dropped the purge records' append-only flag byte.
inline constexpr uint32_t kManifestFormatVersion = 2;

/// Purge records kept in the manifest (older ones age out). An instance
/// that falls further behind cannot tell which purges it missed, so it
/// drops every entry admitted no later than the oldest record still
/// kept (ColdTier::RefreshPeers; DESIGN.md "Fleet tier").
inline constexpr size_t kManifestMaxPurges = 256;

/// A writer instance and the wall-clock (unix ms) its liveness lease
/// runs to. An expired lease marks the owner as presumed-dead: its
/// entries become claimable by any live instance (stale-lease
/// takeover). A graceful shutdown drops the owner record entirely,
/// which reads the same as an expired lease.
struct ManifestOwner {
  std::string id;
  int64_t lease_expiry_ms = 0;
};

/// One spill file: who wrote it, under which canonical key, and the
/// manifest sequence number current when it was admitted (purge records
/// carry the sequence at purge time, so `admit_seq > purge.seq` proves
/// an entry postdates the invalidation that would retire it).
struct ManifestEntry {
  std::string canon_key;
  /// File name relative to the spill directory (never a full path: the
  /// directory may be mounted at different paths in different
  /// processes).
  std::string file;
  /// Owning instance id; empty = unowned (claimable by anyone).
  std::string owner;
  int64_t admit_seq = 0;
};

/// A table invalidation to be applied fleet-wide: every image over
/// `table` admitted no later than `seq` goes. Only a replace purges; an
/// append needs no record, since every image carries the row mark of
/// each base table and re-anchors it on adoption.
struct ManifestPurge {
  std::string table;
  int64_t seq = 0;
};

struct Manifest {
  /// Monotone write counter; bumped by every writer under the flock.
  int64_t seq = 0;
  std::vector<ManifestOwner> owners;
  std::vector<ManifestEntry> entries;
  std::vector<ManifestPurge> purges;

  ManifestOwner* FindOwner(const std::string& id);
  const ManifestEntry* Find(const std::string& canon_key) const;

  /// True when `owner` names an instance whose lease runs past `now_ms`.
  /// Unknown owners and the empty owner are not live (claimable).
  bool OwnerLive(const std::string& owner, int64_t now_ms) const;

  /// Appends a purge record at the current seq, aging out the oldest
  /// beyond kManifestMaxPurges.
  void AddPurge(const std::string& table);
};

/// `<dir>/manifest.rdbm` / `<dir>/manifest.lock`.
std::string ManifestPath(const std::string& dir);
std::string ManifestLockPath(const std::string& dir);

/// Wall clock in unix milliseconds (leases must be comparable across
/// processes, so this is system_clock, not steady_clock).
int64_t UnixMillisNow();

std::string SerializeManifest(const Manifest& m);

/// Fail-soft: truncation, bad magic, checksum mismatch and newer
/// versions all return recoverable InvalidArgument.
Status ParseManifest(const std::string& buf, Manifest* out);

/// NotFound when the file does not exist (a fresh directory);
/// InvalidArgument per ParseManifest otherwise.
Status ReadManifestFile(const std::string& path, Manifest* out);

/// tmp + rename, like spill files: readers see the old or the new
/// manifest, never a torn one. Callers serialize writers via DirLock.
Status WriteManifestFile(const std::string& path, const Manifest& m);

}  // namespace fleet
}  // namespace recycledb
