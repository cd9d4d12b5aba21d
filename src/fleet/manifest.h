// The manifest log: the append-only record of who owns which spill file
// in a cold-tier directory. Every cold tier keeps one, alone or with
// peers: a tier is a fleet member whose instance id is its own or the
// default id (ColdTierOptions::instance_id).
//
// One file, `<spill_dir>/manifest.log`, holds framed records:
//
//   u32 payload length | u8 type | payload | u64 XXH64(type + payload)
//
// with the XXH64 of spill files (StreamChecksum, common/hash.h). Every
// payload starts with the record's seq: a writer gives each record the
// next seq of the log, and a compaction keeps the seqs it copies. The
// types:
//   - header: the first record of a file, carrying its generation;
//   - owner:  an instance's lease (unix ms; 0 when it left). Every write
//             batch carries one, so its seq is how far that owner has
//             applied the log;
//   - add:    a spill file, its canonical key, its base tables and its
//             owner (a second add of one file moves its ownership);
//   - drop:   a spill file removed by its owner;
//   - purge:  a table invalidation; every entry over the table added
//             before it is dead.
//
// The rules (DESIGN.md "Cold tier"):
//   - Recovery: a reader stops at the first bad frame (short, oversized,
//     bad checksum, unknown type, undecodable payload), and every record
//     before it stands. A writer that finds a bad frame under the flock
//     rewrites the log from what stands (a compaction) before appending.
//   - Liveness: an entry is live only if it was added after every purge
//     of its tables. ManifestView applies that rule as records arrive.
//   - Retention: a purge record stays until every live owner has applied
//     it (an owner record with a higher seq); compaction drops it then.
//   - Compaction: once the file holds more than twice its live records,
//     a writer writes the live state as a new generation through
//     tmp + rename (common/file_io.h). Readers notice the new file and
//     read it from its start.
//
// Writers append one batch with one write(2) under an exclusive flock on
// `<spill_dir>/manifest.lock` (fleet/lock_file.h), after reading what
// peers appended since their last read. Readers take no lock: they keep
// their offset and read only what lies past it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace recycledb {
namespace fleet {

enum class RecordType : uint8_t {
  kHeader = 1,
  kOwner = 2,
  kAdd = 3,
  kDrop = 4,
  kPurge = 5,
};

/// One log record. Which fields a type carries is listed per field.
struct LogRecord {
  RecordType type = RecordType::kHeader;
  int64_t seq = 0;
  /// kHeader: the file's generation. kOwner: lease expiry, unix ms (0:
  /// the owner left).
  int64_t value = 0;
  /// kOwner: the instance. kAdd: the owning instance.
  std::string owner;
  /// kAdd, kDrop: the spill file, relative to the directory (never a
  /// full path: the directory may be mounted at different paths). kPurge:
  /// the table.
  std::string name;
  /// kAdd: the canonical subtree key and the entry's base tables.
  std::string canon_key;
  std::vector<std::string> tables;
};

/// Appends `r` as one frame.
void AppendFrame(const LogRecord& r, std::string* out);

/// Decodes frames from the start of `buf` up to the first bad one.
/// Returns the length of the good prefix.
size_t DecodeFrames(std::string_view buf, std::vector<LogRecord>* out);

struct LogEntry {
  std::string canon_key;
  std::string owner;
  int64_t seq = 0;  // of the add record
  std::vector<std::string> tables;
};

struct LogOwner {
  int64_t lease_expiry_ms = 0;
  int64_t seq = 0;  // of its latest owner record
};

struct LogPurge {
  std::string table;
  int64_t seq = 0;
};

/// The state a log's records replay to.
struct ManifestView {
  int64_t generation = 0;
  int64_t last_seq = 0;
  /// Records in the file, header included.
  int64_t records = 0;
  std::map<std::string, LogOwner> owners;
  /// Live entries by file name.
  std::map<std::string, LogEntry> entries;
  /// Purge records in the file, in seq order.
  std::vector<LogPurge> purges;

  void Apply(LogRecord r);

  /// True when `owner`'s lease runs past `now_ms`. Unknown owners are
  /// not live.
  bool OwnerLive(const std::string& owner, int64_t now_ms) const;

  /// True when a purge in the file names one of `tables`.
  bool AnyPurged(const std::vector<std::string>& tables) const;

  /// What a compaction at `now_ms` keeps, in seq order: live owners,
  /// purges some live owner has not applied, and every live entry.
  std::vector<LogRecord> LiveRecords(int64_t now_ms) const;
};

/// Wall clock in unix milliseconds (leases must be comparable across
/// processes, so this is system_clock, not steady_clock).
int64_t UnixMillisNow();

/// One tier's handle on `<dir>/manifest.log`: the descriptor it reads and
/// appends through, its read offset, and the view of everything up to
/// that offset. Not thread-safe (the cold tier's mutex guards it).
class ManifestLog {
 public:
  ManifestLog() = default;
  ~ManifestLog() { Close(); }
  ManifestLog(const ManifestLog&) = delete;
  ManifestLog& operator=(const ManifestLog&) = delete;

  static std::string Path(const std::string& dir);
  static std::string LockPath(const std::string& dir);

  bool is_open() const { return fd_ >= 0; }
  const ManifestView& view() const { return view_; }
  /// The read offset: the length of the good prefix read so far.
  int64_t offset() const { return offset_; }

  /// Opens `<dir>/manifest.log` and reads it whole into the view. With
  /// `create`, a missing file is created empty (the caller holds the
  /// flock); without, a missing file is NotFound. `records` (optional)
  /// gets the records read.
  Status Open(const std::string& dir, bool writable, bool create,
              std::vector<LogRecord>* records = nullptr);

  /// Reads what was appended since the last read and applies it to the
  /// view; `fresh` gets those records. When a compaction replaced the
  /// file, the new file is read from its start and `*resynced` is set
  /// (the view and `fresh` then cover the whole new file). A call that
  /// finds nothing new reads nothing. `bytes_read` (optional) gets the
  /// number of bytes read.
  Status Tail(std::vector<LogRecord>* fresh, bool* resynced,
              int64_t* bytes_read = nullptr);

  /// Appends `batch` as one write(2), assigning each record its seq. The
  /// caller holds the flock and has tailed. A bad frame left by a
  /// crashed writer is compacted away first; afterwards the log is
  /// compacted when it holds more than twice its live records.
  Status Append(std::vector<LogRecord>* batch, int64_t now_ms);

  /// Replays the first offset() bytes of the file this handle read
  /// into `*out`: equal to view() unless the reader misapplied a record.
  Status ReplayPrefix(ManifestView* out) const;

  void Close();

 private:
  /// Writes view_.LiveRecords(now_ms) as the next generation and reopens.
  Status Compact(int64_t now_ms);
  /// Replaces fd_/offset_/view_ with a fresh read of the file at path_;
  /// `records` (optional) gets the records read.
  Status Reopen(bool create, std::vector<LogRecord>* records,
                int64_t* bytes_read);

  std::string path_;
  bool writable_ = false;
  int fd_ = -1;
  uint64_t inode_ = 0;
  uint64_t device_ = 0;
  int64_t offset_ = 0;
  /// The last read found bytes past the good prefix.
  bool torn_ = false;
  ManifestView view_;
};

}  // namespace fleet
}  // namespace recycledb
