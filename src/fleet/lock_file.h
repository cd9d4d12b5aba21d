// Cross-process write arbitration for the manifest log: an exclusive
// flock(2) on `<spill_dir>/manifest.lock`, held only around appends and
// compactions (fleet/manifest.h). Readers never take it — a frame still
// being written reads as bad and is read again at the next refresh.
//
// flock is advisory and per-open-file-description, which is exactly
// what is needed here: every writer in the fleet goes through this
// class, the lock dies with the process (a crashed writer can never
// wedge the directory), and threads within one process are already
// serialized by the cold tier's own mutex. The critical sections are a
// few kilobytes of file I/O, so blocking acquisition is fine.
#pragma once

#include <string>

#include "common/status.h"

namespace recycledb {
namespace fleet {

class DirLock {
 public:
  DirLock() = default;
  ~DirLock() { Release(); }

  // Movable (Status-returning factory), not copyable.
  DirLock(DirLock&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  DirLock& operator=(DirLock&& other) noexcept;
  DirLock(const DirLock&) = delete;
  DirLock& operator=(const DirLock&) = delete;

  /// Opens (creating if needed) `lock_path` and blocks until the
  /// exclusive flock is held. Returns a recoverable Status when the
  /// file cannot be opened (e.g. a read-only mount).
  static Status Acquire(const std::string& lock_path, DirLock* out);

  bool held() const { return fd_ >= 0; }
  void Release();

 private:
  int fd_ = -1;
};

}  // namespace fleet
}  // namespace recycledb
