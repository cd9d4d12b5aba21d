// Whole-file I/O for the engine's persistent files: one reader and one
// crash-safe writer.
//
// WriteFileAtomic writes "<path>.tmp" and renames it over `path`, so a
// reader (or a process restarted after a crash) sees the old file or the
// new one, never a torn one under the final name; a failed write removes
// its .tmp. Nothing is fsynced: a crash may lose the newest file, never
// expose half of it. Trace files and the fleet manifest log's compaction
// use it; spill files stream their payload through the same tmp + rename
// discipline in storage/spill_file.cc.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace recycledb {

/// Appends the bytes of the open file `fd` from `offset` to its end onto
/// `*out` (pread, so the descriptor's own offset is untouched).
Status ReadFdFrom(int fd, int64_t offset, std::string* out);

/// The whole file at `path`. NotFound when it does not exist.
Status ReadWholeFile(const std::string& path, std::string* out);

/// Writes `data` to "<path>.tmp", then renames it over `path`.
Status WriteFileAtomic(const std::string& path, std::string_view data);

}  // namespace recycledb
