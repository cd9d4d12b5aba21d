// Spill files: the cold tier's on-disk result format.
//
// A spill file holds one materialized recycler result as a simple
// columnar image: a self-describing header (canonical subtree key,
// schema, reference statistics, base tables) followed by the raw column
// payloads and a trailing checksum. Columns are written contiguously per
// column, so read-back rebuilds each ColumnVector with one bulk read and
// the reloaded table feeds the zero-copy view machinery exactly like a
// freshly materialized result (scans emit O(1) views of its columns).
//
// Layout (all integers little-endian, strings length-prefixed u32):
//
//   "RDBS" magic | u32 version | u64 header_len | header | payload | u64 sum
//
// Each column is a self-describing encoded block
//
//   u8 encoding | u64 payload_len | payload
//
// using the codecs in storage/compression.h (raw / RLE / dictionary /
// frame-of-reference, chosen per column by size). The header also
// carries the uncompressed payload size, so the cold tier can report
// compression ratios, and the base-table row high-water marks the
// result was computed at (delta maintenance; see recycler/delta.h).
//
// The canonical key is binary: per node of the subtree, pre-order, its
// op type byte, its length-prefixed positional parameter key
// (PlanNode::AppendParamKey) and its child count.
//
// The select descriptor: when the spilled result's root is a Select over
// one child, the header names the child subtree by its canonical key and
// carries the Select's parameter key, which is its predicate's key over
// the child's output (column references as ordinals, literals as exact
// typed datums; Expr::AppendKey, read back by DecodeExprOrdinal in
// expr/expression.h). A restarted process can rebuild the graph node
// from the descriptor alone, so the slice serves derived reuse before
// its own statement runs again.
//
// Only the current version is readable. Spills are cache content that
// can always be recomputed from base data, so a file of any other
// version fails ReadSpillMeta; the cold tier deletes it at open and the
// result becomes a miss.
//
// The checksum is XXH64 (StreamChecksum in common/hash.h) over header +
// payload, a word at a time: it runs over every byte on write and again
// before every load, so it must cost little more than the read. Writers
// stream to
// "<path>.tmp" and rename into place, so a final-named file is always
// complete: a crash can lose the entry being written, never produce a
// half-readable one. Readers return recoverable Status (never abort) on
// truncation, checksum mismatch, or version/magic drift.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/interval.h"
#include "common/status.h"
#include "storage/table.h"

namespace recycledb {

/// The spill format version; bump on any layout change, including the
/// grammar of the canonical key the header holds. Files of any other
/// version are rejected with a recoverable Status.
inline constexpr uint32_t kSpillFormatVersion = 7;

/// Everything the cold tier must know about a spilled result without
/// touching its payload: the restart-stable identity plus the reference
/// statistics needed to re-seed a recycler-graph node after a restart.
struct SpillFileMeta {
  /// Canonical structural key of the producing graph subtree
  /// (Recycler::CanonicalSubtreeKey): stable across process restarts.
  std::string canon_key;
  /// Column names at spill time (those of the query that produced the
  /// result; readers rename positionally into their own).
  std::vector<std::string> column_names;
  /// Column types (positional); verified against the adopting node.
  std::vector<TypeId> column_types;
  int64_t num_rows = 0;
  /// Reference statistics restored on orphan adoption.
  double bcost_ms = 0;
  double h = 0;
  /// Benefit at spill time (diagnostics only).
  double benefit = 0;
  /// Base tables under the producing subtree (update invalidation must
  /// purge spilled entries too).
  std::vector<std::string> base_tables;
  /// Uncompressed payload size in bytes (the raw column image this file
  /// would occupy without compression). Computed by WriteSpillFile; 0
  /// for an empty result.
  int64_t raw_bytes = 0;
  /// Per-base-table row high-water marks at computation time: the result
  /// was computed from rows [0, rows) of each named table.
  /// Replace-epochs are process-local and deliberately NOT persisted;
  /// adoption re-anchors the stamps against the live catalog and drops
  /// images whose marks exceed the current table (shrunk/replaced base).
  /// Names exactly `base_tables`: the header reader rejects any other
  /// file as corrupt.
  std::vector<std::pair<std::string, int64_t>> table_versions;
  /// Select descriptor: for a result whose root is a single-child
  /// Select, the canonical key of the child subtree and the Select's
  /// positional parameter key (its predicate's Expr::AppendKey over the
  /// child's output). Both are empty for any other result; such a file
  /// is adoptable only by exact key.
  std::string select_child_key;
  std::string select_predicate;
};

/// Writer knobs; defaults produce a compressed file.
struct SpillWriteOptions {
  /// Pick the smallest codec per column. When false every column is
  /// stored kRaw (still framed as encoded blocks).
  bool compress = true;
};

/// What WriteSpillFile put on disk, so a caller need not read it back.
struct SpillWriteInfo {
  /// Size of the final file in bytes.
  int64_t file_bytes = 0;
  /// The SpillFileMeta::raw_bytes the writer stamped into the header.
  int64_t raw_bytes = 0;
};

/// Writes `table` with `meta` to `path` via a "<path>.tmp" + rename
/// protocol. On any error the final path is left untouched (a stale tmp
/// file may remain; directory scans delete those). `meta.raw_bytes` is
/// computed by the writer; the caller's value is ignored. On success a
/// non-null `info` receives the file size and the stamped raw size.
Status WriteSpillFile(const std::string& path, const Table& table,
                      const SpillFileMeta& meta,
                      const SpillWriteOptions& options = {},
                      SpillWriteInfo* info = nullptr);

/// Reads only the header of `path` (directory-scan fast path; the
/// payload checksum is NOT verified here).
Status ReadSpillMeta(const std::string& path, SpillFileMeta* meta);

/// Reads the full file, verifies the checksum, and rebuilds the table
/// (owning columns named `meta->column_names`). Corrupt or truncated
/// files yield a recoverable error Status, never an abort.
Status ReadSpillTable(const std::string& path, SpillFileMeta* meta,
                      TablePtr* out);

/// Like ReadSpillTable, but returns only the rows whose value in column
/// `filter_column` (index into the file's columns) falls in `range`:
/// every column is decoded once, rows are selected on the decoded filter
/// column (under the value order of common/types.h) and every column is
/// gathered through that selection, so a cold slice consumed by a
/// subsumption/stitch rewrite carries no row the rewrite would filter
/// out anyway. Row order is preserved, so the result is bit-identical to
/// a full load followed by the same range filter. An out-of-range column
/// index or a bound of the wrong kind returns a recoverable error.
Status ReadSpillTableFiltered(const std::string& path, SpillFileMeta* meta,
                              int filter_column, const ColumnInterval& range,
                              TablePtr* out);

}  // namespace recycledb
