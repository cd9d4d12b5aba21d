// Versioned JSONL trace format for recorded query workloads.
//
// A trace is a header line followed by one line per event (statement or
// append), in execution order. Every value is serialized as a JSON
// string — including integers, so 64-bit digests and fingerprints never
// pass through a lossy double representation — and the reader accepts
// exactly that grammar: one flat object per line whose values are
// strings or string->string objects. Parsing is defensive end to end:
// truncated, corrupt, garbage or version-skewed input yields a Status,
// never an abort (mirroring the cold tier's spill-file rejection).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "expr/expression.h"
#include "recycler/recycler.h"
#include "storage/table.h"

namespace recycledb {
namespace trace {

/// Current trace format version. Readers reject traces recorded by a
/// NEWER engine (forward skew); older versions are accepted as long as
/// the grammar still parses.
constexpr int64_t kTraceFormatVersion = 1;

/// Trace-wide metadata, written as the first line. The clock is
/// deterministic by construction: it is whatever the recording harness
/// set (0 by default), never wall time, so re-recording an identical
/// workload produces a byte-identical trace.
struct TraceHeader {
  int64_t version = kTraceFormatVersion;
  /// RNG seed the recorded workload was generated with.
  uint64_t seed = 0;
  /// Deterministic capture clock (harness-defined, 0 unless set).
  int64_t clock_ms = 0;
  /// Workload label ("skyserver_sweep", "rollup_append", ...).
  std::string workload;
  /// RecyclerModeName of the recording engine ("HIST", "SPEC", ...).
  std::string mode;
  /// Free-form workload parameters needed to rebuild the database a
  /// trace replays against (object counts, scale factors, ...).
  std::map<std::string, std::string> tags;
};

/// One executed statement: what ran, what the recycler chose, and what
/// came back.
struct StatementEvent {
  /// Statement text (template text for prepared statements). Empty for
  /// plan-built queries, which record digests but cannot be replayed.
  std::string sql;
  /// Bound template parameters (empty for parameter-free SQL), encoded
  /// with EncodeDatum so replay rebinds the exact typed values.
  ParamMap params;
  /// QueryTrace::plan_fingerprint of the execution.
  uint64_t plan_fingerprint = 0;
  /// Template hash (0 for ad-hoc statements).
  uint64_t template_hash = 0;
  /// The recycler's uniform reuse decision.
  ReuseMode reuse_mode = ReuseMode::kNone;
  /// Result row count.
  int64_t rows = 0;
  /// Order-insensitive FNV digest of the full result (ResultDigest).
  uint64_t digest = 0;
  /// Post-rewrite plan shape (QueryTrace::plan_explain; empty when the
  /// recording engine did not capture it).
  std::string plan_explain;
  /// Cold orphans adopted while preparing the statement
  /// (QueryTrace::num_adoptions: restart images or fleet peers' spills).
  /// Serialized only when nonzero, so traces from engines predating the
  /// field round-trip byte-identically.
  int64_t adoptions = 0;
};

/// One append event (Database::AppendTable), recorded so replay can
/// re-inject the same batches at the same points in the sequence.
struct AppendEvent {
  std::string table;
  /// Rows appended by the batch.
  int64_t rows = 0;
  /// Table row count before the append (replay cross-checks this, so a
  /// drifted data generator fails loudly instead of corrupting digests).
  int64_t start_row = 0;
};

/// A statement or append, in recorded order.
struct TraceEvent {
  enum class Kind { kStatement, kAppend };
  Kind kind = Kind::kStatement;
  StatementEvent statement;
  AppendEvent append;
};

/// A full parsed trace.
struct Trace {
  TraceHeader header;
  std::vector<TraceEvent> events;
  /// Number of statement events.
  int64_t NumStatements() const;
  /// Number of append events.
  int64_t NumAppends() const;
  /// Share of statements whose recorded reuse mode is not kNone.
  double HitRate() const;
};

// ---------------------------------------------------------------------------
// Result digests
// ---------------------------------------------------------------------------

/// FNV-1a hash of one row (datum strings in column order).
uint64_t RowDigest(const Table& t, int64_t row);

/// Order-insensitive digest of a whole table: per-row FNV hashes
/// combined with 64-bit addition, so any row order — recycled, stitched,
/// re-executed — digests identically, while any changed/missing/extra
/// row changes the value. Pairs with the row count for multiset equality.
uint64_t ResultDigest(const Table& t);

// ---------------------------------------------------------------------------
// Datum codec (typed, round-trip exact)
// ---------------------------------------------------------------------------

/// Encodes a datum with a type tag ("i32:5", "f:0x1.8p+0", "s:abc",
/// "b:1", "i64:9", "null"). Doubles use hex float so decode is bit-exact.
std::string EncodeDatum(const Datum& d);

/// Inverse of EncodeDatum. Unknown tags or malformed payloads return
/// InvalidArgument.
Status DecodeDatum(const std::string& text, Datum* out);

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

/// Renders the trace as JSONL text (header line first).
std::string SerializeTrace(const Trace& trace);

/// Parses JSONL text produced by SerializeTrace (or hand-written to the
/// same grammar). Defensive: every malformation — bad JSON, missing
/// header, unsupported version, unknown event kind, undecodable fields —
/// comes back as InvalidArgument naming the offending line.
Status ParseTrace(const std::string& text, Trace* out);

/// Reads and parses a trace file (NotFound when it does not exist).
Status ReadTraceFile(const std::string& path, Trace* out);

/// Serializes and writes a trace file, replacing any file at `path`
/// through "<path>.tmp" + rename (common/file_io.h).
Status WriteTraceFile(const std::string& path, const Trace& trace);

}  // namespace trace
}  // namespace recycledb
