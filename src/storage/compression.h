// Lightweight column compression for the cold tier (and any other
// at-rest column image).
//
// Three classic codecs over the engine's columnar vectors:
//
//   kRle  — run-length: (run_len, value) pairs; any type. Wins on sorted
//           or low-churn data (region-sweep slices, constant columns).
//   kDict — dictionary: distinct values + per-row codes at the minimal
//           byte width; wins on low-cardinality strings.
//   kFor  — frame-of-reference: int32/int64/date as unsigned deltas from
//           the column minimum at the minimal byte width; wins on dense
//           integer ranges (keys, days).
//
// EncodeColumn picks the smallest encoding (falling back to kRaw when
// nothing beats the raw image), so a spill payload is never larger than
// the uncompressed column. Ties go to the earlier of raw, RLE, dict,
// FOR, and a dictionary is a candidate only up to 0xffff distinct
// values (2-byte codes). Sizes are computed, not encoded: one pass for
// raw, RLE and FOR, then a distinct count for dictionary-capable types
// that stops as soon as the dictionary cannot win. Decoding is
// bit-exact: doubles are compared/stored by bit pattern, never by value
// arithmetic.
#pragma once

#include <cstdint>
#include <string>

#include "common/status.h"
#include "storage/column.h"

namespace recycledb {

/// Self-describing per-column encodings (stable on-disk ids; append
/// only).
enum class ColumnEncoding : uint8_t {
  kRaw = 0,
  kRle = 1,
  kDict = 2,
  kFor = 3,
};

const char* EncodingName(ColumnEncoding e);

/// One encoded column image: the encoding id, the logical type and row
/// count, and the codec-specific payload bytes.
struct EncodedColumn {
  ColumnEncoding encoding = ColumnEncoding::kRaw;
  TypeId type = TypeId::kInt64;
  int64_t num_rows = 0;
  std::string payload;
};

/// Encodes `col` with the smallest applicable codec (sizes computed
/// before encoding anything; see the file comment for ties).
EncodedColumn EncodeColumn(const ColumnVector& col);

/// Encodes with a specific codec; InvalidArgument for unsupported
/// type/codec combinations (kFor on strings/doubles/bools).
Status EncodeColumnAs(const ColumnVector& col, ColumnEncoding encoding,
                      EncodedColumn* out);

/// Rebuilds an owning column, bit-identical to the encoder's input.
/// Corrupt payloads, including a row count the payload cannot hold, yield
/// a recoverable error Status (bounds-checked before every allocation),
/// never an abort.
Status DecodeColumn(const EncodedColumn& enc, ColumnPtr* out);

}  // namespace recycledb
