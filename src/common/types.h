// Core scalar type system: TypeId, Datum (boxed scalar), date helpers.
#pragma once

#include <cstdint>
#include <string>
#include <variant>

namespace recycledb {

/// Physical column types supported by the engine.
///
/// kDate is stored as int32 days since 1970-01-01 (proleptic Gregorian);
/// kBool is stored as uint8.
enum class TypeId : uint8_t {
  kBool = 0,
  kInt32 = 1,
  kInt64 = 2,
  kDouble = 3,
  kString = 4,
  kDate = 5,
};

/// Human-readable type name ("INT32", "DATE", ...).
const char* TypeName(TypeId type);

/// True for kInt32/kInt64/kDouble/kDate (types with a numeric ordering
/// usable in arithmetic).
bool IsNumeric(TypeId type);

/// A boxed scalar value used for plan constants and row access.
/// The variant alternative encodes the type: bool->kBool, int32->kInt32 or
/// kDate (context-dependent), int64->kInt64, double->kDouble,
/// string->kString. std::monostate represents NULL (used sparingly; the
/// engine is NULL-free except for outer-join padding).
using Datum = std::variant<std::monostate, bool, int32_t, int64_t, double,
                           std::string>;

/// Returns the TypeId naturally associated with the datum's alternative.
/// monostate maps to kInt64 (callers must not rely on null typing).
TypeId DatumType(const Datum& d);

/// Renders a datum for display: Explain, error messages, ToString.
/// Doubles print with %.6g, so two distinct doubles may print alike;
/// never build a key, hash or equality check on this text.
std::string DatumToString(const Datum& d);

/// Renders a datum exactly as text, for result digests (trace RowDigest):
/// doubles as hex floats (so -0.0 and +0.0 differ), strings quoted with
/// every inner quote doubled, every other alternative as DatumToString
/// does. Plan keys use the typed binary AppendTypedDatum
/// (expr/expression.h) instead.
std::string DatumToKeyString(const Datum& d);
/// DatumToKeyString(d) appended to `out`, without a temporary string.
void AppendDatumKey(const Datum& d, std::string* out);

/// Numeric coercion helpers; RDB_CHECK-fail on non-numeric alternatives.
double DatumAsDouble(const Datum& d);
int64_t DatumAsInt64(const Datum& d);

/// Three-way comparison of two datums of compatible types.
/// Numeric alternatives compare numerically (int32 vs int64 vs double OK);
/// strings compare lexicographically. Returns <0, 0, >0.
int DatumCompare(const Datum& a, const Datum& b);

bool DatumEquals(const Datum& a, const Datum& b);

// ---------------------------------------------------------------------------
// Date helpers (proleptic Gregorian calendar, days since 1970-01-01).
// ---------------------------------------------------------------------------

/// Converts a calendar date to days since epoch. Valid for years 1..9999.
int32_t MakeDate(int year, int month, int day);

/// Parses "YYYY-MM-DD" into days since epoch (RDB_CHECK on bad format).
int32_t ParseDate(const std::string& iso);

/// Extracts the year of a days-since-epoch date.
int DateYear(int32_t days);

/// Extracts the month (1..12).
int DateMonth(int32_t days);

/// Formats days-since-epoch as "YYYY-MM-DD".
std::string DateToString(int32_t days);

}  // namespace recycledb
