// Core scalar type system: TypeId, Datum (boxed scalar), date helpers.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
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

// ---------------------------------------------------------------------------
// The value order (DESIGN.md "Value order"). Every comparison of two values
// decides by it: predicates, constant folding, ranges and subsumption, zone
// maps, sorts, MIN/MAX, grouping, join keys and IN lists.
//   - integers (bool, int32, int64, date) compare exactly;
//   - an integer and a double compare exactly, never rounded through double;
//   - doubles: NaN equals NaN and lies above every number; -0.0 equals 0.0;
//   - strings compare bytewise.
// Three-way results are <0, 0 or >0.
// ---------------------------------------------------------------------------

enum class CompareOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

/// True when the three-way result `c` satisfies `op`.
inline bool CompareHolds(CompareOp op, int c) {
  switch (op) {
    case CompareOp::kEq: return c == 0;
    case CompareOp::kNe: return c != 0;
    case CompareOp::kLt: return c < 0;
    case CompareOp::kLe: return c <= 0;
    case CompareOp::kGt: return c > 0;
    case CompareOp::kGe: return c >= 0;
  }
  return false;
}

/// `a op b` for two values of one numeric type, the per-row form of
/// CompareHolds(op, CompareValues(a, b)): its NaN terms are branch-free.
template <typename T>
inline bool OrderHolds(CompareOp op, T a, T b) {
  bool an = false, bn = false;
  if constexpr (std::is_floating_point_v<T>) {
    an = std::isnan(a);
    bn = std::isnan(b);
  }
  switch (op) {
    case CompareOp::kEq: return (a == b) | (an & bn);
    case CompareOp::kNe: return !((a == b) | (an & bn));
    case CompareOp::kLt: return (a < b) | (bn & !an);
    case CompareOp::kLe: return (a <= b) | bn;
    case CompareOp::kGt: return (a > b) | (an & !bn);
    case CompareOp::kGe: return (a >= b) | an;
  }
  return false;
}

/// The one representative of `d`'s class of equal doubles: 0.0 for
/// either zero and the quiet NaN for every NaN. Hashes and group keys
/// take it, so equal values hash alike and a group's key does not depend
/// on which of its rows came first.
inline double CanonicalDouble(double d) {
  if (d == 0.0) return 0.0;
  if (std::isnan(d)) return std::numeric_limits<double>::quiet_NaN();
  return d;
}

template <typename T, std::enable_if_t<std::is_integral_v<T>, int> = 0>
inline int CompareValues(T a, T b) {
  return (a > b) - (a < b);
}
inline int CompareValues(double a, double b) {
  return (a > b) - (a < b) + std::isnan(a) - std::isnan(b);
}
/// Exact: `b` is never rounded to an integer, nor `a` to a double.
int CompareValues(int64_t a, double b);
inline int CompareValues(double a, int64_t b) { return -CompareValues(b, a); }
inline int CompareValues(const std::string& a, const std::string& b) {
  const int c = a.compare(b);
  return (c > 0) - (c < 0);
}

/// A value of a column's physical type (uint8_t for bool, int32_t for
/// int32 and date, int64_t, double, std::string) against datum `d`.
/// Comparing a string with a number aborts; validation rejects it first.
template <typename T>
int CompareToDatum(const T& v, const Datum& d) {
  if constexpr (std::is_same_v<T, std::string>) {
    return CompareValues(v, std::get<std::string>(d));
  } else {
    using N = std::conditional_t<std::is_floating_point_v<T>, double, int64_t>;
    const N x = static_cast<N>(v);
    return d.index() == 4 ? CompareValues(x, std::get<double>(d))
                          : CompareValues(x, DatumAsInt64(d));
  }
}

/// Two datums under the value order.
int DatumCompare(const Datum& a, const Datum& b);
/// DatumCompare with ties between doubles broken by the sign bit (-0.0
/// below 0.0, a negative NaN below a positive one), so MIN and MAX pick
/// one representative whatever order the rows arrive in.
int DatumCompareSigned(const Datum& a, const Datum& b);

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
