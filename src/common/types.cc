#include "common/types.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/macros.h"

namespace recycledb {

const char* TypeName(TypeId type) {
  switch (type) {
    case TypeId::kBool:
      return "BOOL";
    case TypeId::kInt32:
      return "INT32";
    case TypeId::kInt64:
      return "INT64";
    case TypeId::kDouble:
      return "DOUBLE";
    case TypeId::kString:
      return "STRING";
    case TypeId::kDate:
      return "DATE";
  }
  return "UNKNOWN";
}

bool IsNumeric(TypeId type) {
  switch (type) {
    case TypeId::kInt32:
    case TypeId::kInt64:
    case TypeId::kDouble:
    case TypeId::kDate:
      return true;
    default:
      return false;
  }
}

TypeId DatumType(const Datum& d) {
  switch (d.index()) {
    case 1:
      return TypeId::kBool;
    case 2:
      return TypeId::kInt32;
    case 3:
      return TypeId::kInt64;
    case 4:
      return TypeId::kDouble;
    case 5:
      return TypeId::kString;
    default:
      return TypeId::kInt64;
  }
}

std::string DatumToString(const Datum& d) {
  switch (d.index()) {
    case 0:
      return "NULL";
    case 1:
      return std::get<bool>(d) ? "true" : "false";
    case 2:
      return std::to_string(std::get<int32_t>(d));
    case 3:
      return std::to_string(std::get<int64_t>(d));
    case 4: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", std::get<double>(d));
      return buf;
    }
    case 5:
      return "'" + std::get<std::string>(d) + "'";
  }
  return "?";
}

std::string DatumToKeyString(const Datum& d) {
  std::string out;
  AppendDatumKey(d, &out);
  return out;
}

void AppendDatumKey(const Datum& d, std::string* out) {
  char buf[32];
  switch (d.index()) {
    case 2:
    case 3: {
      const int64_t v = d.index() == 2 ? std::get<int32_t>(d)
                                       : std::get<int64_t>(d);
      out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
      return;
    }
    case 4:
      out->append(buf, std::snprintf(buf, sizeof(buf), "%a",
                                     std::get<double>(d)));
      return;
    case 5:
      // Quotes inside the string are doubled, as in SQL, so the closing
      // quote is unambiguous: 'a'' ''b' is one value, 'a' 'b' two.
      *out += '\'';
      for (char c : std::get<std::string>(d)) {
        *out += c;
        if (c == '\'') *out += c;
      }
      *out += '\'';
      return;
    default:
      *out += DatumToString(d);
  }
}

double DatumAsDouble(const Datum& d) {
  switch (d.index()) {
    case 1:
      return std::get<bool>(d) ? 1.0 : 0.0;
    case 2:
      return static_cast<double>(std::get<int32_t>(d));
    case 3:
      return static_cast<double>(std::get<int64_t>(d));
    case 4:
      return std::get<double>(d);
    default:
      RDB_UNREACHABLE("DatumAsDouble on non-numeric datum");
  }
}

int64_t DatumAsInt64(const Datum& d) {
  switch (d.index()) {
    case 1:
      return std::get<bool>(d) ? 1 : 0;
    case 2:
      return std::get<int32_t>(d);
    case 3:
      return std::get<int64_t>(d);
    case 4:
      return static_cast<int64_t>(std::get<double>(d));
    default:
      RDB_UNREACHABLE("DatumAsInt64 on non-numeric datum");
  }
}

int CompareValues(int64_t a, double b) {
  if (std::isnan(b)) return -1;  // NaN lies above every number
  if (b >= 0x1p63) return -1;
  if (b < -0x1p63) return 1;
  // b now truncates to an int64, and its truncation is itself a double.
  const int64_t t = static_cast<int64_t>(b);
  if (a != t) return a < t ? -1 : 1;
  return CompareValues(static_cast<double>(t), b);
}

int DatumCompare(const Datum& a, const Datum& b) {
  RDB_CHECK_MSG((a.index() == 5) == (b.index() == 5),
                "comparing string with non-string");
  return std::visit(
      [&b](const auto& x) -> int {
        using X = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<X, std::monostate>) {
          RDB_UNREACHABLE("DatumCompare on NULL");
        } else {
          return CompareToDatum(x, b);
        }
      },
      a);
}

int DatumCompareSigned(const Datum& a, const Datum& b) {
  const int c = DatumCompare(a, b);
  if (c != 0 || a.index() != 4 || b.index() != 4) return c;
  return std::signbit(std::get<double>(b)) - std::signbit(std::get<double>(a));
}

bool DatumEquals(const Datum& a, const Datum& b) {
  if (a.index() == 0 || b.index() == 0) return a.index() == b.index();
  return DatumCompare(a, b) == 0;
}

namespace {
// Civil-days algorithm from Howard Hinnant's date algorithms.
int64_t DaysFromCivil(int y, int m, int d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

void CivilFromDays(int64_t z, int* y, unsigned* m, unsigned* d) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t yy = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  *d = doy - (153 * mp + 2) / 5 + 1;
  *m = mp + (mp < 10 ? 3 : -9);
  *y = static_cast<int>(yy + (*m <= 2));
}
}  // namespace

int32_t MakeDate(int year, int month, int day) {
  RDB_CHECK_MSG(year >= 1 && year <= 9999 && month >= 1 && month <= 12 &&
                    day >= 1 && day <= 31,
                "invalid calendar date");
  return static_cast<int32_t>(DaysFromCivil(year, month, day));
}

int32_t ParseDate(const std::string& iso) {
  int y = 0, m = 0, d = 0;
  int n = std::sscanf(iso.c_str(), "%d-%d-%d", &y, &m, &d);
  RDB_CHECK_MSG(n == 3, "date must be YYYY-MM-DD");
  return MakeDate(y, m, d);
}

int DateYear(int32_t days) {
  int y;
  unsigned m, d;
  CivilFromDays(days, &y, &m, &d);
  return y;
}

int DateMonth(int32_t days) {
  int y;
  unsigned m, d;
  CivilFromDays(days, &y, &m, &d);
  return static_cast<int>(m);
}

std::string DateToString(int32_t days) {
  int y;
  unsigned m, d;
  CivilFromDays(days, &y, &m, &d);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02u-%02u", y, m, d);
  return buf;
}

}  // namespace recycledb
