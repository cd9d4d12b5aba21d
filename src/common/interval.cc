#include "common/interval.h"

#include <cstdint>
#include <limits>
#include <variant>

#include "common/macros.h"

namespace recycledb {

bool LoTighter(const RangeBound& a, const RangeBound& b) {
  if (a.unbounded) return false;
  if (b.unbounded) return true;
  int cmp = DatumCompare(a.value, b.value);
  if (cmp != 0) return cmp > 0;
  return !a.inclusive && b.inclusive;
}

bool HiTighter(const RangeBound& a, const RangeBound& b) {
  if (a.unbounded) return false;
  if (b.unbounded) return true;
  int cmp = DatumCompare(a.value, b.value);
  if (cmp != 0) return cmp < 0;
  return !a.inclusive && b.inclusive;
}

RangeBound TighterLo(const RangeBound& a, const RangeBound& b) {
  return LoTighter(a, b) ? a : b;
}

RangeBound TighterHi(const RangeBound& a, const RangeBound& b) {
  return HiTighter(a, b) ? a : b;
}

bool IntervalEmpty(const ColumnInterval& i) { return BoundsEmpty(i.lo, i.hi); }

bool BoundsEmpty(const RangeBound& lo, const RangeBound& hi) {
  if (lo.unbounded || hi.unbounded) return false;
  int cmp = DatumCompare(lo.value, hi.value);
  if (cmp != 0) return cmp > 0;
  return !(lo.inclusive && hi.inclusive);
}

bool Overlaps(const ColumnInterval& a, const ColumnInterval& b) {
  return !IntervalEmpty(Intersect(a, b));
}

ColumnInterval Intersect(const ColumnInterval& a, const ColumnInterval& b) {
  return {TighterLo(a.lo, b.lo), TighterHi(a.hi, b.hi)};
}

RangeBound ComplementHi(const RangeBound& lo) {
  RDB_CHECK(!lo.unbounded);
  return {false, lo.value, !lo.inclusive};
}

RangeBound ComplementLo(const RangeBound& hi) {
  RDB_CHECK(!hi.unbounded);
  return {false, hi.value, !hi.inclusive};
}

bool IntervalEmptyOnIntegerDomain(const ColumnInterval& i) {
  if (IntervalEmpty(i)) return true;
  if (i.lo.unbounded || i.hi.unbounded) return false;
  auto is_int = [](const Datum& d) {
    return std::holds_alternative<int32_t>(d) ||
           std::holds_alternative<int64_t>(d);
  };
  if (!is_int(i.lo.value) || !is_int(i.hi.value)) return false;
  // Normalize each exclusive bound to the nearest integer inside the
  // interval; empty iff the normalized bounds cross.
  int64_t lo = DatumAsInt64(i.lo.value);
  int64_t hi = DatumAsInt64(i.hi.value);
  if (!i.lo.inclusive) {
    if (lo == std::numeric_limits<int64_t>::max()) return true;
    ++lo;
  }
  if (!i.hi.inclusive) {
    if (hi == std::numeric_limits<int64_t>::min()) return true;
    --hi;
  }
  return lo > hi;
}

std::string IntervalToString(const ColumnInterval& i) {
  std::string out;
  if (i.lo.unbounded) {
    out += "(-inf";
  } else {
    out += i.lo.inclusive ? "[" : "(";
    out += DatumToString(i.lo.value);
  }
  out += ", ";
  if (i.hi.unbounded) {
    out += "+inf)";
  } else {
    out += DatumToString(i.hi.value);
    out += i.hi.inclusive ? "]" : ")";
  }
  return out;
}

}  // namespace recycledb
