// One-column interval arithmetic over Datum bounds.
//
// Shared by three layers: the recycler's partial-reuse machinery
// (interval index + range stitching), the storage layer's zone maps
// (per-block min/max pruning), and the executor's scan-prune hints.
// Lives in common/ so storage and exec can consume intervals without
// depending on recycler headers.
#pragma once

#include "common/types.h"

namespace recycledb {

/// One end of a (possibly half-open or unbounded) column interval.
struct RangeBound {
  /// True when the bound is absent (-inf for a lower, +inf for an upper).
  bool unbounded = true;
  /// Bound value; meaningful only when !unbounded.
  Datum value{};
  /// True for >= / <= bounds, false for > / <.
  bool inclusive = false;
};

/// A one-column interval `lo .. hi` with independent open/closed ends.
struct ColumnInterval {
  RangeBound lo;
  RangeBound hi;
};

/// True if `a` is the strictly tighter LOWER bound (starts later than
/// `b`; an exclusive bound at the same value is tighter than an
/// inclusive one).
bool LoTighter(const RangeBound& a, const RangeBound& b);

/// True if `a` is the strictly tighter UPPER bound (ends earlier).
bool HiTighter(const RangeBound& a, const RangeBound& b);

/// The tighter of two lower / upper bounds.
RangeBound TighterLo(const RangeBound& a, const RangeBound& b);
RangeBound TighterHi(const RangeBound& a, const RangeBound& b);

/// True when the interval contains no value (lo past hi, or equal with
/// either end open). Unbounded ends never make an interval empty.
bool IntervalEmpty(const ColumnInterval& i);
/// IntervalEmpty of `lo .. hi`, without copying either bound into an
/// interval.
bool BoundsEmpty(const RangeBound& lo, const RangeBound& hi);

/// True when the two intervals share at least one value (a shared closed
/// boundary point counts).
bool Overlaps(const ColumnInterval& a, const ColumnInterval& b);

/// Intersection (may be empty; check IntervalEmpty).
ColumnInterval Intersect(const ColumnInterval& a, const ColumnInterval& b);

/// The upper bound ending immediately before lower bound `lo`
/// (value-equal, complementary inclusiveness). `lo` must be bounded.
RangeBound ComplementHi(const RangeBound& lo);

/// The lower bound starting immediately after upper bound `hi`
/// (value-equal, complementary inclusiveness). `hi` must be bounded.
RangeBound ComplementLo(const RangeBound& hi);

/// IntervalEmpty refined for integer-valued columns: an interval whose
/// bounds are both integer datums (int32/int64, which also covers kDate)
/// is empty when it contains no *integer*, even if it contains reals —
/// e.g. the open-open gap (5, 6) left between two adjacent cached slices.
/// Falls back to IntervalEmpty for non-integer or unbounded ends. Used by
/// the stitching rewriter to short-circuit zero-width delta gaps.
bool IntervalEmptyOnIntegerDomain(const ColumnInterval& i);

/// Renders an interval for Explain / diagnostics, e.g. "(5, 10]",
/// "[3, +inf)".
std::string IntervalToString(const ColumnInterval& i);

}  // namespace recycledb
