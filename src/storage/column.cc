#include "storage/column.h"


namespace recycledb {

namespace {
template <typename T>
std::vector<T> EmptyVec() {
  return {};
}
}  // namespace

ColumnVector::ColumnVector(TypeId type) : type_(type) {
  switch (type) {
    case TypeId::kBool:
      data_ = EmptyVec<uint8_t>();
      break;
    case TypeId::kInt32:
    case TypeId::kDate:
      data_ = EmptyVec<int32_t>();
      break;
    case TypeId::kInt64:
      data_ = EmptyVec<int64_t>();
      break;
    case TypeId::kDouble:
      data_ = EmptyVec<double>();
      break;
    case TypeId::kString:
      data_ = EmptyVec<std::string>();
      break;
  }
}

ColumnVector::ColumnVector(std::shared_ptr<const ColumnVector> src,
                           int64_t offset, int64_t length)
    : ColumnVector(src->type()) {
  view_src_ = std::move(src);
  view_offset_ = offset;
  view_length_ = length;
}

ColumnPtr ColumnVector::Slice(std::shared_ptr<const ColumnVector> src,
                              int64_t offset, int64_t length) {
  RDB_CHECK(src != nullptr);
  RDB_CHECK_MSG(offset >= 0 && length >= 0 && offset + length <= src->size(),
                "slice out of range");
  if (src->is_view()) {
    // Flatten: view the root source directly (it is already shared).
    return ColumnPtr(new ColumnVector(src->view_src_,
                                      src->view_offset_ + offset, length));
  }
  src->shared_.store(true, std::memory_order_relaxed);
  return ColumnPtr(new ColumnVector(std::move(src), offset, length));
}

int64_t ColumnVector::OwnedSize() const {
  return std::visit([](const auto& v) { return static_cast<int64_t>(v.size()); },
                    data_);
}

Datum ColumnVector::GetDatum(int64_t row) const {
  switch (type_) {
    case TypeId::kBool:
      return static_cast<bool>(Raw<uint8_t>()[row]);
    case TypeId::kInt32:
    case TypeId::kDate:
      return Raw<int32_t>()[row];
    case TypeId::kInt64:
      return Raw<int64_t>()[row];
    case TypeId::kDouble:
      return Raw<double>()[row];
    case TypeId::kString:
      return Raw<std::string>()[row];
  }
  RDB_UNREACHABLE("bad type");
}

void ColumnVector::Append(const Datum& value) {
  switch (type_) {
    case TypeId::kBool:
      Data<uint8_t>().push_back(std::get<bool>(value) ? 1 : 0);
      return;
    case TypeId::kInt32:
    case TypeId::kDate:
      if (std::holds_alternative<int32_t>(value)) {
        Data<int32_t>().push_back(std::get<int32_t>(value));
      } else {
        Data<int32_t>().push_back(static_cast<int32_t>(DatumAsInt64(value)));
      }
      return;
    case TypeId::kInt64:
      Data<int64_t>().push_back(DatumAsInt64(value));
      return;
    case TypeId::kDouble:
      Data<double>().push_back(DatumAsDouble(value));
      return;
    case TypeId::kString:
      Data<std::string>().push_back(std::get<std::string>(value));
      return;
  }
  RDB_UNREACHABLE("bad type");
}

void ColumnVector::AppendSelected(const ColumnVector& src,
                                  const std::vector<int32_t>& sel) {
  RDB_CHECK(src.type_ == type_);
  CheckMutable();
  const ColumnVector& sp = src.payload();
  const int64_t off = src.view_offset_;
  const int64_t n = src.size();
  std::visit(
      [&](auto& dst) {
        using Vec = std::decay_t<decltype(dst)>;
        const Vec& s = std::get<Vec>(sp.data_);
        dst.reserve(dst.size() + sel.size());
        for (int32_t i : sel) {
          // Selection indexes are window-relative; on a view an index past
          // the window would silently read the root column, so check.
          RDB_CHECK_MSG(i >= 0 && i < n, "selection index out of bounds");
          dst.push_back(s[off + i]);
        }
      },
      data_);
}

void ColumnVector::AppendRange(const ColumnVector& src, int64_t offset,
                               int64_t count) {
  RDB_CHECK(src.type_ == type_);
  RDB_CHECK_MSG(offset >= 0 && count >= 0 && offset + count <= src.size(),
                "append range out of bounds");
  CheckMutable();
  const ColumnVector& sp = src.payload();
  const int64_t off = src.view_offset_ + offset;
  std::visit(
      [&](auto& dst) {
        using Vec = std::decay_t<decltype(dst)>;
        const Vec& s = std::get<Vec>(sp.data_);
        dst.insert(dst.end(), s.begin() + off, s.begin() + off + count);
      },
      data_);
}

void ColumnVector::Reserve(int64_t n) {
  CheckMutable();
  std::visit([n](auto& v) { v.reserve(n); }, data_);
}

void ColumnVector::Clear() {
  RDB_CHECK_MSG(!shared(), "clearing a shared column source");
  view_src_.reset();
  view_offset_ = 0;
  view_length_ = 0;
  std::visit([](auto& v) { v.clear(); }, data_);
}

int64_t ColumnVector::ByteSize() const {
  const int64_t n = size();
  // Owning columns account for their allocated capacity; views account for
  // the logical size of the viewed range (they own nothing, but
  // materializing them downstream would cost this much).
  if (type_ == TypeId::kString) {
    int64_t slots = is_view()
                        ? n
                        : static_cast<int64_t>(
                              std::get<std::vector<std::string>>(data_)
                                  .capacity());
    int64_t total = slots * static_cast<int64_t>(sizeof(std::string));
    const std::string* s = Raw<std::string>();
    for (int64_t i = 0; i < n; ++i) {
      total += static_cast<int64_t>(s[i].capacity());
    }
    return total;
  }
  const int64_t width = VisitValues(
      [](const auto* v) { return static_cast<int64_t>(sizeof(*v)); });
  if (is_view()) return n * width;
  int64_t capacity = std::visit(
      [](const auto& v) { return static_cast<int64_t>(v.capacity()); }, data_);
  return capacity * width;
}

namespace {

// Per-value hashes shared by HashRow and HashRows, so the row path and the
// batch kernel agree bit for bit.
inline uint64_t ValueHash(uint8_t v) { return HashMix(uint64_t{v} + 1); }
inline uint64_t ValueHash(int32_t v) {
  return HashMix(static_cast<uint64_t>(static_cast<int64_t>(v)));
}
inline uint64_t ValueHash(int64_t v) {
  return HashMix(static_cast<uint64_t>(v));
}
inline uint64_t ValueHash(double d) {
  // RowEquals compares doubles under the value order, where -0.0 equals
  // +0.0 and every NaN equals every other, so each class hashes alike.
  d = CanonicalDouble(d);
  uint64_t v;
  static_assert(sizeof(v) == sizeof(d));
  __builtin_memcpy(&v, &d, sizeof(v));
  return HashMix(v);
}
inline uint64_t ValueHash(const std::string& s) { return HashString(s); }

template <typename T>
void CombineHashes(const T* data, int64_t n, uint64_t* hashes) {
  for (int64_t i = 0; i < n; ++i) {
    hashes[i] = HashCombine(hashes[i], ValueHash(data[i]));
  }
}

}  // namespace

uint64_t ColumnVector::HashRow(int64_t row, uint64_t seed) const {
  return VisitValues(
      [&](const auto* v) { return HashCombine(seed, ValueHash(v[row])); });
}

void ColumnVector::HashRows(uint64_t* hashes) const {
  VisitValues([&](const auto* v) { CombineHashes(v, size(), hashes); });
}

bool ColumnVector::RowEquals(int64_t a, const ColumnVector& other,
                             int64_t b) const {
  RDB_CHECK(type_ == other.type_);
  return VisitValues([&](const auto* v) {
    using T = std::remove_const_t<std::remove_pointer_t<decltype(v)>>;
    return CompareValues(v[a], other.Raw<T>()[b]) == 0;
  });
}

ColumnPtr MakeColumn(TypeId type) { return std::make_shared<ColumnVector>(type); }

namespace {

/// Folds rows [from, to) of a typed column into block summaries, under
/// the value order. The stored min/max are Datums of the column's
/// alternative (bool for kBool's uint8_t storage).
template <typename T>
void FoldRows(const T* data, int64_t from, int64_t to,
              std::vector<ZoneEntry>* blocks, bool* column_sorted) {
  using D = std::conditional_t<std::is_same_v<T, uint8_t>, bool, T>;
  for (int64_t r = from; r < to; ++r) {
    const D v = static_cast<D>(data[r]);
    const int64_t b = r / kZoneMapBlockRows;
    if (b >= static_cast<int64_t>(blocks->size())) {
      blocks->push_back(ZoneEntry{Datum(v), Datum(v), true, true});
    } else {
      ZoneEntry& e = (*blocks)[b];
      if (CompareValues(v, std::get<D>(e.min)) < 0) e.min = v;
      if (CompareValues(v, std::get<D>(e.max)) > 0) e.max = v;
      if (r % kZoneMapBlockRows != 0 && e.sorted &&
          CompareValues(v, static_cast<D>(data[r - 1])) < 0) {
        e.sorted = false;
      }
    }
    if (r > 0 && *column_sorted &&
        CompareValues(v, static_cast<D>(data[r - 1])) < 0) {
      *column_sorted = false;
    }
  }
}

}  // namespace

void ZoneMap::Update(const ColumnVector& col) {
  RDB_CHECK(col.type() == type_);
  const int64_t n = col.size();
  if (n <= rows_covered_) return;
  col.VisitValues([&](const auto* v) {
    FoldRows(v, rows_covered_, n, &blocks_, &sorted_);
  });
  rows_covered_ = n;
}

bool ZoneMap::MayOverlap(int64_t b, const ColumnInterval& query) const {
  if (b < 0 || b >= num_blocks()) return true;  // uncovered: never prune
  const ZoneEntry& e = blocks_[b];
  // The block's value set lies within [min, max] (both closed); it can
  // only match when that envelope intersects the query interval.
  ColumnInterval envelope{{false, e.min, true}, {false, e.max, true}};
  return Overlaps(envelope, query);
}

}  // namespace recycledb
