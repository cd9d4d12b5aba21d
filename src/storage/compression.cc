#include "storage/compression.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>

#include "common/macros.h"
#include "common/string_util.h"
#include "storage/wire_format.h"

namespace recycledb {

using wire::Cursor;
using wire::PutString;
using wire::PutU32;
using wire::PutU64;

const char* EncodingName(ColumnEncoding e) {
  switch (e) {
    case ColumnEncoding::kRaw: return "raw";
    case ColumnEncoding::kRle: return "rle";
    case ColumnEncoding::kDict: return "dict";
    case ColumnEncoding::kFor: return "for";
  }
  return "?";
}

namespace {

// --- typed value plumbing --------------------------------------------------

template <typename T>
size_t ValueBytes(const T&) {
  return sizeof(T);
}
size_t ValueBytes(const std::string& v) { return 4 + v.size(); }

template <typename T>
void PutValue(std::string* out, const T& v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutValue(std::string* out, const std::string& v) { PutString(out, v); }

template <typename T>
bool GetValue(Cursor* c, T* v) {
  if (c->remaining() < sizeof(T)) return false;
  std::memcpy(v, c->p + c->pos, sizeof(T));
  c->pos += sizeof(T);
  return true;
}
bool GetValue(Cursor* c, std::string* v) { return c->GetString(v); }

/// Bit-exact equality: doubles compare by bit pattern so RLE round-trips
/// NaNs and signed zeros unchanged.
template <typename T>
bool BitEq(const T& a, const T& b) {
  return a == b;
}
bool BitEq(const double& a, const double& b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// --- raw -------------------------------------------------------------------

template <typename T>
void RawEncode(const T* data, int64_t n, std::string* out) {
  out->append(reinterpret_cast<const char*>(data),
              static_cast<size_t>(n) * sizeof(T));
}
void RawEncode(const std::string* data, int64_t n, std::string* out) {
  for (int64_t i = 0; i < n; ++i) PutString(out, data[i]);
}

// Every decoder bounds the row count `n` by what the payload can hold
// BEFORE any reserve/resize, by division so nothing overflows: a header
// with an inflated row count must fail recoverably, not abort in the
// allocator.

template <typename T>
Status RawDecode(Cursor* c, int64_t n, std::vector<T>* out) {
  if (static_cast<uint64_t>(n) > c->remaining() / sizeof(T)) {
    return Status::Internal("raw payload too short for its row count");
  }
  const size_t need = static_cast<size_t>(n) * sizeof(T);
  out->resize(static_cast<size_t>(n));
  // An empty vector's data() may be null; memcpy requires non-null even
  // for a zero-byte copy.
  if (need > 0) std::memcpy(out->data(), c->p + c->pos, need);
  c->pos += need;
  return Status::OK();
}
Status RawDecode(Cursor* c, int64_t n, std::vector<std::string>* out) {
  // Each value carries at least its 4-byte length prefix.
  if (static_cast<uint64_t>(n) > c->remaining() / 4) {
    return Status::Internal("raw payload too short for its row count");
  }
  out->reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    std::string s;
    if (!c->GetString(&s)) return Status::Internal("raw payload truncated");
    out->push_back(std::move(s));
  }
  return Status::OK();
}

// --- RLE -------------------------------------------------------------------

template <typename T>
void RleEncode(const T* data, int64_t n, std::string* out) {
  std::string body;
  uint32_t num_runs = 0;
  int64_t i = 0;
  while (i < n) {
    int64_t j = i + 1;
    while (j < n && j - i < std::numeric_limits<uint32_t>::max() &&
           BitEq(data[j], data[i])) {
      ++j;
    }
    PutU32(&body, static_cast<uint32_t>(j - i));
    PutValue(&body, data[i]);
    ++num_runs;
    i = j;
  }
  PutU32(out, num_runs);
  out->append(body);
}

template <typename T>
Status RleDecode(Cursor* c, int64_t n, std::vector<T>* out) {
  // Runs can legitimately encode far more rows than payload bytes, so no
  // payload bound exists: cap n at the int32 row range, and reserve only
  // after a first pass has checked that the runs present add up to n
  // (growing the vector run by run instead slows every cold load).
  if (n > std::numeric_limits<int32_t>::max()) {
    return Status::Internal("rle row count out of range");
  }
  for (const bool fill : {false, true}) {
    Cursor runs = *c;
    uint32_t num_runs = 0;
    if (!runs.GetU32(&num_runs)) {
      return Status::Internal("rle payload truncated");
    }
    int64_t total = 0;
    for (uint32_t r = 0; r < num_runs; ++r) {
      uint32_t run = 0;
      T v{};
      if (!runs.GetU32(&run) || !GetValue(&runs, &v)) {
        return Status::Internal("rle payload truncated");
      }
      total += run;
      if (run == 0 || total > n) return Status::Internal("rle run overflow");
      if (fill) out->insert(out->end(), static_cast<size_t>(run), v);
    }
    if (total != n) return Status::Internal("rle row count mismatch");
    if (fill) *c = runs;
    else out->reserve(static_cast<size_t>(n));
  }
  return Status::OK();
}

// --- dictionary ------------------------------------------------------------

int CodeWidth(size_t dict_size) {
  if (dict_size <= 0xff) return 1;
  if (dict_size <= 0xffff) return 2;
  return 4;
}

void PutCode(std::string* out, uint32_t code, int width) {
  for (int i = 0; i < width; ++i) {
    out->push_back(static_cast<char>(code >> (8 * i)));
  }
}

bool GetCode(Cursor* c, int width, uint32_t* code) {
  if (c->remaining() < static_cast<size_t>(width)) return false;
  *code = 0;
  for (int i = 0; i < width; ++i) {
    *code |= static_cast<uint32_t>(c->p[c->pos + i]) << (8 * i);
  }
  c->pos += width;
  return true;
}

template <typename T>
void DictEncode(const T* data, int64_t n, std::string* out) {
  std::vector<const T*> dict;
  std::unordered_map<T, uint32_t> index;
  std::string codes;
  std::vector<uint32_t> code_of(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    auto [it, inserted] =
        index.emplace(data[i], static_cast<uint32_t>(dict.size()));
    if (inserted) dict.push_back(&data[i]);
    code_of[static_cast<size_t>(i)] = it->second;
  }
  PutU32(out, static_cast<uint32_t>(dict.size()));
  for (const T* v : dict) PutValue(out, *v);
  const int width = CodeWidth(dict.size());
  out->push_back(static_cast<char>(width));
  for (int64_t i = 0; i < n; ++i) {
    PutCode(out, code_of[static_cast<size_t>(i)], width);
  }
}

template <typename T>
Status DictReadHeader(Cursor* c, int64_t n, std::vector<T>* dict, int* width) {
  uint32_t dict_size = 0;
  if (!c->GetU32(&dict_size)) return Status::Internal("dict payload truncated");
  // A dictionary never has more entries than rows, and every entry
  // takes at least 4 bytes (dictionaries hold int32/int64/string values).
  if (dict_size > static_cast<uint64_t>(n) || dict_size > c->remaining() / 4) {
    return Status::Internal("dict size exceeds row count or payload");
  }
  dict->reserve(dict_size);
  for (uint32_t i = 0; i < dict_size; ++i) {
    T v{};
    if (!GetValue(c, &v)) return Status::Internal("dict payload truncated");
    dict->push_back(std::move(v));
  }
  uint8_t w = 0;
  if (!c->GetU8(&w) || (w != 1 && w != 2 && w != 4)) {
    return Status::Internal("dict payload has bad code width");
  }
  *width = w;
  return Status::OK();
}

template <typename T>
Status DictDecode(Cursor* c, int64_t n, std::vector<T>* out) {
  std::vector<T> dict;
  int width = 0;
  RDB_RETURN_NOT_OK(DictReadHeader(c, n, &dict, &width));
  if (static_cast<uint64_t>(n) > c->remaining() / width) {
    return Status::Internal("dict payload too short for its row count");
  }
  out->reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    uint32_t code = 0;
    if (!GetCode(c, width, &code) || code >= dict.size()) {
      return Status::Internal("dict payload truncated or code out of range");
    }
    out->push_back(dict[code]);
  }
  return Status::OK();
}

// --- frame of reference ----------------------------------------------------

int DeltaWidth(uint64_t max_delta) {
  if (max_delta <= 0xff) return 1;
  if (max_delta <= 0xffff) return 2;
  if (max_delta <= 0xffffffffULL) return 4;
  return 8;
}

template <typename T>
void ForEncode(const T* data, int64_t n, T min_v, std::string* out) {
  uint64_t max_delta = 0;
  for (int64_t i = 0; i < n; ++i) {
    uint64_t d = static_cast<uint64_t>(data[i]) - static_cast<uint64_t>(min_v);
    if (d > max_delta) max_delta = d;
  }
  PutU64(out, static_cast<uint64_t>(static_cast<int64_t>(min_v)));
  const int width = DeltaWidth(max_delta);
  out->push_back(static_cast<char>(width));
  for (int64_t i = 0; i < n; ++i) {
    uint64_t d = static_cast<uint64_t>(data[i]) - static_cast<uint64_t>(min_v);
    for (int b = 0; b < width; ++b) {
      out->push_back(static_cast<char>(d >> (8 * b)));
    }
  }
}

Status ForReadHeader(Cursor* c, int64_t* base, int* width) {
  uint64_t b = 0;
  if (!c->GetU64(&b)) return Status::Internal("for payload truncated");
  uint8_t w = 0;
  if (!c->GetU8(&w) || (w != 1 && w != 2 && w != 4 && w != 8)) {
    return Status::Internal("for payload has bad delta width");
  }
  *base = static_cast<int64_t>(b);
  *width = w;
  return Status::OK();
}

bool GetDelta(Cursor* c, int width, uint64_t* d) {
  if (c->remaining() < static_cast<size_t>(width)) return false;
  *d = 0;
  for (int i = 0; i < width; ++i) {
    *d |= static_cast<uint64_t>(c->p[c->pos + i]) << (8 * i);
  }
  c->pos += width;
  return true;
}

template <typename T>
Status ForDecode(Cursor* c, int64_t n, std::vector<T>* out) {
  int64_t base = 0;
  int width = 0;
  RDB_RETURN_NOT_OK(ForReadHeader(c, &base, &width));
  if (static_cast<uint64_t>(n) > c->remaining() / width) {
    return Status::Internal("for payload too short for its row count");
  }
  out->reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    uint64_t d = 0;
    if (!GetDelta(c, width, &d)) return Status::Internal("for payload truncated");
    out->push_back(static_cast<T>(static_cast<uint64_t>(base) + d));
  }
  return Status::OK();
}

// --- per-type encoder dispatch ---------------------------------------------

template <typename T>
constexpr bool SupportsDict() {
  return !std::is_same_v<T, double> && !std::is_same_v<T, uint8_t>;
}

template <typename T>
constexpr bool SupportsFor() {
  return std::is_integral_v<T> && !std::is_same_v<T, uint8_t>;
}

/// One size pass: raw bytes, run count and bytes, and min/max for
/// integer frames. Distinct values are counted separately, and only
/// while a dictionary can still win (DictSizeBelow).
struct ColumnShape {
  int64_t raw_bytes = 0;
  int64_t runs = 0;
  int64_t run_value_bytes = 0;
  uint64_t max_delta = 0;      // integers only
};

template <typename T>
ColumnShape Analyze(const T* data, int64_t n) {
  ColumnShape s;
  if (n == 0) return s;
  [[maybe_unused]] T min_v{};
  [[maybe_unused]] T max_v{};
  if constexpr (SupportsFor<T>()) min_v = max_v = data[0];
  s.runs = 1;
  s.run_value_bytes = static_cast<int64_t>(ValueBytes(data[0]));
  for (int64_t i = 1; i < n; ++i) {
    if (!BitEq(data[i], data[i - 1])) {
      ++s.runs;
      s.run_value_bytes += static_cast<int64_t>(ValueBytes(data[i]));
    }
    if constexpr (SupportsFor<T>()) {
      if (data[i] < min_v) min_v = data[i];
      if (data[i] > max_v) max_v = data[i];
    }
  }
  if constexpr (std::is_same_v<T, std::string>) {
    for (int64_t i = 0; i < n; ++i) {
      s.raw_bytes += static_cast<int64_t>(ValueBytes(data[i]));
    }
  } else {
    s.raw_bytes = n * static_cast<int64_t>(sizeof(T));
  }
  if constexpr (SupportsFor<T>()) {
    s.max_delta = static_cast<uint64_t>(max_v) - static_cast<uint64_t>(min_v);
  }
  return s;
}

/// Size of the dictionary image of `data` (n > 0) when it is below
/// `bound`, else -1. Counting stops as soon as the image's lower bound
/// (the values seen so far plus n codes at their width) reaches
/// `bound`, or at 0x10000 distinct values: past that a code takes 4
/// bytes, and the chooser does not weigh 4-byte codes.
template <typename T>
int64_t DictSizeBelow(const T* data, int64_t n, int64_t bound) {
  // Strings are keyed by view: `data` outlives the set.
  using Key =
      std::conditional_t<std::is_same_v<T, std::string>, std::string_view, T>;
  std::unordered_set<Key> distinct;
  int64_t value_bytes = 0;
  auto lower_bound = [&] {
    return 4 + value_bytes + 1 + n * CodeWidth(distinct.size());
  };
  if (lower_bound() >= bound) return -1;
  for (int64_t i = 0; i < n; ++i) {
    if (!distinct.insert(Key(data[i])).second) continue;
    if (distinct.size() > 0xffff) return -1;
    value_bytes += static_cast<int64_t>(ValueBytes(data[i]));
    if (lower_bound() >= bound) return -1;
  }
  return lower_bound();
}

template <typename T>
T ColumnMin(const T* data, int64_t n) {
  T min_v = data[0];
  for (int64_t i = 1; i < n; ++i) {
    if (data[i] < min_v) min_v = data[i];
  }
  return min_v;
}

template <typename T>
Status EncodeTypedAs(const T* data, int64_t n, TypeId type,
                     ColumnEncoding encoding, EncodedColumn* out) {
  out->encoding = encoding;
  out->type = type;
  out->num_rows = n;
  out->payload.clear();
  switch (encoding) {
    case ColumnEncoding::kRaw:
      RawEncode(data, n, &out->payload);
      return Status::OK();
    case ColumnEncoding::kRle:
      RleEncode(data, n, &out->payload);
      return Status::OK();
    case ColumnEncoding::kDict:
      if constexpr (SupportsDict<T>()) {
        DictEncode(data, n, &out->payload);
        return Status::OK();
      }
      return Status::InvalidArgument(
          StrFormat("dict encoding unsupported for %s", TypeName(type)));
    case ColumnEncoding::kFor:
      if constexpr (SupportsFor<T>()) {
        ForEncode(data, n, n > 0 ? ColumnMin(data, n) : T{}, &out->payload);
        return Status::OK();
      }
      return Status::InvalidArgument(
          StrFormat("for encoding unsupported for %s", TypeName(type)));
  }
  return Status::InvalidArgument("unknown encoding");
}

/// Picks the smallest codec; ties go to the earlier of raw, RLE, dict,
/// FOR, so each must be strictly smaller than everything before it. The
/// dictionary is sized last and only below the size it must beat.
template <typename T>
EncodedColumn EncodeTypedBest(const T* data, int64_t n, TypeId type) {
  const ColumnShape s = Analyze(data, n);
  ColumnEncoding best = ColumnEncoding::kRaw;
  int64_t best_size = s.raw_bytes;

  const int64_t rle_size = 4 + s.runs * 4 + s.run_value_bytes;
  if (rle_size < best_size) {
    best = ColumnEncoding::kRle;
    best_size = rle_size;
  }
  int64_t for_size = -1;
  if constexpr (SupportsFor<T>()) {
    if (n > 0) for_size = 8 + 1 + n * DeltaWidth(s.max_delta);
  }
  if constexpr (SupportsDict<T>()) {
    if (n > 0) {
      // A dictionary wins only below the raw/RLE size and at or below
      // FOR's, which it beats on a tie.
      const int64_t bound =
          for_size >= 0 ? std::min(best_size, for_size + 1) : best_size;
      const int64_t dict_size = DictSizeBelow(data, n, bound);
      if (dict_size >= 0) {
        best = ColumnEncoding::kDict;
        best_size = dict_size;
      }
    }
  }
  if (for_size >= 0 && for_size < best_size) best = ColumnEncoding::kFor;

  EncodedColumn out;
  Status st = EncodeTypedAs(data, n, type, best, &out);
  RDB_CHECK_MSG(st.ok(), st.ToString().c_str());  // best is always supported
  return out;
}

template <typename T>
Status DecodeTyped(const EncodedColumn& enc, std::vector<T>* out) {
  Cursor c{reinterpret_cast<const unsigned char*>(enc.payload.data()),
           enc.payload.size()};
  Status st;
  switch (enc.encoding) {
    case ColumnEncoding::kRaw:
      st = RawDecode(&c, enc.num_rows, out);
      break;
    case ColumnEncoding::kRle:
      st = RleDecode(&c, enc.num_rows, out);
      break;
    case ColumnEncoding::kDict:
      if constexpr (SupportsDict<T>()) {
        st = DictDecode(&c, enc.num_rows, out);
      } else {
        st = Status::Internal("dict payload for unsupported type");
      }
      break;
    case ColumnEncoding::kFor:
      if constexpr (SupportsFor<T>()) {
        st = ForDecode(&c, enc.num_rows, out);
      } else {
        st = Status::Internal("for payload for unsupported type");
      }
      break;
  }
  RDB_RETURN_NOT_OK(st);
  if (c.remaining() != 0) {
    return Status::Internal("encoded column has trailing bytes");
  }
  return Status::OK();
}

}  // namespace

EncodedColumn EncodeColumn(const ColumnVector& col) {
  const int64_t n = col.size();
  switch (col.type()) {
    case TypeId::kBool:
      return EncodeTypedBest(col.Raw<uint8_t>(), n, col.type());
    case TypeId::kInt32:
    case TypeId::kDate:
      return EncodeTypedBest(col.Raw<int32_t>(), n, col.type());
    case TypeId::kInt64:
      return EncodeTypedBest(col.Raw<int64_t>(), n, col.type());
    case TypeId::kDouble:
      return EncodeTypedBest(col.Raw<double>(), n, col.type());
    case TypeId::kString:
      return EncodeTypedBest(col.Raw<std::string>(), n, col.type());
  }
  RDB_UNREACHABLE("bad type");
}

Status EncodeColumnAs(const ColumnVector& col, ColumnEncoding encoding,
                      EncodedColumn* out) {
  const int64_t n = col.size();
  switch (col.type()) {
    case TypeId::kBool:
      return EncodeTypedAs(col.Raw<uint8_t>(), n, col.type(), encoding, out);
    case TypeId::kInt32:
    case TypeId::kDate:
      return EncodeTypedAs(col.Raw<int32_t>(), n, col.type(), encoding, out);
    case TypeId::kInt64:
      return EncodeTypedAs(col.Raw<int64_t>(), n, col.type(), encoding, out);
    case TypeId::kDouble:
      return EncodeTypedAs(col.Raw<double>(), n, col.type(), encoding, out);
    case TypeId::kString:
      return EncodeTypedAs(col.Raw<std::string>(), n, col.type(), encoding,
                           out);
  }
  RDB_UNREACHABLE("bad type");
}

Status DecodeColumn(const EncodedColumn& enc, ColumnPtr* out) {
  if (enc.num_rows < 0) {
    return Status::Internal("encoded column has negative row count");
  }
  ColumnPtr col = MakeColumn(enc.type);
  Status st;
  switch (enc.type) {
    case TypeId::kBool:
      st = DecodeTyped(enc, &col->Data<uint8_t>());
      break;
    case TypeId::kInt32:
    case TypeId::kDate:
      st = DecodeTyped(enc, &col->Data<int32_t>());
      break;
    case TypeId::kInt64:
      st = DecodeTyped(enc, &col->Data<int64_t>());
      break;
    case TypeId::kDouble:
      st = DecodeTyped(enc, &col->Data<double>());
      break;
    case TypeId::kString:
      st = DecodeTyped(enc, &col->Data<std::string>());
      break;
  }
  RDB_RETURN_NOT_OK(st);
  if (col->size() != enc.num_rows) {
    return Status::Internal("encoded column row count mismatch");
  }
  *out = std::move(col);
  return Status::OK();
}

}  // namespace recycledb
