#include "storage/spill_file.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <type_traits>
#include <variant>

#include "common/hash.h"
#include "common/string_util.h"
#include "storage/compression.h"
#include "storage/wire_format.h"

namespace recycledb {

namespace {

using wire::Cursor;
using wire::PutDouble;
using wire::PutString;
using wire::PutU32;
using wire::PutU64;

constexpr char kMagic[4] = {'R', 'D', 'B', 'S'};

// --- header (de)serialization into a flat byte buffer ---------------------

std::string SerializeHeader(const SpillFileMeta& meta) {
  std::string h;
  PutString(&h, meta.canon_key);
  PutU32(&h, static_cast<uint32_t>(meta.column_names.size()));
  for (size_t i = 0; i < meta.column_names.size(); ++i) {
    PutString(&h, meta.column_names[i]);
    h.push_back(static_cast<char>(meta.column_types[i]));
  }
  PutU64(&h, static_cast<uint64_t>(meta.num_rows));
  PutDouble(&h, meta.bcost_ms);
  PutDouble(&h, meta.h);
  PutDouble(&h, meta.benefit);
  PutU32(&h, static_cast<uint32_t>(meta.base_tables.size()));
  for (const std::string& t : meta.base_tables) PutString(&h, t);
  PutU64(&h, static_cast<uint64_t>(meta.raw_bytes));
  PutU32(&h, static_cast<uint32_t>(meta.table_versions.size()));
  for (const auto& [table, rows] : meta.table_versions) {
    PutString(&h, table);
    PutU64(&h, static_cast<uint64_t>(rows));
  }
  PutString(&h, meta.select_child_key);
  PutString(&h, meta.select_predicate);
  return h;
}

Status ParseHeader(const std::string& buf, SpillFileMeta* meta) {
  Cursor c{reinterpret_cast<const unsigned char*>(buf.data()), buf.size()};
  uint32_t ncols = 0, ntables = 0, nversions = 0;
  uint64_t rows = 0, raw = 0;
  *meta = SpillFileMeta{};
  if (!c.GetString(&meta->canon_key) || !c.GetU32(&ncols)) {
    return Status::Internal("spill header truncated");
  }
  for (uint32_t i = 0; i < ncols; ++i) {
    std::string name;
    if (!c.GetString(&name) || c.pos >= c.len) {
      return Status::Internal("spill header truncated in column list");
    }
    uint8_t type = c.p[c.pos++];
    if (type > static_cast<uint8_t>(TypeId::kDate)) {
      return Status::Internal(
          StrFormat("spill header has unknown column type %d", (int)type));
    }
    meta->column_names.push_back(std::move(name));
    meta->column_types.push_back(static_cast<TypeId>(type));
  }
  if (!c.GetU64(&rows) || !c.GetDouble(&meta->bcost_ms) ||
      !c.GetDouble(&meta->h) || !c.GetDouble(&meta->benefit) ||
      !c.GetU32(&ntables)) {
    return Status::Internal("spill header truncated");
  }
  meta->num_rows = static_cast<int64_t>(rows);
  for (uint32_t i = 0; i < ntables; ++i) {
    std::string t;
    if (!c.GetString(&t)) {
      return Status::Internal("spill header truncated in base-table list");
    }
    meta->base_tables.push_back(std::move(t));
  }
  if (!c.GetU64(&raw) || !c.GetU32(&nversions)) {
    return Status::Internal("spill header truncated");
  }
  meta->raw_bytes = static_cast<int64_t>(raw);
  for (uint32_t i = 0; i < nversions; ++i) {
    std::string t;
    uint64_t mark = 0;
    if (!c.GetString(&t) || !c.GetU64(&mark)) {
      return Status::Internal("spill header truncated in version list");
    }
    meta->table_versions.emplace_back(std::move(t),
                                      static_cast<int64_t>(mark));
  }
  if (!c.GetString(&meta->select_child_key) ||
      !c.GetString(&meta->select_predicate)) {
    return Status::Internal("spill header truncated in select descriptor");
  }
  if (c.remaining() != 0) return Status::Internal("spill header too long");
  // Every image is stamped: one row mark per base table, and no other.
  std::vector<std::string> marked, bases = meta->base_tables;
  for (const auto& version : meta->table_versions) {
    marked.push_back(version.first);
  }
  std::sort(marked.begin(), marked.end());
  std::sort(bases.begin(), bases.end());
  if (marked != bases) {
    return Status::Internal("spill header row marks do not match its tables");
  }
  return Status::OK();
}

/// Size of the raw column image for `table` (the meaning of
/// SpillFileMeta::raw_bytes).
int64_t RawPayloadBytes(const Table& table) {
  const int64_t rows = table.num_rows();
  int64_t bytes = 0;
  for (int ci = 0; ci < table.num_columns(); ++ci) {
    const ColumnVector& col = *table.column(ci);
    switch (col.type()) {
      case TypeId::kBool:
        bytes += rows;
        break;
      case TypeId::kInt32:
      case TypeId::kDate:
        bytes += rows * 4;
        break;
      case TypeId::kInt64:
      case TypeId::kDouble:
        bytes += rows * 8;
        break;
      case TypeId::kString: {
        const std::string* data = col.Raw<std::string>();
        for (int64_t r = 0; r < rows; ++r) {
          bytes += 4 + static_cast<int64_t>(data[r].size());
        }
        break;
      }
    }
  }
  return bytes;
}

/// FILE* wrapper that streams every written byte through the checksum
/// and counts them.
class ChecksummedWriter {
 public:
  explicit ChecksummedWriter(std::FILE* f) : f_(f) {}

  bool Write(const void* data, size_t len) {
    if (len == 0) return true;  // zero-row columns pass a null span
    sum_.Update(data, len);
    bytes_ += static_cast<int64_t>(len);
    return std::fwrite(data, 1, len, f_) == len;
  }
  uint64_t sum() const { return sum_.Digest(); }
  int64_t bytes() const { return bytes_; }

 private:
  std::FILE* f_;
  StreamChecksum sum_;
  int64_t bytes_ = 0;
};

// --- payload (encoded column blocks) --------------------------------------

Status WriteColumns(ChecksummedWriter* w, const Table& table, bool compress) {
  for (int ci = 0; ci < table.num_columns(); ++ci) {
    const ColumnVector& col = *table.column(ci);
    EncodedColumn enc;
    if (compress) {
      enc = EncodeColumn(col);
    } else {
      RDB_RETURN_NOT_OK(EncodeColumnAs(col, ColumnEncoding::kRaw, &enc));
    }
    std::string frame;
    frame.push_back(static_cast<char>(enc.encoding));
    PutU64(&frame, enc.payload.size());
    if (!w->Write(frame.data(), frame.size()) ||
        !w->Write(enc.payload.data(), enc.payload.size())) {
      return Status::Internal("spill write failed");
    }
  }
  return Status::OK();
}

/// Opens `path`, validates magic/version, reads the header. On success
/// `*f_out` is positioned at the first payload byte and `*sum` has taken
/// the header bytes.
Status OpenAndReadHeader(const std::string& path, std::FILE** f_out,
                         SpillFileMeta* meta, StreamChecksum* sum) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound(StrFormat("spill file %s cannot be opened",
                                      path.c_str()));
  }
  char magic[4];
  unsigned char fixed[12];
  if (std::fread(magic, 1, 4, f) != 4 ||
      std::memcmp(magic, kMagic, 4) != 0) {
    std::fclose(f);
    return Status::Internal(StrFormat("%s is not a spill file", path.c_str()));
  }
  if (std::fread(fixed, 1, 12, f) != 12) {
    std::fclose(f);
    return Status::Internal(StrFormat("%s: spill header truncated", path.c_str()));
  }
  uint32_t version = 0;
  uint64_t header_len = 0;
  for (int i = 0; i < 4; ++i) version |= static_cast<uint32_t>(fixed[i]) << (8 * i);
  for (int i = 0; i < 8; ++i)
    header_len |= static_cast<uint64_t>(fixed[4 + i]) << (8 * i);
  if (version != kSpillFormatVersion) {
    std::fclose(f);
    return Status::Internal(StrFormat("%s: unsupported spill version %u",
                                      path.c_str(), version));
  }
  if (header_len > (16u << 20)) {
    std::fclose(f);
    return Status::Internal(StrFormat("%s: implausible spill header length",
                                      path.c_str()));
  }
  std::string header(header_len, '\0');
  if (header_len > 0 &&
      std::fread(header.data(), 1, header_len, f) != header_len) {
    std::fclose(f);
    return Status::Internal(StrFormat("%s: spill header truncated", path.c_str()));
  }
  Status st = ParseHeader(header, meta);
  if (!st.ok()) {
    std::fclose(f);
    return Status::Internal(StrFormat("%s: %s", path.c_str(),
                                      st.message().c_str()));
  }
  sum->Update(header.data(), header.size());
  *f_out = f;
  return Status::OK();
}

/// Reads `path`, verifies its checksum, and splits the payload into one
/// encoded block per column of `*meta`. The checksum is verified BEFORE
/// any decoding: the encoded payload is at most the file size (unlike
/// its decoded form), so it is safe to buffer whole, and the codecs then
/// never see bit rot. A decode failure after this point means a crafted
/// file; the codecs still bound-check before allocating.
Status ReadColumnBlocks(const std::string& path, SpillFileMeta* meta,
                        std::vector<EncodedColumn>* encs) {
  auto corrupt = [&path](const std::string& what) {
    return Status::Internal(StrFormat("%s: %s", path.c_str(), what.c_str()));
  };
  std::FILE* f = nullptr;
  StreamChecksum sum;
  RDB_RETURN_NOT_OK(OpenAndReadHeader(path, &f, meta, &sum));
  // Payload size = bytes between the header and the 8-byte checksum.
  const long payload_start = std::ftell(f);
  if (payload_start < 0 || std::fseek(f, 0, SEEK_END) != 0) {
    std::fclose(f);
    return corrupt("cannot size spill file");
  }
  const int64_t payload_bytes = std::ftell(f) - payload_start - 8;
  std::fseek(f, payload_start, SEEK_SET);
  std::string payload;
  const char* error = nullptr;
  unsigned char sumbuf[8] = {};
  if (payload_bytes < 0) {
    error = "spill file truncated";
  } else {
    payload.resize(static_cast<size_t>(payload_bytes));
    if (std::fread(payload.data(), 1, payload.size(), f) != payload.size()) {
      error = "spill payload truncated";
    } else if (std::fread(sumbuf, 1, 8, f) != 8) {
      error = "spill checksum missing";
    }
  }
  std::fclose(f);
  if (error != nullptr) return corrupt(error);
  uint64_t stored = 0;
  for (int i = 0; i < 8; ++i)
    stored |= static_cast<uint64_t>(sumbuf[i]) << (8 * i);
  sum.Update(payload.data(), payload.size());
  if (stored != sum.Digest()) return corrupt("spill checksum mismatch");

  if (meta->num_rows < 0) return corrupt("spill header has negative row count");
  Cursor c{reinterpret_cast<const unsigned char*>(payload.data()),
           payload.size()};
  for (TypeId type : meta->column_types) {
    uint8_t encoding = 0;
    uint64_t len = 0;
    if (!c.GetU8(&encoding) || !c.GetU64(&len) || len > c.remaining()) {
      return corrupt("spill column block truncated");
    }
    if (encoding > static_cast<uint8_t>(ColumnEncoding::kFor)) {
      return corrupt(
          StrFormat("spill column has unknown encoding %d", (int)encoding));
    }
    EncodedColumn enc;
    enc.encoding = static_cast<ColumnEncoding>(encoding);
    enc.type = type;
    enc.num_rows = meta->num_rows;
    enc.payload.assign(reinterpret_cast<const char*>(c.p + c.pos),
                       static_cast<size_t>(len));
    c.pos += static_cast<size_t>(len);
    encs->push_back(std::move(enc));
  }
  if (c.remaining() != 0) return corrupt("spill payload has trailing bytes");
  return Status::OK();
}

/// Decodes one verified column block; errors name the file.
Status DecodeBlock(const std::string& path, const EncodedColumn& enc,
                   ColumnPtr* out) {
  Status st = DecodeColumn(enc, out);
  if (st.ok()) return st;
  return Status::Internal(StrFormat("%s: %s", path.c_str(),
                                    st.message().c_str()));
}

TablePtr MakeResultTable(const SpillFileMeta& meta) {
  std::vector<Field> fields;
  for (size_t i = 0; i < meta.column_names.size(); ++i) {
    fields.push_back({meta.column_names[i], meta.column_types[i]});
  }
  return MakeTable(Schema(std::move(fields)));
}

/// Appends to `*sel` the rows of `values` that lie in `range`, compared
/// under the value order (CompareToDatum). A bound of the other kind
/// (string vs number) is an error.
template <typename T>
Status SelectInRange(const T* values, int64_t n, const ColumnInterval& range,
                     std::vector<int32_t>* sel) {
  constexpr bool kString = std::is_same_v<T, std::string>;
  for (const RangeBound* b : {&range.lo, &range.hi}) {
    if (!b->unbounded && (b->value.index() == 0 ||
                          std::holds_alternative<std::string>(b->value) !=
                              kString)) {
      return Status::InvalidArgument(
          "range bound does not match the filter column's type");
    }
  }
  for (int64_t i = 0; i < n; ++i) {
    if (!range.lo.unbounded) {
      const int c = CompareToDatum(values[i], range.lo.value);
      if (c < 0 || (c == 0 && !range.lo.inclusive)) continue;
    }
    if (!range.hi.unbounded) {
      const int c = CompareToDatum(values[i], range.hi.value);
      if (c > 0 || (c == 0 && !range.hi.inclusive)) continue;
    }
    sel->push_back(static_cast<int32_t>(i));
  }
  return Status::OK();
}

Status SelectRows(const ColumnVector& col, const ColumnInterval& range,
                  std::vector<int32_t>* sel) {
  return col.VisitValues([&](const auto* values) {
    return SelectInRange(values, col.size(), range, sel);
  });
}

}  // namespace

Status WriteSpillFile(const std::string& path, const Table& table,
                      const SpillFileMeta& meta,
                      const SpillWriteOptions& options,
                      SpillWriteInfo* info) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal(StrFormat("cannot create spill file %s",
                                      tmp.c_str()));
  }
  SpillFileMeta stamped = meta;
  stamped.raw_bytes = RawPayloadBytes(table);
  std::string header = SerializeHeader(stamped);
  std::string prefix;
  prefix.append(kMagic, 4);
  PutU32(&prefix, kSpillFormatVersion);
  PutU64(&prefix, static_cast<uint64_t>(header.size()));

  // The prefix (magic/version/length) is outside the checksum; the
  // checksum covers header + payload, matching the read path.
  Status st = Status::OK();
  if (std::fwrite(prefix.data(), 1, prefix.size(), f) != prefix.size()) {
    st = Status::Internal("spill write failed");
  }
  ChecksummedWriter w(f);
  if (st.ok() && !w.Write(header.data(), header.size())) {
    st = Status::Internal("spill write failed");
  }
  if (st.ok()) st = WriteColumns(&w, table, options.compress);
  if (st.ok()) {
    std::string sumbuf;
    PutU64(&sumbuf, w.sum());
    if (std::fwrite(sumbuf.data(), 1, sumbuf.size(), f) != sumbuf.size()) {
      st = Status::Internal("spill write failed");
    }
  }
  if (std::fclose(f) != 0 && st.ok()) {
    st = Status::Internal("spill write failed on close");
  }
  if (st.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    st = Status::Internal(StrFormat("cannot rename %s into place", tmp.c_str()));
  }
  if (!st.ok()) {
    std::remove(tmp.c_str());
    return st;
  }
  if (info != nullptr) {
    info->file_bytes = static_cast<int64_t>(prefix.size()) + w.bytes() + 8;
    info->raw_bytes = stamped.raw_bytes;
  }
  return st;
}

Status ReadSpillMeta(const std::string& path, SpillFileMeta* meta) {
  std::FILE* f = nullptr;
  StreamChecksum sum;
  RDB_RETURN_NOT_OK(OpenAndReadHeader(path, &f, meta, &sum));
  std::fclose(f);
  return Status::OK();
}

Status ReadSpillTable(const std::string& path, SpillFileMeta* meta,
                      TablePtr* out) {
  std::vector<EncodedColumn> encs;
  RDB_RETURN_NOT_OK(ReadColumnBlocks(path, meta, &encs));
  Batch batch;
  batch.num_rows = meta->num_rows;
  for (const EncodedColumn& enc : encs) {
    ColumnPtr col;
    RDB_RETURN_NOT_OK(DecodeBlock(path, enc, &col));
    batch.columns.push_back(std::move(col));
  }
  TablePtr table = MakeResultTable(*meta);
  table->AppendBatch(batch);
  *out = std::move(table);
  return Status::OK();
}

Status ReadSpillTableFiltered(const std::string& path, SpillFileMeta* meta,
                              int filter_column, const ColumnInterval& range,
                              TablePtr* out) {
  std::vector<EncodedColumn> encs;
  RDB_RETURN_NOT_OK(ReadColumnBlocks(path, meta, &encs));
  if (filter_column < 0 || filter_column >= static_cast<int>(encs.size())) {
    return Status::InvalidArgument(
        StrFormat("%s: filter column %d out of range", path.c_str(),
                  filter_column));
  }

  if (meta->num_rows > std::numeric_limits<int32_t>::max()) {
    return Status::Internal(
        StrFormat("%s: row count out of range", path.c_str()));
  }

  // Decode every column once, select on the decoded filter column, then
  // gather. Ascending selection preserves row order, so the result is
  // bit-identical to a full load followed by the same range filter.
  std::vector<ColumnPtr> full(encs.size());
  for (size_t i = 0; i < encs.size(); ++i) {
    RDB_RETURN_NOT_OK(DecodeBlock(path, encs[i], &full[i]));
  }
  std::vector<int32_t> sel;
  Status st = SelectRows(*full[filter_column], range, &sel);
  if (!st.ok()) {
    return Status::InvalidArgument(
        StrFormat("%s: %s", path.c_str(), st.message().c_str()));
  }
  Batch batch;
  batch.num_rows = static_cast<int64_t>(sel.size());
  for (const ColumnPtr& col : full) {
    ColumnPtr out = MakeColumn(col->type());
    out->AppendSelected(*col, sel);
    batch.columns.push_back(std::move(out));
  }
  TablePtr table = MakeResultTable(*meta);
  table->AppendBatch(batch);
  *out = std::move(table);
  return Status::OK();
}

}  // namespace recycledb
