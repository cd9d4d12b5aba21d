#include "fleet/manifest.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/file_io.h"
#include "common/hash.h"
#include "storage/wire_format.h"

namespace recycledb {
namespace fleet {

namespace {

/// Plausibility bound on one frame's payload, checked before any
/// allocation: records are small, so a larger length is corruption.
constexpr uint32_t kMaxPayload = 1u << 24;
/// Length, type and checksum around a payload.
constexpr size_t kFrameOverhead = 4 + 1 + 8;

uint64_t FrameChecksum(const char* data, size_t len) {
  StreamChecksum sum;
  sum.Update(data, len);
  return sum.Digest();
}

bool DecodePayload(RecordType type, wire::Cursor* c, LogRecord* r) {
  uint64_t seq = 0;
  if (!c->GetU64(&seq)) return false;
  r->type = type;
  r->seq = static_cast<int64_t>(seq);
  uint64_t value = 0;
  switch (type) {
    case RecordType::kHeader:
      if (!c->GetU64(&value)) return false;
      r->value = static_cast<int64_t>(value);
      return true;
    case RecordType::kOwner:
      if (!c->GetString(&r->owner) || !c->GetU64(&value)) return false;
      r->value = static_cast<int64_t>(value);
      return true;
    case RecordType::kAdd: {
      uint32_t n = 0;
      if (!c->GetString(&r->name) || !c->GetString(&r->canon_key) ||
          !c->GetString(&r->owner) || !c->GetU32(&n) || n > c->remaining()) {
        return false;
      }
      r->tables.resize(n);
      for (std::string& t : r->tables) {
        if (!c->GetString(&t)) return false;
      }
      return true;
    }
    case RecordType::kDrop:
    case RecordType::kPurge:
      return c->GetString(&r->name);
  }
  return false;
}

}  // namespace

void AppendFrame(const LogRecord& r, std::string* out) {
  std::string body;
  body.push_back(static_cast<char>(r.type));
  wire::PutU64(&body, static_cast<uint64_t>(r.seq));
  switch (r.type) {
    case RecordType::kHeader:
      wire::PutU64(&body, static_cast<uint64_t>(r.value));
      break;
    case RecordType::kOwner:
      wire::PutString(&body, r.owner);
      wire::PutU64(&body, static_cast<uint64_t>(r.value));
      break;
    case RecordType::kAdd:
      wire::PutString(&body, r.name);
      wire::PutString(&body, r.canon_key);
      wire::PutString(&body, r.owner);
      wire::PutU32(&body, static_cast<uint32_t>(r.tables.size()));
      for (const std::string& t : r.tables) wire::PutString(&body, t);
      break;
    case RecordType::kDrop:
    case RecordType::kPurge:
      wire::PutString(&body, r.name);
      break;
  }
  wire::PutU32(out, static_cast<uint32_t>(body.size() - 1));
  out->append(body);
  wire::PutU64(out, FrameChecksum(body.data(), body.size()));
}

size_t DecodeFrames(std::string_view buf, std::vector<LogRecord>* out) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(buf.data());
  size_t pos = 0;
  while (buf.size() - pos >= kFrameOverhead) {
    wire::Cursor head{bytes + pos, buf.size() - pos};
    uint32_t len = 0;
    head.GetU32(&len);
    if (len > kMaxPayload || head.remaining() < 1 + size_t{len} + 8) break;
    const char* body = buf.data() + pos + 4;
    wire::Cursor tail{bytes + pos + 4 + 1 + len, 8};
    uint64_t want = 0;
    tail.GetU64(&want);
    if (FrameChecksum(body, 1 + size_t{len}) != want) break;
    wire::Cursor payload{bytes + pos + 4 + 1, len};
    LogRecord r;
    if (!DecodePayload(static_cast<RecordType>(bytes[pos + 4]), &payload,
                       &r) ||
        payload.remaining() != 0) {
      break;
    }
    out->push_back(std::move(r));
    pos += kFrameOverhead + len;
  }
  return pos;
}

void ManifestView::Apply(LogRecord r) {
  ++records;
  last_seq = std::max(last_seq, r.seq);
  switch (r.type) {
    case RecordType::kHeader:
      generation = r.value;
      break;
    case RecordType::kOwner:
      owners[r.owner] = LogOwner{r.value, r.seq};
      break;
    case RecordType::kAdd:
      entries.insert_or_assign(
          std::move(r.name), LogEntry{std::move(r.canon_key),
                                      std::move(r.owner), r.seq,
                                      std::move(r.tables)});
      break;
    case RecordType::kDrop:
      entries.erase(r.name);
      break;
    case RecordType::kPurge:
      purges.push_back(LogPurge{r.name, r.seq});
      for (auto it = entries.begin(); it != entries.end();) {
        const std::vector<std::string>& t = it->second.tables;
        const bool dead = it->second.seq < r.seq &&
                          std::find(t.begin(), t.end(), r.name) != t.end();
        it = dead ? entries.erase(it) : std::next(it);
      }
      break;
  }
}

bool ManifestView::OwnerLive(const std::string& owner, int64_t now_ms) const {
  auto it = owners.find(owner);
  return it != owners.end() && it->second.lease_expiry_ms > now_ms;
}

bool ManifestView::AnyPurged(const std::vector<std::string>& tables) const {
  for (const LogPurge& p : purges) {
    if (std::find(tables.begin(), tables.end(), p.table) != tables.end()) {
      return true;
    }
  }
  return false;
}

std::vector<LogRecord> ManifestView::LiveRecords(int64_t now_ms) const {
  std::vector<LogRecord> out;
  int64_t min_applied = last_seq;
  for (const auto& [id, o] : owners) {
    if (o.lease_expiry_ms <= now_ms) continue;
    min_applied = std::min(min_applied, o.seq);
    LogRecord r;
    r.type = RecordType::kOwner;
    r.seq = o.seq;
    r.owner = id;
    r.value = o.lease_expiry_ms;
    out.push_back(std::move(r));
  }
  for (const LogPurge& p : purges) {
    if (p.seq <= min_applied) continue;
    LogRecord r;
    r.type = RecordType::kPurge;
    r.seq = p.seq;
    r.name = p.table;
    out.push_back(std::move(r));
  }
  for (const auto& [file, e] : entries) {
    LogRecord r;
    r.type = RecordType::kAdd;
    r.seq = e.seq;
    r.name = file;
    r.canon_key = e.canon_key;
    r.owner = e.owner;
    r.tables = e.tables;
    out.push_back(std::move(r));
  }
  std::sort(out.begin(), out.end(),
            [](const LogRecord& a, const LogRecord& b) { return a.seq < b.seq; });
  return out;
}

int64_t UnixMillisNow() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

namespace {

/// Decodes `buf` up to its first bad frame and replays it into a fresh
/// `*view`; `records` (optional) gets the decoded records. Returns the
/// length of the good prefix.
size_t Replay(std::string_view buf, ManifestView* view,
              std::vector<LogRecord>* records) {
  std::vector<LogRecord> decoded;
  const size_t good = DecodeFrames(buf, &decoded);
  *view = ManifestView{};
  if (records != nullptr) {
    for (const LogRecord& r : decoded) view->Apply(r);
    *records = std::move(decoded);
  } else {
    for (LogRecord& r : decoded) view->Apply(std::move(r));
  }
  return good;
}

}  // namespace

std::string ManifestLog::Path(const std::string& dir) {
  return dir + "/manifest.log";
}

std::string ManifestLog::LockPath(const std::string& dir) {
  return dir + "/manifest.lock";
}

Status ManifestLog::Open(const std::string& dir, bool writable, bool create,
                         std::vector<LogRecord>* records) {
  Close();
  path_ = Path(dir);
  writable_ = writable;
  return Reopen(create, records, nullptr);
}

Status ManifestLog::Reopen(bool create, std::vector<LogRecord>* records,
                           int64_t* bytes_read) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = ::open(path_.c_str(),
               (writable_ ? O_RDWR | O_APPEND : O_RDONLY) |
                   (create ? O_CREAT : 0) | O_CLOEXEC,
               0644);
  struct stat st;
  std::string buf;
  if (fd_ < 0 || ::fstat(fd_, &st) != 0 || !ReadFdFrom(fd_, 0, &buf).ok()) {
    const int err = errno;
    Close();
    if (err == ENOENT) return Status::NotFound("no manifest log at " + path_);
    return Status::Internal("cannot read manifest log " + path_ + ": " +
                            std::strerror(err));
  }
  inode_ = st.st_ino;
  device_ = st.st_dev;
  if (bytes_read != nullptr) *bytes_read += static_cast<int64_t>(buf.size());
  offset_ = static_cast<int64_t>(Replay(buf, &view_, records));
  torn_ = offset_ < static_cast<int64_t>(buf.size());
  return Status::OK();
}

Status ManifestLog::Tail(std::vector<LogRecord>* fresh, bool* resynced,
                         int64_t* bytes_read) {
  fresh->clear();
  *resynced = false;
  if (bytes_read != nullptr) *bytes_read = 0;
  if (fd_ < 0) return Status::OK();
  struct stat at_path, held;
  if (::stat(path_.c_str(), &at_path) != 0 || ::fstat(fd_, &held) != 0) {
    return Status::OK();  // the directory went away: nothing new to read
  }
  if (static_cast<uint64_t>(at_path.st_ino) != inode_ ||
      static_cast<uint64_t>(at_path.st_dev) != device_ ||
      held.st_size < offset_) {
    *resynced = true;
    return Reopen(/*create=*/false, fresh, bytes_read);
  }
  if (held.st_size == offset_) {
    torn_ = false;
    return Status::OK();
  }
  std::string buf;
  RDB_RETURN_NOT_OK(ReadFdFrom(fd_, offset_, &buf));
  if (bytes_read != nullptr) *bytes_read = static_cast<int64_t>(buf.size());
  const size_t good = DecodeFrames(buf, fresh);
  offset_ += static_cast<int64_t>(good);
  torn_ = good < buf.size();
  for (const LogRecord& r : *fresh) view_.Apply(r);
  return Status::OK();
}

Status ManifestLog::Append(std::vector<LogRecord>* batch, int64_t now_ms) {
  if (fd_ < 0 || !writable_) {
    return Status::Internal("manifest log is not open for writing");
  }
  if (torn_) RDB_RETURN_NOT_OK(Compact(now_ms));
  std::string buf;
  std::vector<LogRecord> header;
  if (offset_ == 0) {
    header.resize(1);
    header[0].type = RecordType::kHeader;
    header[0].seq = view_.last_seq;
    header[0].value = view_.generation + 1;
    AppendFrame(header[0], &buf);
  }
  int64_t seq = view_.last_seq;
  for (LogRecord& r : *batch) {
    r.seq = ++seq;
    AppendFrame(r, &buf);
  }
  for (size_t done = 0; done < buf.size();) {
    const ssize_t n = ::write(fd_, buf.data() + done, buf.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      // Part of the batch may be on disk: the next writer finds a bad
      // frame there and compacts it away.
      torn_ = true;
      return Status::Internal("cannot append to manifest log " + path_ +
                              ": " + std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  offset_ += static_cast<int64_t>(buf.size());
  for (const LogRecord& r : header) view_.Apply(r);
  for (const LogRecord& r : *batch) view_.Apply(r);
  // The live records are at least the header and the live entries, so a
  // log within twice that many needs no count.
  const int64_t floor = 1 + static_cast<int64_t>(view_.entries.size());
  if (view_.records <= 2 * floor) return Status::OK();
  const int64_t live = 1 + static_cast<int64_t>(
                               view_.LiveRecords(now_ms).size());
  if (view_.records > 2 * live) return Compact(now_ms);
  return Status::OK();
}

Status ManifestLog::Compact(int64_t now_ms) {
  LogRecord header;
  header.type = RecordType::kHeader;
  header.seq = view_.last_seq;
  header.value = view_.generation + 1;
  std::string buf;
  AppendFrame(header, &buf);
  for (const LogRecord& r : view_.LiveRecords(now_ms)) AppendFrame(r, &buf);
  RDB_RETURN_NOT_OK(WriteFileAtomic(path_, buf));
  return Reopen(/*create=*/false, nullptr, nullptr);
}

Status ManifestLog::ReplayPrefix(ManifestView* out) const {
  std::string buf;
  if (fd_ >= 0) RDB_RETURN_NOT_OK(ReadFdFrom(fd_, 0, &buf));
  buf.resize(std::min(buf.size(), static_cast<size_t>(offset_)));
  Replay(buf, out, nullptr);
  return Status::OK();
}

void ManifestLog::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  offset_ = 0;
  torn_ = false;
  view_ = ManifestView{};
}

}  // namespace fleet
}  // namespace recycledb
