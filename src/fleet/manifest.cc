#include "fleet/manifest.h"

#include <chrono>
#include <cstdio>

#include "common/hash.h"
#include "common/string_util.h"
#include "storage/wire_format.h"

namespace recycledb {
namespace fleet {

namespace {

constexpr char kMagic[4] = {'R', 'D', 'B', 'M'};

/// Plausibility bound on the vector counts, checked before any
/// allocation: the manifest is a small control file, so a count beyond
/// this is corruption, not scale.
constexpr uint32_t kMaxRecords = 1u << 20;

}  // namespace

ManifestOwner* Manifest::FindOwner(const std::string& id) {
  for (ManifestOwner& o : owners) {
    if (o.id == id) return &o;
  }
  return nullptr;
}

const ManifestEntry* Manifest::Find(const std::string& canon_key) const {
  for (const ManifestEntry& e : entries) {
    if (e.canon_key == canon_key) return &e;
  }
  return nullptr;
}

bool Manifest::OwnerLive(const std::string& owner, int64_t now_ms) const {
  if (owner.empty()) return false;
  for (const ManifestOwner& o : owners) {
    if (o.id == owner) return o.lease_expiry_ms > now_ms;
  }
  return false;
}

void Manifest::AddPurge(const std::string& table) {
  purges.push_back(ManifestPurge{table, seq});
  if (purges.size() > kManifestMaxPurges) {
    purges.erase(purges.begin(),
                 purges.begin() + (purges.size() - kManifestMaxPurges));
  }
}

std::string ManifestPath(const std::string& dir) {
  return dir + "/manifest.rdbm";
}

std::string ManifestLockPath(const std::string& dir) {
  return dir + "/manifest.lock";
}

int64_t UnixMillisNow() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::string SerializeManifest(const Manifest& m) {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  wire::PutU32(&out, kManifestFormatVersion);
  wire::PutU64(&out, static_cast<uint64_t>(m.seq));
  wire::PutU32(&out, static_cast<uint32_t>(m.owners.size()));
  for (const ManifestOwner& o : m.owners) {
    wire::PutString(&out, o.id);
    wire::PutU64(&out, static_cast<uint64_t>(o.lease_expiry_ms));
  }
  wire::PutU32(&out, static_cast<uint32_t>(m.entries.size()));
  for (const ManifestEntry& e : m.entries) {
    wire::PutString(&out, e.canon_key);
    wire::PutString(&out, e.file);
    wire::PutString(&out, e.owner);
    wire::PutU64(&out, static_cast<uint64_t>(e.admit_seq));
  }
  wire::PutU32(&out, static_cast<uint32_t>(m.purges.size()));
  for (const ManifestPurge& p : m.purges) {
    wire::PutString(&out, p.table);
    wire::PutU64(&out, static_cast<uint64_t>(p.seq));
  }
  wire::PutU64(&out, HashString(out));
  return out;
}

Status ParseManifest(const std::string& buf, Manifest* out) {
  *out = Manifest{};
  auto corrupt = [](const char* what) {
    return Status::InvalidArgument(
        StrFormat("corrupt fleet manifest: %s", what));
  };
  if (buf.size() < sizeof(kMagic) + 4 + 8 + 8) return corrupt("truncated");
  if (std::memcmp(buf.data(), kMagic, sizeof(kMagic)) != 0) {
    return corrupt("bad magic");
  }
  // Checksum first: everything after this is trusted field-by-field.
  uint64_t want = 0;
  {
    wire::Cursor tail{
        reinterpret_cast<const unsigned char*>(buf.data() + buf.size() - 8), 8};
    tail.GetU64(&want);
  }
  if (HashString(std::string_view(buf.data(), buf.size() - 8)) != want) {
    return corrupt("checksum mismatch");
  }
  wire::Cursor c{reinterpret_cast<const unsigned char*>(buf.data()),
                 buf.size() - 8};
  c.pos = sizeof(kMagic);
  uint32_t version = 0;
  if (!c.GetU32(&version)) return corrupt("truncated");
  if (version != kManifestFormatVersion) {
    return Status::InvalidArgument(
        StrFormat("fleet manifest version %u unsupported (reader supports "
                  "%u); falling back to directory re-scan",
                  version, kManifestFormatVersion));
  }
  uint64_t seq = 0;
  if (!c.GetU64(&seq)) return corrupt("truncated");
  out->seq = static_cast<int64_t>(seq);
  uint32_t n = 0;
  if (!c.GetU32(&n) || n > kMaxRecords) return corrupt("owner count");
  out->owners.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    ManifestOwner o;
    uint64_t expiry = 0;
    if (!c.GetString(&o.id) || !c.GetU64(&expiry)) return corrupt("owner");
    o.lease_expiry_ms = static_cast<int64_t>(expiry);
    out->owners.push_back(std::move(o));
  }
  if (!c.GetU32(&n) || n > kMaxRecords) return corrupt("entry count");
  out->entries.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    ManifestEntry e;
    uint64_t admit_seq = 0;
    if (!c.GetString(&e.canon_key) || !c.GetString(&e.file) ||
        !c.GetString(&e.owner) || !c.GetU64(&admit_seq)) {
      return corrupt("entry");
    }
    e.admit_seq = static_cast<int64_t>(admit_seq);
    out->entries.push_back(std::move(e));
  }
  if (!c.GetU32(&n) || n > kMaxRecords) return corrupt("purge count");
  out->purges.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    ManifestPurge p;
    uint64_t seq64 = 0;
    if (!c.GetString(&p.table) || !c.GetU64(&seq64)) return corrupt("purge");
    p.seq = static_cast<int64_t>(seq64);
    out->purges.push_back(std::move(p));
  }
  if (c.remaining() != 0) return corrupt("trailing bytes");
  return Status::OK();
}

Status ReadManifestFile(const std::string& path, Manifest* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("no fleet manifest at " + path);
  }
  std::string buf;
  char chunk[1 << 14];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) buf.append(chunk, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::Internal("cannot read fleet manifest: " + path);
  }
  return ParseManifest(buf, out);
}

Status WriteManifestFile(const std::string& path, const Manifest& m) {
  const std::string tmp = path + ".tmp";
  const std::string buf = SerializeManifest(m);
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("cannot create fleet manifest tmp: " + tmp);
  }
  const bool wrote = std::fwrite(buf.data(), 1, buf.size(), f) == buf.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot write fleet manifest: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename fleet manifest into place: " + path);
  }
  return Status::OK();
}

}  // namespace fleet
}  // namespace recycledb
