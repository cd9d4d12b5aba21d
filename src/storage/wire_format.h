// Little-endian (de)serialization helpers shared by the spill-file and
// column-compression formats. Header-only; everything is trivially
// inlinable. Readers are bounds-checked: every Get* returns false past
// the end so truncated or corrupt buffers fail cleanly with a
// recoverable Status at the call site, never an abort or over-read.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>

namespace recycledb {
namespace wire {

inline void PutU32(std::string* out, uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>(v >> (8 * i));
  out->append(b, sizeof(b));
}

inline void PutU64(std::string* out, uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>(v >> (8 * i));
  out->append(b, sizeof(b));
}

inline void PutDouble(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

inline void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Bounds-checked cursor over a flat byte buffer.
struct Cursor {
  const unsigned char* p;
  size_t len;
  size_t pos = 0;

  size_t remaining() const { return len - pos; }

  bool GetU8(uint8_t* v) {
    if (pos + 1 > len) return false;
    *v = p[pos++];
    return true;
  }
  bool GetU32(uint32_t* v) {
    if (pos + 4 > len) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i)
      *v |= static_cast<uint32_t>(p[pos + i]) << (8 * i);
    pos += 4;
    return true;
  }
  bool GetU64(uint64_t* v) {
    if (pos + 8 > len) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i)
      *v |= static_cast<uint64_t>(p[pos + i]) << (8 * i);
    pos += 8;
    return true;
  }
  bool GetDouble(double* v) {
    uint64_t bits;
    if (!GetU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  bool GetString(std::string* s) {
    uint32_t n;
    if (!GetU32(&n)) return false;
    if (pos + n > len) return false;
    s->assign(reinterpret_cast<const char*>(p + pos), n);
    pos += n;
    return true;
  }
};

}  // namespace wire
}  // namespace recycledb
