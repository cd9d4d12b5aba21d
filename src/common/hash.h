// Hashing utilities used for recycler-graph keys, hash joins and the
// spill-file checksum.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace recycledb {

/// 64-bit FNV-1a over a byte range. Stable across runs and platforms; used
/// for recycler-graph hash keys so fingerprints are deterministic.
inline uint64_t Fnv1a(const void* data, size_t len, uint64_t seed = 0xcbf29ce484222325ULL) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline uint64_t HashString(std::string_view s, uint64_t seed = 0xcbf29ce484222325ULL) {
  return Fnv1a(s.data(), s.size(), seed);
}

/// Mixes a 64-bit value (finalizer from MurmurHash3).
inline uint64_t HashMix(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

/// Combines two hashes (boost-style).
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
}

/// Streaming 64-bit checksum: XXH64 with seed 0. Four 64-bit lanes
/// take one word each per 32-byte stripe (xxHash64's round), then merge
/// and avalanche; the total length goes into the final mix. A carry
/// buffer holds a partial stripe between Update calls, so the digest
/// depends only on the bytes, not on how they were split into chunks.
/// Words are read in host byte order (little-endian on every supported
/// target). Spill files use it: it runs over every byte written and
/// every byte loaded, so it reads words where Fnv1a reads bytes.
class StreamChecksum {
 public:
  void Update(const void* data, size_t len) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    total_ += len;
    if (carry_len_ > 0) {
      const size_t room = kStripe - carry_len_;
      const size_t take = len < room ? len : room;
      std::memcpy(carry_ + carry_len_, p, take);
      carry_len_ += take;
      p += take;
      len -= take;
      if (carry_len_ < kStripe) return;
      Stripe(carry_);
      carry_len_ = 0;
    }
    for (; len >= kStripe; p += kStripe, len -= kStripe) Stripe(p);
    if (len > 0) std::memcpy(carry_, p, len);
    carry_len_ = len;
  }

  /// The checksum of every byte passed to Update so far.
  uint64_t Digest() const {
    uint64_t h;
    if (total_ >= kStripe) {
      h = Rotl(v_[0], 1) + Rotl(v_[1], 7) + Rotl(v_[2], 12) + Rotl(v_[3], 18);
      for (uint64_t v : v_) h = (h ^ Round(0, v)) * kP1 + kP4;
    } else {
      h = kP5;
    }
    h += total_;
    const unsigned char* p = carry_;
    size_t len = carry_len_;
    for (; len >= 8; p += 8, len -= 8) {
      h = Rotl(h ^ Round(0, Load64(p)), 27) * kP1 + kP4;
    }
    if (len >= 4) {
      uint32_t w;
      std::memcpy(&w, p, 4);
      h = Rotl(h ^ (uint64_t{w} * kP1), 23) * kP2 + kP3;
      p += 4;
      len -= 4;
    }
    for (; len > 0; ++p, --len) h = Rotl(h ^ (*p * kP5), 11) * kP1;
    h ^= h >> 33;
    h *= kP2;
    h ^= h >> 29;
    h *= kP3;
    h ^= h >> 32;
    return h;
  }

 private:
  static constexpr size_t kStripe = 32;
  static constexpr uint64_t kP1 = 0x9e3779b185ebca87ULL;
  static constexpr uint64_t kP2 = 0xc2b2ae3d27d4eb4fULL;
  static constexpr uint64_t kP3 = 0x165667b19e3779f9ULL;
  static constexpr uint64_t kP4 = 0x85ebca77c2b2ae63ULL;
  static constexpr uint64_t kP5 = 0x27d4eb2f165667c5ULL;

  static uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }
  static uint64_t Round(uint64_t acc, uint64_t word) {
    return Rotl(acc + word * kP2, 31) * kP1;
  }
  static uint64_t Load64(const unsigned char* p) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    return w;
  }
  void Stripe(const unsigned char* p) {
    for (int i = 0; i < 4; ++i) v_[i] = Round(v_[i], Load64(p + 8 * i));
  }

  uint64_t v_[4] = {kP1 + kP2, kP2, 0, 0 - kP1};
  uint64_t total_ = 0;
  unsigned char carry_[kStripe] = {};
  size_t carry_len_ = 0;
};

}  // namespace recycledb
