// Hashing utilities used for recycler-graph keys and hash joins.
#pragma once

#include <cstdint>
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

}  // namespace recycledb
