//===- support/Hash.h - Stable content hashing ------------------*- C++ -*-===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// FNV-1a content hashing used by the incremental cache layer. Every cache
/// key in src/store derives from these helpers, so the constants and the
/// mixing order are part of the on-disk format: change them and every cache
/// entry silently (and correctly) misses, because the store also embeds a
/// format version.
///
/// Hashes here are over *content* — symbol text, token text, byte offsets —
/// never over pointers or interned ids, so a key computed at a different
/// `--jobs` count is byte-identical to one computed in the default
/// configuration.
///
//===----------------------------------------------------------------------===//

#ifndef MC_SUPPORT_HASH_H
#define MC_SUPPORT_HASH_H

#include <cstdint>
#include <string>
#include <string_view>

namespace mc {

inline constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

/// Mixes \p Bytes into the running FNV-1a hash \p H.
inline uint64_t fnv1a64(std::string_view Bytes, uint64_t H = kFnvOffsetBasis) {
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= kFnvPrime;
  }
  return H;
}

/// Mixes the little-endian bytes of \p V into \p H. Writing the integer out
/// byte-by-byte keeps the hash independent of host struct layout.
inline uint64_t fnv1a64(uint64_t V, uint64_t H = kFnvOffsetBasis) {
  for (int I = 0; I != 8; ++I) {
    H ^= (unsigned char)(V >> (I * 8));
    H *= kFnvPrime;
  }
  return H;
}

/// Renders \p H as a fixed-width lowercase hex string (file names, logs).
inline void appendHex64(uint64_t H, std::string &Out) {
  static const char Digits[] = "0123456789abcdef";
  for (int I = 15; I >= 0; --I)
    Out.push_back(Digits[(H >> (I * 4)) & 0xF]);
}

} // namespace mc

#endif // MC_SUPPORT_HASH_H
