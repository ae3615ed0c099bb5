// CRC32C (Castagnoli) checksums guard against torn writes and bit rot in
// every WAL record, table block and MSTable footer, manifest entry, wire
// frame and SHARDMAP, and fingerprint the `iamdb.tree-digest` property.
// Extend runs the SSE4.2 crc32 instruction where the CPU has it and a
// table-driven loop elsewhere; both produce the same values.
#pragma once

#include <cstddef>
#include <cstdint>

namespace iamdb::crc32c {

// Returns the crc32c of concat(A, data[0,n-1]) where init_crc is the
// crc32c of some string A.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

// Checksums stored on disk are masked so that computing the CRC of a string
// that embeds its own CRC does not degenerate.
static constexpr uint32_t kMaskDelta = 0xa282ead8ul;

inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

inline uint32_t Unmask(uint32_t masked_crc) {
  uint32_t rot = masked_crc - kMaskDelta;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace iamdb::crc32c
