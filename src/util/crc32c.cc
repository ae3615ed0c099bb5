#include "util/crc32c.h"

#include <cstring>

#include "util/crc32c_internal.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define IAMDB_CRC32C_X86 1
#endif

namespace iamdb::crc32c {

namespace {

// Table-driven software CRC32C (polynomial 0x1EDC6F41, reflected 0x82F63B78).
// Four-table slicing is the fallback for CPUs without SSE4.2 and other
// architectures, and the reference the hardware kernel is tested against.
struct Tables {
  uint32_t t[4][256];

  constexpr Tables() : t{} {
    constexpr uint32_t poly = 0x82F63B78u;
    for (uint32_t i = 0; i < 256; i++) {
      uint32_t crc = i;
      for (int j = 0; j < 8; j++) {
        crc = (crc >> 1) ^ ((crc & 1) ? poly : 0);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; i++) {
      t[1][i] = (t[0][i] >> 8) ^ t[0][t[0][i] & 0xFF];
      t[2][i] = (t[1][i] >> 8) ^ t[0][t[1][i] & 0xFF];
      t[3][i] = (t[2][i] >> 8) ^ t[0][t[2][i] & 0xFF];
    }
  }
};

constexpr Tables kTables{};

}  // namespace

namespace internal {

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(data);
  uint32_t crc = ~init_crc;
  // Process 4 bytes at a time.
  while (n >= 4) {
    crc ^= static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
    crc = kTables.t[3][crc & 0xFF] ^ kTables.t[2][(crc >> 8) & 0xFF] ^
          kTables.t[1][(crc >> 16) & 0xFF] ^ kTables.t[0][crc >> 24];
    p += 4;
    n -= 4;
  }
  while (n--) {
    crc = (crc >> 8) ^ kTables.t[0][(crc ^ *p++) & 0xFF];
  }
  return ~crc;
}

#if defined(IAMDB_CRC32C_X86)

bool HardwareAvailable() {
  // __builtin_cpu_init makes the query safe from static initializers that
  // run before libgcc's own CPU detection.
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

__attribute__((target("sse4.2"))) uint32_t ExtendHardware(uint32_t init_crc,
                                                          const char* data,
                                                          size_t n) {
  const char* p = data;
  uint64_t crc = ~init_crc;
  while (n >= 8) {
    uint64_t w = 0;
    memcpy(&w, p, 8);
    crc = _mm_crc32_u64(crc, w);
    p += 8;
    n -= 8;
  }
  while (n--) {
    crc = _mm_crc32_u8(static_cast<uint32_t>(crc), static_cast<uint8_t>(*p++));
  }
  return ~static_cast<uint32_t>(crc);
}

#else  // !IAMDB_CRC32C_X86

bool HardwareAvailable() { return false; }

// Never chosen by Extend here; defined so tests link on every platform.
uint32_t ExtendHardware(uint32_t init_crc, const char* data, size_t n) {
  return ExtendPortable(init_crc, data, n);
}

#endif  // IAMDB_CRC32C_X86

}  // namespace internal

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  // Chosen on first use, so a call from another file's static initializer
  // still gets a valid kernel.
  static const auto kernel = internal::HardwareAvailable()
                                 ? internal::ExtendHardware
                                 : internal::ExtendPortable;
  return kernel(init_crc, data, n);
}

}  // namespace iamdb::crc32c
