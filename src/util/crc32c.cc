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

#if defined(IAMDB_CRC32C_X86)

// Why three streams: the crc32 instruction has a latency of three cycles
// but issues one per cycle, so a single dependent chain of them runs at a
// third of the instruction's throughput.  ExtendHardware instead runs three
// independent chains over three adjacent stripes of one buffer and joins
// them afterwards.  Since merges stopped copying records, block checksums
// are a larger share of a compaction's CPU time; a 4 KB block is five
// 768-byte rounds.
//
// Joining uses the linearity of the raw CRC register (no pre/post
// inversion): the register after stripes A then B equals
// shift_|B|(register after A) ^ (register after B started from zero), where
// shift_L feeds L zero bytes.  shift_L is a linear map on 32 bits, so it is
// four 256-entry lookup tables, one per byte of the register (Mark Adler's
// method; no carry-less multiply needed).
struct ShiftTables {
  uint32_t t[4][256];

  // Builds shift_L for L = `bytes`, a power of two.
  explicit constexpr ShiftTables(size_t bytes) : t{} {
    // Column b of an operator is the image of the register value 1 << b.
    // Feeding one zero byte is the table step `(crc >> 8) ^ t0[crc & 0xff]`.
    uint32_t op[32] = {};
    for (int b = 0; b < 32; b++) {
      uint32_t crc = 1u << b;
      op[b] = (crc >> 8) ^ kTables.t[0][crc & 0xFF];
    }
    // Square the one-byte operator until it feeds `bytes` zero bytes.
    for (size_t n = 1; n < bytes; n *= 2) {
      uint32_t squared[32] = {};
      for (int b = 0; b < 32; b++) squared[b] = Apply(op, op[b]);
      for (int b = 0; b < 32; b++) op[b] = squared[b];
    }
    for (uint32_t i = 0; i < 256; i++) {
      for (int byte = 0; byte < 4; byte++) {
        t[byte][i] = Apply(op, i << (8 * byte));
      }
    }
  }

  static constexpr uint32_t Apply(const uint32_t (&op)[32], uint32_t v) {
    uint32_t out = 0;
    for (int b = 0; v != 0; b++, v >>= 1) {
      if (v & 1) out ^= op[b];
    }
    return out;
  }

  uint32_t Shift(uint32_t crc) const {
    return t[0][crc & 0xFF] ^ t[1][(crc >> 8) & 0xFF] ^
           t[2][(crc >> 16) & 0xFF] ^ t[3][crc >> 24];
  }
};

constexpr size_t kStripe = internal::kStripe;
constexpr ShiftTables kStripeShift{kStripe};

// A crc32 register and the next byte to feed it.
struct Cursor {
  uint64_t crc;
  const char* p;
};

// Aligns the loads to 8 bytes, then runs three crc32 chains over the three
// stripes of each whole 3 * kStripe round before `end`, joining them after
// every round.  Kept out of line so that a short input, such as a wire
// frame, runs the single-chain loop alone.
__attribute__((target("sse4.2"), noinline)) Cursor ExtendRounds(
    Cursor c, const char* end) {
  while ((reinterpret_cast<uintptr_t>(c.p) & 7) != 0) {
    c.crc = _mm_crc32_u8(static_cast<uint32_t>(c.crc),
                         static_cast<uint8_t>(*c.p++));
  }
  while (static_cast<size_t>(end - c.p) >= 3 * kStripe) {
    uint64_t crc1 = 0, crc2 = 0;
    for (const char* stripe_end = c.p + kStripe; c.p < stripe_end;
         c.p += 8) {
      uint64_t w0, w1, w2;
      memcpy(&w0, c.p, 8);
      memcpy(&w1, c.p + kStripe, 8);
      memcpy(&w2, c.p + 2 * kStripe, 8);
      c.crc = _mm_crc32_u64(c.crc, w0);
      crc1 = _mm_crc32_u64(crc1, w1);
      crc2 = _mm_crc32_u64(crc2, w2);
    }
    c.crc = kStripeShift.Shift(static_cast<uint32_t>(c.crc)) ^ crc1;
    c.crc = kStripeShift.Shift(static_cast<uint32_t>(c.crc)) ^ crc2;
    c.p += 2 * kStripe;
  }
  return c;
}

#endif  // IAMDB_CRC32C_X86

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
  // Seven bytes of slack: aligning never leaves less than one round.
  if (n >= 3 * kStripe + 7) {
    const Cursor c = ExtendRounds(Cursor{crc, p}, p + n);
    n -= c.p - p;
    p = c.p;
    crc = c.crc;
  }
  // The tail, and any input shorter than one round, runs as one chain.
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
