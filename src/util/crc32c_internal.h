// The two CRC32C kernels behind crc32c::Extend, exposed so that tests and
// micro-benchmarks can compare them.  Everything else calls crc32c::Extend,
// which picks one of them once per process.
#pragma once

#include <cstddef>
#include <cstdint>

namespace iamdb::crc32c::internal {

// Table-driven slicing-by-4 kernel.  Runs on every CPU; the reference the
// hardware kernel is tested against.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);

// True when this CPU can run ExtendHardware (x86-64 with SSE4.2).
bool HardwareAvailable();

// Kernel built on the SSE4.2 crc32 instruction: three interleaved streams
// over rounds of three stripes, then one stream over the tail.  Call only
// when HardwareAvailable() is true.
uint32_t ExtendHardware(uint32_t init_crc, const char* data, size_t n);

// ExtendHardware's stripe size in bytes (a power of two, a multiple of 8).
inline constexpr size_t kStripe = 256;

}  // namespace iamdb::crc32c::internal
