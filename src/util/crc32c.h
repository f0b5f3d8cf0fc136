// CRC32C (Castagnoli) checksums.
//
// Used as the integrity check on heap pages and record-file records. The
// Castagnoli polynomial (0x1EDC6F41) has better error-detection properties
// for storage payloads than the zlib CRC and matches what real systems
// (ext4, iSCSI, LevelDB/RocksDB, PostgreSQL 9.3+) use on disk.
//
// Implementation is chosen once per process, on first use: on x86-64 CPUs
// with SSE4.2 (checked through CPUID) the `crc32` instruction processes
// eight bytes per step; everywhere else a slice-by-4 table runs. Both
// compute the same polynomial bit for bit, so pages and records written on
// one machine verify on any other. The table path stays callable as
// Crc32cExtendPortable, the reference the hardware path is tested against.

#pragma once

#include <cstddef>
#include <cstdint>

namespace corgipile {

/// CRC32C of `data[0, len)`, through the runtime-selected implementation.
uint32_t Crc32c(const void* data, size_t len);

/// Extends a running CRC32C with more bytes. `crc` is the value returned by
/// a previous Crc32c/Crc32cExtend call.
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t len);

/// Crc32cExtend through the portable table path, whatever the CPU.
uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t len);

/// CRC value used on disk. The on-disk convention reserves 0 for "no
/// checksum" (legacy/unstamped data), so a computed CRC of 0 is mapped to 1.
inline uint32_t Crc32cForStorage(const void* data, size_t len) {
  const uint32_t c = Crc32c(data, len);
  return c == 0 ? 1u : c;
}

}  // namespace corgipile
