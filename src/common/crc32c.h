// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78): the
// checksum guarding on-disk pages against bit rot, torn writes and
// misdirected I/O. Portable slice-by-8 table implementation (eight bytes
// per step; no CPU-specific instructions); the polynomial
// matches what SSE4.2 `crc32` instructions and RocksDB/LevelDB compute,
// so files stay verifiable by standard tooling.
#ifndef NETCLUS_COMMON_CRC32C_H_
#define NETCLUS_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace netclus {

/// Extends `crc` (the running checksum of preceding bytes, 0 for the first
/// chunk) with `data[0, n)` and returns the new running checksum.
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n);

/// Checksum of a single buffer.
inline uint32_t Crc32c(const void* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

}  // namespace netclus

#endif  // NETCLUS_COMMON_CRC32C_H_
