// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78): the
// checksum guarding on-disk pages against bit rot, torn writes and
// misdirected I/O. On an x86-64 CPU with SSE4.2 it runs the `crc32`
// instruction (eight bytes per instruction); everywhere else a portable
// slice-by-8 table implementation (eight bytes per step), which is also
// the reference the hardware path is tested against. The polynomial
// matches what RocksDB/LevelDB compute, so files stay verifiable by
// standard tooling.
#ifndef NETCLUS_COMMON_CRC32C_H_
#define NETCLUS_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace netclus {

/// Extends `crc` (the running checksum of preceding bytes, 0 for the first
/// chunk) with `data[0, n)` and returns the new running checksum.
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n);

/// Crc32cExtend's portable slice-by-8 path: the same checksum with no
/// CPU-specific instruction.
uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t n);

/// Checksum of a single buffer.
inline uint32_t Crc32c(const void* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

}  // namespace netclus

#endif  // NETCLUS_COMMON_CRC32C_H_
