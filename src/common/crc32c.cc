#include "common/crc32c.h"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace netclus {

namespace {

// Reflected CRC32C polynomial.
constexpr uint32_t kPoly = 0x82F63B78u;

// Slice-by-8 tables: kTables[0] is the bytewise table, and kTables[k][b]
// is the CRC of byte b followed by k zero bytes, so eight table lookups
// fold eight input bytes at once.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    t[0][i] = crc;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr Tables kTables = MakeTables();

// The word loads below read the bytes in little-endian order, as the
// on-disk and wire formats store their integers.
static_assert(std::endian::native == std::endian::little,
              "Crc32cExtend assumes a little-endian host");

#if defined(__x86_64__)
// SSE4.2's crc32 instruction computes this very CRC, eight bytes per
// instruction. Compiled for SSE4.2 on its own, so the rest of the
// library keeps the baseline instruction set; Crc32cExtend calls it
// only on a CPU that has it.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t crc,
                                                        const uint8_t* p,
                                                        size_t n) {
  uint64_t c = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);  // the buffer has no alignment guarantee
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<uint32_t>(c);
  for (; n > 0; ++p, --n) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}

bool HasSse42() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}
#endif

}  // namespace

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n) {
#if defined(__x86_64__)
  static const bool kSse42 = HasSse42();
  if (kSse42) return ExtendSse42(crc, static_cast<const uint8_t*>(data), n);
#endif
  return Crc32cExtendPortable(crc, data, n);
}

uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  crc = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    // memcpy: the buffer has no alignment guarantee.
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
          kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
          kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = kTables[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace netclus
