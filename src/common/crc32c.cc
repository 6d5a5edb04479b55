#include "common/crc32c.h"

#include <array>
#include <bit>
#include <cstring>

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

}  // namespace

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n) {
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
