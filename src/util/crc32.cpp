#include "src/util/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace rds {
namespace {

// kCrcTables[0] is the classic byte-at-a-time table; kCrcTables[s][b] is
// the CRC contribution of byte b followed by s zero bytes, which lets the
// main loop fold 4 input bytes with 4 independent lookups.
//
// Four tables (4 KiB), not eight or sixteen: a step issues five loads and
// waits for them, so the loop is bound by load latency, which a
// co-scheduled thread hardly moves.  Slicing-by-16 is about three times as
// fast alone, but its twenty loads a step compete for the load ports and
// L1 that thread shares, so its speed swings with the host's load
// (docs/persistence.md, "One checksum").
using CrcTables = std::array<std::array<std::uint32_t, 256>, 4>;

constexpr CrcTables kCrcTables = [] {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t s = 1; s < tables.size(); ++s) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[s - 1][i];
      tables[s][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}();

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data,
                    std::uint32_t seed) noexcept {
  const auto& t = kCrcTables;
  std::uint32_t c = ~seed;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  // Slicing-by-4 reads the input as little-endian words; other targets
  // take the byte loop below for every byte, with the same result.
  if constexpr (std::endian::native == std::endian::little) {
    for (; n >= 4; p += 4, n -= 4) {
      std::uint32_t w = 0;
      std::memcpy(&w, p, sizeof w);
      w ^= c;
      c = t[3][w & 0xFFu] ^ t[2][(w >> 8) & 0xFFu] ^
          t[1][(w >> 16) & 0xFFu] ^ t[0][w >> 24];
    }
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return ~c;
}

}  // namespace rds
