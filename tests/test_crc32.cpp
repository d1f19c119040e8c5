// CRC-32 (src/util/crc32.hpp): the standard check value, agreement with a
// byte-at-a-time reference at every length and alignment the word loop can
// meet, and seed continuation across split buffers.
#include "src/util/crc32.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

namespace rds {
namespace {

std::uint32_t reference_crc32(std::span<const std::uint8_t> data,
                              std::uint32_t seed) {
  std::uint32_t c = ~seed;
  for (const std::uint8_t b : data) {
    c ^= b;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return ~c;
}

std::vector<std::uint8_t> sample_bytes(std::size_t size) {
  std::vector<std::uint8_t> b(size);
  std::uint32_t x = 0x12345678u;
  for (auto& v : b) {
    x = x * 1664525u + 1013904223u;
    v = static_cast<std::uint8_t>(x >> 24);
  }
  return b;
}

TEST(Crc32, CheckValue) {
  constexpr std::string_view kCheck = "123456789";
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(kCheck.data()), kCheck.size());
  EXPECT_EQ(crc32(bytes), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(Crc32, MatchesByteWiseReferenceAtEveryLengthAndOffset) {
  const std::vector<std::uint8_t> buffer = sample_bytes(300 + 16);
  for (const std::uint32_t seed : {0u, 0xDEADBEEFu}) {
    for (std::size_t offset = 0; offset < 16; ++offset) {
      for (std::size_t length = 0; length <= 300; ++length) {
        const std::span<const std::uint8_t> data(buffer.data() + offset,
                                                 length);
        ASSERT_EQ(crc32(data, seed), reference_crc32(data, seed))
            << "seed " << seed << " offset " << offset << " length "
            << length;
      }
    }
  }
}

TEST(Crc32, SeedContinuesAcrossSplitBuffers) {
  const std::vector<std::uint8_t> buffer = sample_bytes(4096);
  const std::span<const std::uint8_t> all(buffer);
  for (const std::size_t split : {0u, 1u, 15u, 16u, 17u, 1000u, 4096u}) {
    const std::uint32_t head = crc32(all.first(split));
    EXPECT_EQ(crc32(all.subspan(split), head), crc32(all)) << split;
  }
}

}  // namespace
}  // namespace rds
