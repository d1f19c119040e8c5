// The persisted-byte codec (src/util/byte_codec.hpp): one layout over
// buffers and streams, and its rule for lengths.
#include "src/util/byte_codec.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

namespace rds {
namespace {

using Bytes = std::vector<std::uint8_t>;

template <typename Io>
void write_every_field(Io& io) {
  io.magic("RDSTEST1");
  io.field(std::uint8_t{0xAB});
  io.field(std::uint32_t{0x01020304});
  io.field(std::uint64_t{0x0102030405060708});
  io.field(std::string_view("name"));
  io.field(Bytes{9, 8, 7});
}

TEST(ByteCodec, BufferAndStreamCarryTheSameLittleEndianBytes) {
  Bytes buffer;
  ByteWriter to_buffer(buffer);
  write_every_field(to_buffer);
  std::ostringstream stream;
  ByteWriter to_stream(stream);
  write_every_field(to_stream);

  const std::string want = std::string("RDSTEST1") + "\xAB" +
                           "\x04\x03\x02\x01" +
                           "\x08\x07\x06\x05\x04\x03\x02\x01" +
                           std::string("\x04\0\0\0", 4) + "name" +
                           std::string("\x03\0\0\0\0\0\0\0", 8) + "\x09\x08\x07";
  EXPECT_EQ(std::string(buffer.begin(), buffer.end()), want);
  EXPECT_EQ(stream.str(), want);

  std::istringstream in(want);
  ByteReader from_stream(in);
  ByteReader from_buffer(buffer);
  for (ByteReader* r : {&from_stream, &from_buffer}) {
    EXPECT_EQ(r->magic(), "RDSTEST1");
    EXPECT_EQ(r->read<std::uint8_t>(), 0xAB);
    EXPECT_EQ(r->read<std::uint32_t>(), 0x01020304u);
    EXPECT_EQ(r->read<std::uint64_t>(), 0x0102030405060708u);
    EXPECT_EQ(r->read<std::string>(), "name");
    EXPECT_EQ(r->read<Bytes>(), (Bytes{9, 8, 7}));
    EXPECT_TRUE(r->at_end());
    EXPECT_THROW((void)r->read<std::uint8_t>(), TruncatedInput);
  }
}

// A reader takes every length as a claim: 2^40 claimed bytes over a
// three-byte input are truncated input, not a terabyte allocation.
TEST(ByteCodec, ReaderTreatsLengthsAsClaims) {
  Bytes claim;
  ByteWriter(claim).field(std::uint64_t{1} << 40);
  claim.insert(claim.end(), {1, 2, 3});
  ByteReader from_buffer(claim);
  EXPECT_THROW((void)from_buffer.read<Bytes>(), TruncatedInput);
  std::istringstream in(std::string(claim.begin(), claim.end()));
  ByteReader from_stream(in);
  EXPECT_THROW((void)from_stream.read<Bytes>(), TruncatedInput);
}

// A writer refuses a length its u32 prefix cannot hold instead of cutting
// it down, and writes nothing.
TEST(ByteCodec, WriterRefusesALengthItsPrefixCannotHold) {
  Bytes buffer;
  ByteWriter writer(buffer);
  EXPECT_THROW(writer.length32(std::size_t{1} << 32), std::length_error);
  EXPECT_TRUE(buffer.empty());
  writer.length32(0xFFFFFFFFu);
  EXPECT_EQ(buffer, (Bytes{0xFF, 0xFF, 0xFF, 0xFF}));
}

}  // namespace
}  // namespace rds
