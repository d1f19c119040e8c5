// Pins the bytes of every erasure-code fragment.
//
// A fragment's bytes are what a v3 snapshot stores next to its CRC-32, so a
// codec that changes them -- even one whose own encoder and decoder still
// agree, say on a different diagonal parity -- could not read any volume
// written before it.  The round-trip tests cannot see that; this table can.
// Each row holds the CRC-32 of fragments 0..k-1 of one seeded block.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/storage/erasure/evenodd.hpp"
#include "src/storage/erasure/rdp.hpp"
#include "src/storage/redundancy_scheme.hpp"
#include "src/util/crc32.hpp"
#include "src/util/random.hpp"

namespace rds {
namespace {

struct Pinned {
  const char* scheme;  // its name()
  std::size_t block_size;
  std::vector<std::uint32_t> crcs;
};

const Pinned kPinned[] = {
    {"reed-solomon(4+2)", 0, {0x00000000, 0x00000000, 0x00000000, 0x00000000,
      0x00000000, 0x00000000}},
    {"reed-solomon(4+2)", 1, {0xda6fd2a0, 0xd202ef8d, 0xd202ef8d, 0xd202ef8d,
      0xbe047a60, 0x9c066cd9}},
    {"reed-solomon(4+2)", 1000, {0xd82ad00e, 0x6f7a6ca3, 0x4669bf9d, 0xb520afe2,
      0xda2a773d, 0xe6bb6542}},
    {"reed-solomon(4+2)", 4096, {0x799adc5f, 0xc81308d3, 0xb223134a, 0xda276ebc,
      0x5bd5215c, 0xe745cc36}},
    {"reed-solomon(8+3)", 0, {0x00000000, 0x00000000, 0x00000000, 0x00000000,
      0x00000000, 0x00000000, 0x00000000, 0x00000000, 0x00000000, 0x00000000,
      0x00000000}},
    {"reed-solomon(8+3)", 1, {0xda6fd2a0, 0xd202ef8d, 0xd202ef8d, 0xd202ef8d,
      0xd202ef8d, 0xd202ef8d, 0xd202ef8d, 0xd202ef8d, 0x09b9265b, 0xc303e4d1,
      0xf500ae27}},
    {"reed-solomon(8+3)", 1000, {0xca8d9b77, 0x18ca4cd8, 0x6d159fd5, 0x1d103489,
      0x7031cc32, 0x66166753, 0xde88ba8a, 0xb9516512, 0x63d01df4, 0x4ffc3740,
      0xb209862f}},
    {"reed-solomon(8+3)", 4096, {0x3d3b69df, 0x7f4a80a5, 0x70dd97ab, 0x70a42bed,
      0xd7375fc2, 0xeff579f9, 0x04259d01, 0x0d24e3ad, 0x31cd6b2a, 0x86eba720,
      0x2cc317bf}},
    {"evenodd(p=3)", 0, {0x00000000, 0x00000000, 0x00000000, 0x00000000,
      0x00000000}},
    {"evenodd(p=3)", 1, {0x040e23b7, 0x41d912ff, 0x41d912ff, 0x040e23b7,
      0x040e23b7}},
    {"evenodd(p=3)", 1000, {0x882a7f7f, 0xc3c7915d, 0xc07babc8, 0x8b9645ea,
      0x7cd59f0c}},
    {"evenodd(p=3)", 4096, {0x2bda3f5d, 0x63c28712, 0x9c389eb2, 0xd42026fd,
      0xb32f240c}},
    {"evenodd(p=5)", 0, {0x00000000, 0x00000000, 0x00000000, 0x00000000,
      0x00000000, 0x00000000, 0x00000000}},
    {"evenodd(p=5)", 1, {0x483a5ffc, 0x2144df1c, 0x2144df1c, 0x2144df1c,
      0x2144df1c, 0x483a5ffc, 0x483a5ffc}},
    {"evenodd(p=5)", 1000, {0x980ea0ac, 0x87170003, 0x1225123e, 0x92ea0f43,
      0xe6ce9588, 0x7918285a, 0x1fd9ff3f}},
    {"evenodd(p=5)", 4096, {0xf9682932, 0xcbf633f8, 0xb9e99ce5, 0xce2dbd28,
      0x17868764, 0x52dcbc63, 0x26b5147b}},
    {"evenodd(p=7)", 0, {0x00000000, 0x00000000, 0x00000000, 0x00000000,
      0x00000000, 0x00000000, 0x00000000, 0x00000000, 0x00000000}},
    {"evenodd(p=7)", 1, {0x0204b811, 0xb1c2a1a3, 0xb1c2a1a3, 0xb1c2a1a3,
      0xb1c2a1a3, 0xb1c2a1a3, 0xb1c2a1a3, 0x0204b811, 0x0204b811}},
    {"evenodd(p=7)", 1000, {0x14d815e9, 0x8a812b12, 0x4d32c705, 0x1924fa7b,
      0x5cda113a, 0x99c51d00, 0x19131581, 0x16431a3e, 0xec6e7496}},
    {"evenodd(p=7)", 4096, {0xdc43dd55, 0x07962f85, 0xff4ae790, 0xf761b697,
      0x8e470b18, 0xeba0560e, 0x0bda3a3a, 0xbdc3c4fb, 0x2fb9a13e}},
    {"rdp(p=5)", 0, {0x00000000, 0x00000000, 0x00000000, 0x00000000, 0x00000000,
      0x00000000}},
    {"rdp(p=5)", 1, {0x483a5ffc, 0x2144df1c, 0x2144df1c, 0x2144df1c, 0x483a5ffc,
      0x483a5ffc}},
    {"rdp(p=5)", 1000, {0xf1c23344, 0xb1db1064, 0x567ae744, 0xdc067e0f,
      0x6c06e39a, 0xb80cd574}},
    {"rdp(p=5)", 4096, {0x799adc5f, 0xc81308d3, 0xb223134a, 0xda276ebc,
      0x36380654, 0x6a29eec3}},
    {"rdp(p=7)", 0, {0x00000000, 0x00000000, 0x00000000, 0x00000000, 0x00000000,
      0x00000000, 0x00000000, 0x00000000}},
    {"rdp(p=7)", 1, {0x0204b811, 0xb1c2a1a3, 0xb1c2a1a3, 0xb1c2a1a3, 0xb1c2a1a3,
      0xb1c2a1a3, 0x0204b811, 0x0204b811}},
    {"rdp(p=7)", 1000, {0x3f8e1009, 0xa2901f11, 0x45ff1be9, 0xe26d32f3,
      0xc181160d, 0xd3274b70, 0x26c347eb, 0xc32e153b}},
    {"rdp(p=7)", 4096, {0xad6593b3, 0x16d257c5, 0x4125c552, 0xc862d994,
      0xe07b62fb, 0xa3cc8b39, 0x92cb22ab, 0x52a4927e}},
};

Bytes seeded_block(std::size_t size) {
  Xoshiro256 rng(0xC0DEC000 + size);
  Bytes block(size);
  for (auto& b : block) b = static_cast<std::uint8_t>(rng());
  return block;
}

TEST(CodecDigest, EveryFragmentMatchesItsPinnedCrc) {
  const std::vector<std::shared_ptr<RedundancyScheme>> schemes = {
      std::make_shared<ReedSolomonScheme>(4, 2),
      std::make_shared<ReedSolomonScheme>(8, 3),
      std::make_shared<EvenOddScheme>(3),
      std::make_shared<EvenOddScheme>(5),
      std::make_shared<EvenOddScheme>(7),
      std::make_shared<RdpScheme>(5),
      std::make_shared<RdpScheme>(7)};
  std::size_t row = 0;
  for (const auto& scheme : schemes) {
    for (const std::size_t size : {0u, 1u, 1000u, 4096u}) {
      const std::vector<Bytes> fragments = scheme->encode(seeded_block(size));
      std::string actual;
      for (const Bytes& f : fragments) {
        char hex[16];
        std::snprintf(hex, sizeof hex, " 0x%08x,", crc32(f));
        actual += hex;
      }
      SCOPED_TRACE(scheme->name() + " block of " + std::to_string(size) +
                   " bytes; actual CRCs:" + actual);
      ASSERT_LT(row, std::size(kPinned));
      const Pinned& pinned = kPinned[row++];
      ASSERT_EQ(pinned.scheme, scheme->name());
      ASSERT_EQ(pinned.block_size, size);
      ASSERT_EQ(fragments.size(), pinned.crcs.size());
      for (std::size_t j = 0; j < fragments.size(); ++j) {
        EXPECT_EQ(crc32(fragments[j]), pinned.crcs[j]) << "fragment " << j;
      }
    }
  }
  EXPECT_EQ(row, std::size(kPinned));
}

}  // namespace
}  // namespace rds
