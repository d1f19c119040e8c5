#include "src/storage/redundancy_scheme.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "src/util/random.hpp"

namespace rds {
namespace {

Bytes make_block(std::size_t size, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Bytes block(size);
  for (auto& b : block) b = static_cast<std::uint8_t>(rng());
  return block;
}

std::vector<std::optional<Bytes>> as_optionals(
    const std::vector<Bytes>& shards) {
  return {shards.begin(), shards.end()};
}

TEST(ReedSolomon, RoundTripAllPresent) {
  const ReedSolomonScheme rs(4, 2);
  const Bytes block = make_block(4096, 1);
  const auto shards = rs.encode(block);
  ASSERT_EQ(shards.size(), 6u);
  EXPECT_EQ(rs.decode(as_optionals(shards), block.size()), block);
}

TEST(ReedSolomon, SystematicDataPassThrough) {
  const ReedSolomonScheme rs(3, 2);
  Bytes block(300);
  std::iota(block.begin(), block.end(), 0);
  const auto shards = rs.encode(block);
  // Shard 0 is the first 100 bytes verbatim.
  EXPECT_TRUE(std::equal(shards[0].begin(), shards[0].end(), block.begin()));
}

TEST(ReedSolomon, ToleratesAnyPLosses) {
  const ReedSolomonScheme rs(4, 2);
  const Bytes block = make_block(1024, 2);
  const auto shards = rs.encode(block);
  // Every pair of losses must be recoverable.
  for (unsigned i = 0; i < 6; ++i) {
    for (unsigned j = i + 1; j < 6; ++j) {
      auto damaged = as_optionals(shards);
      damaged[i].reset();
      damaged[j].reset();
      EXPECT_EQ(rs.decode(damaged, block.size()), block)
          << "lost shards " << i << " and " << j;
    }
  }
}

TEST(ReedSolomon, FailsBeyondP) {
  const ReedSolomonScheme rs(4, 2);
  const Bytes block = make_block(256, 3);
  auto damaged = as_optionals(rs.encode(block));
  damaged[0].reset();
  damaged[1].reset();
  damaged[2].reset();
  EXPECT_THROW((void)rs.decode(damaged, block.size()), std::invalid_argument);
}

TEST(ReedSolomon, ReconstructSingleShard) {
  const ReedSolomonScheme rs(5, 3);
  const Bytes block = make_block(2000, 4);
  const auto shards = rs.encode(block);
  for (unsigned lost = 0; lost < 8; ++lost) {
    auto damaged = as_optionals(shards);
    damaged[lost].reset();
    EXPECT_EQ(rs.reconstruct_fragment(damaged, lost), shards[lost])
        << "shard " << lost;
  }
}

TEST(ReedSolomon, OddBlockSizesArePadded) {
  const ReedSolomonScheme rs(4, 1);
  for (const std::size_t size : {1u, 3u, 5u, 7u, 1001u}) {
    const Bytes block = make_block(size, size);
    const auto shards = rs.encode(block);
    const std::size_t expected_shard = (size + 3) / 4;
    for (const auto& s : shards) EXPECT_EQ(s.size(), expected_shard);
    EXPECT_EQ(rs.decode(as_optionals(shards), size), block);
  }
}

TEST(ReedSolomon, EmptyBlock) {
  const ReedSolomonScheme rs(2, 1);
  const Bytes block;
  const auto shards = rs.encode(block);
  EXPECT_EQ(rs.decode(as_optionals(shards), 0).size(), 0u);
}

TEST(ReedSolomon, ParityOnlyConfiguration) {
  // p == 0: pure striping, still round-trips.
  const ReedSolomonScheme rs(4, 0);
  const Bytes block = make_block(128, 9);
  const auto shards = rs.encode(block);
  ASSERT_EQ(shards.size(), 4u);
  EXPECT_EQ(rs.decode(as_optionals(shards), block.size()), block);
}

TEST(ReedSolomon, WideConfiguration) {
  // Stress the Cauchy construction with many shards.
  const ReedSolomonScheme rs(20, 12);
  const Bytes block = make_block(4000, 10);
  auto damaged = as_optionals(rs.encode(block));
  // Lose 12 scattered shards.
  for (unsigned i = 0; i < 32; i += 3) damaged[i].reset();
  EXPECT_EQ(rs.decode(damaged, block.size()), block);
}

TEST(ReedSolomon, RandomizedLossPatterns) {
  Xoshiro256 rng(77);
  const ReedSolomonScheme rs(6, 3);
  const Bytes block = make_block(600, 11);
  const auto shards = rs.encode(block);
  for (int trial = 0; trial < 50; ++trial) {
    auto damaged = as_optionals(shards);
    unsigned losses = 0;
    while (losses < 3) {
      const auto i = static_cast<unsigned>(rng.next_below(9));
      if (damaged[i]) {
        damaged[i].reset();
        ++losses;
      }
    }
    EXPECT_EQ(rs.decode(damaged, block.size()), block);
  }
}

TEST(ReedSolomon, Validation) {
  EXPECT_THROW(ReedSolomonScheme(0, 2), std::invalid_argument);
  EXPECT_THROW(ReedSolomonScheme(200, 100), std::invalid_argument);
  EXPECT_THROW(ReedSolomonScheme(1, 4294967295u), std::invalid_argument);
  const ReedSolomonScheme rs(2, 1);
  const std::vector<std::optional<Bytes>> wrong_count(2);
  EXPECT_THROW((void)rs.decode(wrong_count, 10), std::invalid_argument);
  std::vector<std::optional<Bytes>> mismatched(3);
  mismatched[0] = Bytes(4);
  mismatched[1] = Bytes(5);
  EXPECT_THROW((void)rs.decode(mismatched, 8), std::invalid_argument);
  std::vector<std::optional<Bytes>> ok(3);
  ok[0] = Bytes(4);
  ok[1] = Bytes(4);
  EXPECT_THROW((void)rs.reconstruct_fragment(ok, 9), std::invalid_argument);
}

}  // namespace
}  // namespace rds
