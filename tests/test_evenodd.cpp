#include "src/storage/erasure/evenodd.hpp"

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
    const std::vector<Bytes>& fragments) {
  return {fragments.begin(), fragments.end()};
}

TEST(EvenOdd, RejectsNonPrimes) {
  EXPECT_THROW(EvenOddScheme(0), std::invalid_argument);
  EXPECT_THROW(EvenOddScheme(1), std::invalid_argument);
  EXPECT_THROW(EvenOddScheme(2), std::invalid_argument);
  EXPECT_THROW(EvenOddScheme(4), std::invalid_argument);
  EXPECT_THROW(EvenOddScheme(9), std::invalid_argument);
  EXPECT_NO_THROW(EvenOddScheme(3));
  EXPECT_NO_THROW(EvenOddScheme(11));
}

TEST(EvenOdd, CountsAndName) {
  const EvenOddScheme e(5);
  EXPECT_EQ(e.fragment_count(), 7u);
  EXPECT_EQ(e.min_fragments(), 5u);
  EXPECT_EQ(e.prime(), 5u);
  EXPECT_EQ(e.name(), "evenodd(p=5)");
}

TEST(EvenOdd, RoundTripAllPresent) {
  for (const unsigned p : {3u, 5u, 7u}) {
    const EvenOddScheme e(p);
    const Bytes block = make_block(1000, p);
    const auto fragments = e.encode(block);
    ASSERT_EQ(fragments.size(), p + 2);
    EXPECT_EQ(e.decode(as_optionals(fragments), block.size()), block);
  }
}

TEST(EvenOdd, DataColumnsAreSystematic) {
  const EvenOddScheme e(3);
  Bytes block(3 * 2 * 4);  // p columns x (p-1) chunks x 4 bytes
  std::iota(block.begin(), block.end(), 0);
  const auto fragments = e.encode(block);
  // Column 0 holds the first 8 bytes verbatim.
  EXPECT_TRUE(
      std::equal(fragments[0].begin(), fragments[0].end(), block.begin()));
}

TEST(EvenOdd, ToleratesEverySingleErasure) {
  const EvenOddScheme e(5);
  const Bytes block = make_block(640, 42);
  const auto fragments = e.encode(block);
  for (unsigned lost = 0; lost < 7; ++lost) {
    auto damaged = as_optionals(fragments);
    damaged[lost].reset();
    EXPECT_EQ(e.decode(damaged, block.size()), block) << "lost " << lost;
    EXPECT_EQ(e.reconstruct_fragment(damaged, lost), fragments[lost])
        << "lost " << lost;
  }
}

TEST(EvenOdd, ToleratesEveryDoubleErasure) {
  // The headline property: any TWO column losses are recoverable, for
  // several primes -- this sweeps every kind of pair (two data, data + row
  // parity, data + diagonal parity, both parities).
  for (const unsigned p : {3u, 5u, 7u, 11u}) {
    const EvenOddScheme e(p);
    const Bytes block = make_block(33 * p, p * 7);
    const auto fragments = e.encode(block);
    for (unsigned i = 0; i < p + 2; ++i) {
      for (unsigned j = i + 1; j < p + 2; ++j) {
        auto damaged = as_optionals(fragments);
        damaged[i].reset();
        damaged[j].reset();
        ASSERT_EQ(e.decode(damaged, block.size()), block)
            << "p=" << p << " lost " << i << "," << j;
        ASSERT_EQ(e.reconstruct_fragment(damaged, i), fragments[i])
            << "p=" << p << " lost " << i << "," << j;
        ASSERT_EQ(e.reconstruct_fragment(damaged, j), fragments[j])
            << "p=" << p << " lost " << i << "," << j;
      }
    }
  }
}

TEST(EvenOdd, TripleErasureRejected) {
  const EvenOddScheme e(5);
  auto damaged = as_optionals(e.encode(make_block(100, 9)));
  damaged[0].reset();
  damaged[3].reset();
  damaged[6].reset();
  EXPECT_THROW((void)e.decode(damaged, 100), std::invalid_argument);
}

TEST(EvenOdd, OddBlockSizes) {
  const EvenOddScheme e(3);
  for (const std::size_t size : {0u, 1u, 5u, 6u, 7u, 100u}) {
    const Bytes block = make_block(size, size + 1);
    const auto fragments = e.encode(block);
    auto damaged = as_optionals(fragments);
    if (size > 0) {
      damaged[1].reset();
      damaged[4].reset();  // diagonal parity
    }
    EXPECT_EQ(e.decode(damaged, size), block) << "size " << size;
  }
}

TEST(EvenOdd, ParityPropertiesHold) {
  // Row parity: XOR over every row (across data + row-parity column) is 0.
  const unsigned p = 5;
  const EvenOddScheme e(p);
  const Bytes block = make_block(p * (p - 1) * 8, 13);
  const auto fragments = e.encode(block);
  const std::size_t chunk = fragments[0].size() / (p - 1);
  for (unsigned i = 0; i < p - 1; ++i) {
    for (std::size_t b = 0; b < chunk; ++b) {
      std::uint8_t x = 0;
      for (unsigned j = 0; j <= p; ++j) {
        x ^= fragments[j][i * chunk + b];
      }
      EXPECT_EQ(x, 0) << "row " << i << " byte " << b;
    }
  }
}

TEST(EvenOdd, Validation) {
  const EvenOddScheme e(3);
  const std::vector<std::optional<Bytes>> wrong_count(3);
  EXPECT_THROW((void)e.decode(wrong_count, 4), std::invalid_argument);
  std::vector<std::optional<Bytes>> mismatched(5);
  mismatched[0] = Bytes(4);
  mismatched[1] = Bytes(6);
  EXPECT_THROW((void)e.decode(mismatched, 8), std::invalid_argument);
  std::vector<std::optional<Bytes>> ok(5, Bytes(4));
  EXPECT_THROW((void)e.reconstruct_fragment(ok, 9), std::invalid_argument);
  const std::vector<std::optional<Bytes>> all_missing(5);
  EXPECT_THROW((void)e.decode(all_missing, 4), std::invalid_argument);
}

}  // namespace
}  // namespace rds
