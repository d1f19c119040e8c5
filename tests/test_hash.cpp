#include "src/util/hash.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <unordered_set>
#include <utility>
#include <vector>

namespace rds {
namespace {

TEST(Hash, Mix64IsDeterministic) {
  EXPECT_EQ(mix64(0), mix64(0));
  EXPECT_EQ(mix64(12345), mix64(12345));
}

TEST(Hash, Mix64IsInjectiveOnSample) {
  // mix64 is a bijection; any collision on distinct inputs is a bug.
  std::unordered_set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 100'000; ++i) {
    EXPECT_TRUE(seen.insert(mix64(i)).second) << "collision at " << i;
  }
}

TEST(Hash, Mix64Avalanche) {
  // Flipping one input bit should flip ~32 of 64 output bits on average.
  double total_flips = 0.0;
  int trials = 0;
  for (std::uint64_t x = 1; x < 2'000; x += 13) {
    for (int bit = 0; bit < 64; bit += 7) {
      const std::uint64_t d = mix64(x) ^ mix64(x ^ (1ULL << bit));
      total_flips += static_cast<double>(__builtin_popcountll(d));
      ++trials;
    }
  }
  const double avg = total_flips / trials;
  EXPECT_NEAR(avg, 32.0, 1.0);
}

TEST(Hash, ToUnitRange) {
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    const double u = to_unit(mix64(i));
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  EXPECT_EQ(to_unit(0), 0.0);
  EXPECT_LT(to_unit(~0ULL), 1.0);
}

TEST(Hash, ToUnitIsUniform) {
  double sum = 0.0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) {
    sum += to_unit(mix64(static_cast<std::uint64_t>(i)));
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Hash, Hash2DependsOnBothArguments) {
  EXPECT_NE(hash2(1, 2), hash2(2, 1));
  EXPECT_NE(hash2(1, 2), hash2(1, 3));
  EXPECT_NE(hash2(1, 2), hash2(7, 2));
}

TEST(Hash, Hash3DependsOnLevel) {
  EXPECT_NE(hash3(1, 2, 0), hash3(1, 2, 1));
  EXPECT_NE(hash3(1, 2, 1), hash3(1, 2, 2));
  EXPECT_EQ(hash3(1, 2, 3), hash3(1, 2, 3));
}

// Byte i of the pattern the fingerprint tests hash: i * 31 + 7.
std::vector<std::uint8_t> fingerprint_pattern(std::size_t size) {
  std::vector<std::uint8_t> b(size);
  for (std::size_t i = 0; i < size; ++i) {
    b[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  return b;
}

// XXH64 with seed 0, as the reference implementation (xxHash 0.8.1's
// XXH64) computes it for the pattern above.
TEST(Hash, ContentFingerprintKnownAnswers) {
  EXPECT_EQ(content_fingerprint({}), 0xEF46DB3751D8E999ULL);
  const std::vector<std::uint8_t> data = fingerprint_pattern(4096);
  const std::pair<std::size_t, std::uint64_t> known[] = {
      {1, 0xA96C7F0CE858BBB7ULL},   {3, 0x56E6957632A487F9ULL},
      {4, 0xC60D15B1E3FF8F04ULL},   {7, 0xAFBEFC3D6C6F9A8EULL},
      {8, 0x3DA5C7AA269683E0ULL},   {31, 0x4A74F3A1A39AD4A1ULL},
      {32, 0x8D57D6A4671CC43DULL},  {33, 0x62C9FD21ED857664ULL},
      {100, 0xEFA0AD2D3E70C151ULL}, {4096, 0xE21174BE82DC78D9ULL},
  };
  for (const auto& [size, want] : known) {
    EXPECT_EQ(content_fingerprint({data.data(), size}), want) << size;
  }
}

// XXH64 (seed 0) written out plainly: every word assembled from its
// little-endian bytes, no loads of unaligned words.
std::uint64_t reference_xxh64(const std::uint8_t* p, std::size_t n) {
  constexpr std::uint64_t k1 = 0x9E3779B185EBCA87ULL;
  constexpr std::uint64_t k2 = 0xC2B2AE3D27D4EB4FULL;
  constexpr std::uint64_t k3 = 0x165667B19E3779F9ULL;
  constexpr std::uint64_t k4 = 0x85EBCA77C2B2AE63ULL;
  constexpr std::uint64_t k5 = 0x27D4EB2F165667C5ULL;
  const auto word = [](const std::uint8_t* q, int bytes) {
    std::uint64_t w = 0;
    for (int i = bytes - 1; i >= 0; --i) w = (w << 8) | q[i];
    return w;
  };
  const auto round = [&](std::uint64_t acc, std::uint64_t input) {
    acc += input * k2;
    acc = (acc << 31) | (acc >> 33);
    return acc * k1;
  };
  const auto rotl = [](std::uint64_t x, int r) {
    return (x << r) | (x >> (64 - r));
  };
  const std::size_t len = n;
  std::uint64_t h;
  if (n >= 32) {
    std::uint64_t v[4] = {k1 + k2, k2, 0, 0 - k1};
    for (; n >= 32; p += 32, n -= 32) {
      for (int lane = 0; lane < 4; ++lane) {
        v[lane] = round(v[lane], word(p + 8 * lane, 8));
      }
    }
    h = rotl(v[0], 1) + rotl(v[1], 7) + rotl(v[2], 12) + rotl(v[3], 18);
    for (const std::uint64_t lane : v) {
      h ^= round(0, lane);
      h = h * k1 + k4;
    }
  } else {
    h = k5;
  }
  h += len;
  for (; n >= 8; p += 8, n -= 8) {
    h ^= round(0, word(p, 8));
    h = rotl(h, 27) * k1 + k4;
  }
  if (n >= 4) {
    h ^= word(p, 4) * k1;
    h = rotl(h, 23) * k2 + k3;
    p += 4;
    n -= 4;
  }
  for (; n > 0; ++p, --n) {
    h ^= *p * k5;
    h = rotl(h, 11) * k1;
  }
  h ^= h >> 33;
  h *= k2;
  h ^= h >> 29;
  h *= k3;
  h ^= h >> 32;
  return h;
}

// Every tail shape (lengths 0-100) and the 4 KiB block, at every
// alignment of the first word.
TEST(Hash, ContentFingerprintMatchesReferenceAtEveryLengthAndOffset) {
  const std::vector<std::uint8_t> data = fingerprint_pattern(4096 + 8);
  std::vector<std::size_t> sizes(101);
  for (std::size_t i = 0; i < sizes.size(); ++i) sizes[i] = i;
  sizes.push_back(4096);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (const std::size_t size : sizes) {
      const std::uint8_t* p = data.data() + offset;
      EXPECT_EQ(content_fingerprint({p, size}), reference_xxh64(p, size))
          << "size " << size << " offset " << offset;
    }
  }
}

TEST(Hash, UnitValueStableUnderUnrelatedChanges) {
  // The (address, uid, level) experiment must not depend on anything else --
  // the adaptivity analysis rests on this.  Trivially true by construction;
  // pin it so a refactor cannot silently break it.
  const double v = unit_value(42, 7, 2);
  EXPECT_EQ(v, unit_value(42, 7, 2));
  EXPECT_NE(v, unit_value(43, 7, 2));
  EXPECT_NE(v, unit_value(42, 8, 2));
  EXPECT_NE(v, unit_value(42, 7, 3));
}

TEST(Hash, PairwiseUnitValuesUncorrelated) {
  // Correlation between u(a, x) and u(a, y) over addresses a should vanish.
  double sx = 0, sy = 0, sxy = 0, sxx = 0, syy = 0;
  constexpr int kN = 50'000;
  for (int a = 0; a < kN; ++a) {
    const double x = unit_value(static_cast<std::uint64_t>(a), 1);
    const double y = unit_value(static_cast<std::uint64_t>(a), 2);
    sx += x;
    sy += y;
    sxy += x * y;
    sxx += x * x;
    syy += y * y;
  }
  const double n = kN;
  const double cov = sxy / n - (sx / n) * (sy / n);
  const double vx = sxx / n - (sx / n) * (sx / n);
  const double vy = syy / n - (sy / n) * (sy / n);
  const double corr = cov / std::sqrt(vx * vy);
  EXPECT_LT(std::abs(corr), 0.02);
}

}  // namespace
}  // namespace rds
