#include "src/storage/erasure/gf256.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <vector>

#include "src/util/random.hpp"

namespace rds {
namespace {

using gf256::add;
using gf256::inv;
using gf256::mul;

TEST(GF256, AdditionIsXor) {
  EXPECT_EQ(add(0x53, 0xCA), 0x53 ^ 0xCA);
  EXPECT_EQ(add(7, 7), 0);
}

TEST(GF256, MultiplicativeIdentityAndZero) {
  for (unsigned a = 0; a < 256; ++a) {
    const auto x = static_cast<std::uint8_t>(a);
    EXPECT_EQ(mul(x, 1), x);
    EXPECT_EQ(mul(1, x), x);
    EXPECT_EQ(mul(x, 0), 0);
    EXPECT_EQ(mul(0, x), 0);
  }
}

TEST(GF256, KnownProducts) {
  // In GF(2^8)/0x11d: 0x8E * 2 = 0x11C, reduced by 0x11d -> 0x01.
  EXPECT_EQ(mul(0x8E, 0x02), 0x01);
  // 3 * 3 = (x+1)^2 = x^2 + 1 = 0x05 (no reduction needed).
  EXPECT_EQ(mul(0x03, 0x03), 0x05);
  // 0x80 * 2 = 0x100 -> xor 0x11d = 0x1d.
  EXPECT_EQ(mul(0x80, 0x02), 0x1D);
}

TEST(GF256, MultiplicationCommutesOnSample) {
  for (unsigned a = 1; a < 256; a += 7) {
    for (unsigned b = 1; b < 256; b += 11) {
      EXPECT_EQ(mul(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b)),
                mul(static_cast<std::uint8_t>(b), static_cast<std::uint8_t>(a)));
    }
  }
}

TEST(GF256, AssociativityOnSample) {
  for (unsigned a = 1; a < 256; a += 31) {
    for (unsigned b = 1; b < 256; b += 37) {
      for (unsigned c = 1; c < 256; c += 41) {
        const auto x = static_cast<std::uint8_t>(a);
        const auto y = static_cast<std::uint8_t>(b);
        const auto z = static_cast<std::uint8_t>(c);
        EXPECT_EQ(mul(mul(x, y), z), mul(x, mul(y, z)));
      }
    }
  }
}

TEST(GF256, DistributivityOnSample) {
  for (unsigned a = 1; a < 256; a += 13) {
    for (unsigned b = 0; b < 256; b += 17) {
      for (unsigned c = 0; c < 256; c += 19) {
        const auto x = static_cast<std::uint8_t>(a);
        const auto y = static_cast<std::uint8_t>(b);
        const auto z = static_cast<std::uint8_t>(c);
        EXPECT_EQ(mul(x, add(y, z)), add(mul(x, y), mul(x, z)));
      }
    }
  }
}

TEST(GF256, EveryNonZeroElementHasInverse) {
  for (unsigned a = 1; a < 256; ++a) {
    const auto x = static_cast<std::uint8_t>(a);
    EXPECT_EQ(mul(x, inv(x)), 1) << "a=" << a;
  }
}

TEST(GF256, DivisionInvertsMultiplication) {
  for (unsigned a = 0; a < 256; a += 5) {
    for (unsigned b = 1; b < 256; b += 9) {
      const auto x = static_cast<std::uint8_t>(a);
      const auto y = static_cast<std::uint8_t>(b);
      EXPECT_EQ(mul(mul(x, y), inv(y)), x);
    }
  }
}

TEST(GF256, GeneratorHasFullOrder) {
  // 2 generates the multiplicative group: 2^255 == 1 and 2^e != 1 earlier.
  std::uint8_t power = 1;
  for (unsigned e = 1; e < 255; ++e) {
    power = mul(power, 2);
    EXPECT_NE(power, 1) << "order divides " << e;
  }
  EXPECT_EQ(mul(power, 2), 1);
}

TEST(GF256, MulAddRowOperation) {
  std::vector<std::uint8_t> dst{1, 2, 3, 0};
  const std::vector<std::uint8_t> src{5, 0, 7, 9};
  gf256::mul_add(dst, src, 3);
  EXPECT_EQ(dst[0], add(1, mul(3, 5)));
  EXPECT_EQ(dst[1], 2);  // src 0 contributes nothing
  EXPECT_EQ(dst[2], add(3, mul(3, 7)));
  EXPECT_EQ(dst[3], mul(3, 9));
}

TEST(GF256, MulAddWithCoefficientOneIsXor) {
  std::vector<std::uint8_t> dst{1, 2, 3};
  const std::vector<std::uint8_t> src{4, 5, 6};
  gf256::mul_add(dst, src, 1);
  EXPECT_EQ(dst, (std::vector<std::uint8_t>{1 ^ 4, 2 ^ 5, 3 ^ 6}));
}

TEST(GF256, ScaleInPlace) {
  std::vector<std::uint8_t> v{1, 2, 0};
  gf256::scale(v, 2);
  EXPECT_EQ(v[0], mul(1, 2));
  EXPECT_EQ(v[1], mul(2, 2));
  EXPECT_EQ(v[2], 0);
}

// Every coefficient, every length 0-100 and a 4 KiB block, at source and
// destination offsets 0-31 inside larger buffers: mul_add and scale agree
// with the bytewise mul and change no byte outside their span.  Spans
// under 32 bytes, and the last bytes of longer ones, take the portable
// loop even on an AVX2 CPU, so both paths are checked.  The destination
// offset turns with the coefficient, so every (source, destination) offset
// pair occurs at every length.
TEST(GF256, MulAddAndScaleMatchMulAtEveryLengthAndOffset) {
  constexpr std::size_t kPad = 32;
  std::vector<std::size_t> lengths(101);
  for (std::size_t n = 0; n < lengths.size(); ++n) lengths[n] = n;
  lengths.push_back(4096);
  Xoshiro256 rng(27);
  std::vector<std::uint8_t> src(4096 + 2 * kPad);
  std::vector<std::uint8_t> init(src.size());
  for (auto& b : src) b = static_cast<std::uint8_t>(rng());
  for (auto& b : init) b = static_cast<std::uint8_t>(rng());
  // The index of the first byte where a and b differ, a.size() if none.
  const auto first_difference = [](const std::vector<std::uint8_t>& a,
                                   const std::vector<std::uint8_t>& b) {
    if (a == b) return a.size();
    std::size_t i = 0;
    while (a[i] == b[i]) ++i;
    return i;
  };
  std::vector<std::uint8_t> added;
  std::vector<std::uint8_t> scaled;
  std::vector<std::uint8_t> want_added;
  std::vector<std::uint8_t> want_scaled;
  for (unsigned c = 0; c < 256; ++c) {
    const auto coef = static_cast<std::uint8_t>(c);
    std::array<std::uint8_t, 256> row{};
    for (unsigned v = 0; v < 256; ++v) {
      row[v] = mul(coef, static_cast<std::uint8_t>(v));
    }
    const std::uint8_t* times_c = row.data();
    for (const std::size_t n : lengths) {
      for (std::size_t from = 0; from < kPad; ++from) {
        const std::size_t to = (from + c) % kPad;
        added.assign(init.begin(), init.begin() + n + 2 * kPad);
        scaled = added;
        want_added = added;
        want_scaled = added;
        const std::uint8_t* in = src.data() + from;
        std::uint8_t* want_sum = want_added.data() + to;
        std::uint8_t* want_product = want_scaled.data() + to;
        for (std::size_t i = 0; i < n; ++i) {
          want_sum[i] = add(want_sum[i], times_c[in[i]]);
          want_product[i] = times_c[want_product[i]];
        }
        gf256::mul_add(std::span(added).subspan(to, n),
                       std::span(src).subspan(from, n), coef);
        gf256::scale(std::span(scaled).subspan(to, n), coef);
        ASSERT_EQ(first_difference(added, want_added), added.size())
            << "mul_add c=" << c << " n=" << n << " src+" << from << " dst+"
            << to;
        ASSERT_EQ(first_difference(scaled, want_scaled), scaled.size())
            << "scale c=" << c << " n=" << n << " dst+" << to;
      }
    }
  }
}

}  // namespace
}  // namespace rds
