#include "src/util/hash.hpp"

#include <bit>
#include <cstring>

namespace rds {
namespace {

// XXH64's five primes (the xxHash specification, "XXH64 algorithm").
constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

/// The little-endian word at `p`: one load on little-endian targets, the
/// bytes assembled one by one elsewhere, with the same value.
template <typename Word>
Word load_le(const std::uint8_t* p) noexcept {
  Word w = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&w, p, sizeof w);
  } else {
    for (std::size_t i = 0; i < sizeof w; ++i) {
      w |= static_cast<Word>(p[i]) << (8 * i);
    }
  }
  return w;
}

/// One lane step: folds an 8-byte input word into an accumulator.
constexpr std::uint64_t lane_round(std::uint64_t acc,
                                   std::uint64_t input) noexcept {
  return std::rotl(acc + input * kPrime2, 31) * kPrime1;
}

/// Folds one of the four lane accumulators into the converged hash.
constexpr std::uint64_t merge_lane(std::uint64_t h,
                                   std::uint64_t acc) noexcept {
  return (h ^ lane_round(0, acc)) * kPrime1 + kPrime4;
}

}  // namespace

std::uint64_t content_fingerprint(std::span<const std::uint8_t> data) noexcept {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t h = 0;
  if (n >= 32) {
    // Four independent lanes take 8 bytes each per 32-byte stripe.
    std::uint64_t v1 = kPrime1 + kPrime2;
    std::uint64_t v2 = kPrime2;
    std::uint64_t v3 = 0;
    std::uint64_t v4 = 0 - kPrime1;
    for (; n >= 32; p += 32, n -= 32) {
      v1 = lane_round(v1, load_le<std::uint64_t>(p));
      v2 = lane_round(v2, load_le<std::uint64_t>(p + 8));
      v3 = lane_round(v3, load_le<std::uint64_t>(p + 16));
      v4 = lane_round(v4, load_le<std::uint64_t>(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = merge_lane(h, v1);
    h = merge_lane(h, v2);
    h = merge_lane(h, v3);
    h = merge_lane(h, v4);
  } else {
    h = kPrime5;
  }
  h += data.size();
  // The tail under 32 bytes: 8-byte words, then one 4-byte word, then bytes.
  for (; n >= 8; p += 8, n -= 8) {
    h = std::rotl(h ^ lane_round(0, load_le<std::uint64_t>(p)), 27) * kPrime1 +
        kPrime4;
  }
  if (n >= 4) {
    h = std::rotl(h ^ (load_le<std::uint32_t>(p) * kPrime1), 23) * kPrime2 +
        kPrime3;
    p += 4;
    n -= 4;
  }
  for (; n > 0; ++p, --n) {
    h = std::rotl(h ^ (std::uint64_t{*p} * kPrime5), 11) * kPrime1;
  }
  // Avalanche.
  h = (h ^ (h >> 33)) * kPrime2;
  h = (h ^ (h >> 29)) * kPrime3;
  return h ^ (h >> 32);
}

}  // namespace rds
