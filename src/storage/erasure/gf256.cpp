#include "src/storage/erasure/gf256.hpp"

#include <algorithm>
#include <array>
#include <cassert>

namespace rds::gf256 {
namespace {

struct Tables {
  std::array<std::uint8_t, 256> log{};
  std::array<std::uint8_t, 512> exp{};  // doubled to skip a mod in mul

  constexpr Tables() {
    // Generator 2 of GF(2^8)/0x11d.
    unsigned x = 1;
    for (unsigned i = 0; i < 255; ++i) {
      exp[i] = static_cast<std::uint8_t>(x);
      log[x] = static_cast<std::uint8_t>(i);
      x <<= 1;
      if (x & 0x100) x ^= 0x11d;
    }
    for (unsigned i = 255; i < 512; ++i) exp[i] = exp[i - 255];
    log[0] = 0;  // undefined; callers must not rely on it
  }
};

constexpr Tables kT{};

}  // namespace

std::uint8_t mul(std::uint8_t a, std::uint8_t b) noexcept {
  if (a == 0 || b == 0) return 0;
  return kT.exp[static_cast<unsigned>(kT.log[a]) + kT.log[b]];
}

std::uint8_t div(std::uint8_t a, std::uint8_t b) noexcept {
  assert(b != 0 && "gf256::div by zero");
  if (a == 0 || b == 0) return 0;
  return kT.exp[static_cast<unsigned>(kT.log[a]) + 255 - kT.log[b]];
}

std::uint8_t inv(std::uint8_t a) noexcept {
  assert(a != 0 && "gf256::inv of zero");
  if (a == 0) return 0;
  return kT.exp[255 - kT.log[a]];
}

std::uint8_t pow(std::uint8_t a, unsigned e) noexcept {
  if (e == 0) return 1;
  if (a == 0) return 0;
  const unsigned l = (static_cast<unsigned>(kT.log[a]) * e) % 255;
  return kT.exp[l];
}

void mul_add(std::span<std::uint8_t> dst, std::span<const std::uint8_t> src,
             std::uint8_t c) noexcept {
  assert(dst.size() == src.size());
  if (c == 0) return;
  if (c == 1) {
    for (std::size_t i = 0; i < dst.size(); ++i) dst[i] ^= src[i];
    return;
  }
  const unsigned lc = kT.log[c];
  for (std::size_t i = 0; i < dst.size(); ++i) {
    const std::uint8_t s = src[i];
    if (s != 0) dst[i] ^= kT.exp[lc + kT.log[s]];
  }
}

void scale(std::span<std::uint8_t> dst, std::uint8_t c) noexcept {
  if (c == 1) return;
  if (c == 0) {
    std::fill(dst.begin(), dst.end(), 0);
    return;
  }
  const unsigned lc = kT.log[c];
  for (std::uint8_t& v : dst) {
    if (v != 0) v = kT.exp[lc + kT.log[v]];
  }
}

}  // namespace rds::gf256
