// Arithmetic in GF(2^8) with the AES-adjacent polynomial x^8+x^4+x^3+x^2+1
// (0x11d).  Substrate of the one erasure-code engine, LinearCodeScheme
// (src/storage/redundancy_scheme.hpp).
//
// mul and inv look up log/exp tables.  The bulk kernel, mul_add (and scale,
// which is mul_add of a span on itself), multiplies through split-nibble
// product tables built from them at compile time: for each coefficient c,
// the 16 products c*x and the 16 products c*(x << 4), x < 16, so
// c*s = lo[s & 15] ^ hi[s >> 4] (8 KiB in all).  On x86-64 CPUs with AVX2,
// detected once at run time, it applies the tables 32 bytes per step with
// a byte shuffle; one portable table loop runs everywhere else and
// finishes the last bytes of a span.  Both give byte-identical results.
#pragma once

#include <cstdint>
#include <span>

namespace rds::gf256 {

/// Addition and subtraction coincide: bytewise XOR.
[[nodiscard]] constexpr std::uint8_t add(std::uint8_t a,
                                         std::uint8_t b) noexcept {
  return a ^ b;
}

/// Product in GF(2^8).
[[nodiscard]] std::uint8_t mul(std::uint8_t a, std::uint8_t b) noexcept;

/// Multiplicative inverse.  Precondition: a != 0.
[[nodiscard]] std::uint8_t inv(std::uint8_t a) noexcept;

/// dst[i] ^= c * src[i] for all i -- the row operation of both the encoder
/// and the Gaussian elimination.  Spans must have equal length.
void mul_add(std::span<std::uint8_t> dst, std::span<const std::uint8_t> src,
             std::uint8_t c) noexcept;

/// dst[i] = c * dst[i].
void scale(std::span<std::uint8_t> dst, std::uint8_t c) noexcept;

}  // namespace rds::gf256
