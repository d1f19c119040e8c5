// Arithmetic in GF(2^8) with the AES-adjacent polynomial x^8+x^4+x^3+x^2+1
// (0x11d), via log/exp tables.  Substrate of the one erasure-code engine,
// LinearCodeScheme (src/storage/redundancy_scheme.hpp).
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

/// Quotient a / b.  Precondition: b != 0 (asserted in debug builds;
/// returns 0 in release as a defined fallback).
[[nodiscard]] std::uint8_t div(std::uint8_t a, std::uint8_t b) noexcept;

/// Multiplicative inverse.  Precondition: a != 0.
[[nodiscard]] std::uint8_t inv(std::uint8_t a) noexcept;

/// a^e with a in the field and e a non-negative integer exponent.
[[nodiscard]] std::uint8_t pow(std::uint8_t a, unsigned e) noexcept;

/// dst[i] ^= c * src[i] for all i -- the row operation of both the encoder
/// and the Gaussian elimination.  Spans must have equal length.
void mul_add(std::span<std::uint8_t> dst, std::span<const std::uint8_t> src,
             std::uint8_t c) noexcept;

/// dst[i] = c * dst[i].
void scale(std::span<std::uint8_t> dst, std::uint8_t c) noexcept;

}  // namespace rds::gf256
