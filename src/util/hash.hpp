// Deterministic 64-bit hashing primitives, and the content fingerprint of
// journaled file puts.
//
// Every randomized placement decision in this library is derived from a
// *stable* hash of (ball address, device uid, copy level [, salt]) rather
// than from mutable RNG state.  This is the property the paper's adaptivity
// proofs rest on: the random experiment for a given (ball, bin) pair must
// not change when unrelated devices enter or leave the system.
#pragma once

#include <cstdint>
#include <span>

namespace rds {

/// SplitMix64 finalizer (Stafford variant 13).  Full-avalanche bijection on
/// 64-bit values; the workhorse mixer for everything below.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Combine two 64-bit words into one hash.  Not commutative.
[[nodiscard]] constexpr std::uint64_t hash_combine(std::uint64_t a,
                                                   std::uint64_t b) noexcept {
  // Rotate-xor then remix; keeps full entropy from both inputs.
  return mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

/// Hash of a (ball address, device uid) pair.
[[nodiscard]] constexpr std::uint64_t hash2(std::uint64_t address,
                                            std::uint64_t uid) noexcept {
  return hash_combine(mix64(address), mix64(uid ^ 0xa5a5a5a5a5a5a5a5ULL));
}

/// Hash of a (ball address, device uid, copy level) triple.
[[nodiscard]] constexpr std::uint64_t hash3(std::uint64_t address,
                                            std::uint64_t uid,
                                            std::uint64_t level) noexcept {
  return hash_combine(hash2(address, uid), mix64(level + 0x1234567898765431ULL));
}

/// XXH64 with seed 0: the 64-bit content fingerprint a journal file-put
/// record carries (docs/persistence.md).  A published algorithm, so any
/// xxHash tool can check a stored value; the empty input gives
/// 0xEF46DB3751D8E999.  Collisions are 2^-64 events.
[[nodiscard]] std::uint64_t content_fingerprint(
    std::span<const std::uint8_t> data) noexcept;

/// Map a 64-bit hash to a double uniform in [0, 1).  Uses the top 53 bits so
/// the result is an exact dyadic rational and never 1.0.
[[nodiscard]] constexpr double to_unit(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Uniform [0,1) value for a (ball, device) experiment.
[[nodiscard]] constexpr double unit_value(std::uint64_t address,
                                          std::uint64_t uid) noexcept {
  return to_unit(hash2(address, uid));
}

/// Uniform [0,1) value for a (ball, device, level) experiment.
[[nodiscard]] constexpr double unit_value(std::uint64_t address,
                                          std::uint64_t uid,
                                          std::uint64_t level) noexcept {
  return to_unit(hash3(address, uid, level));
}

}  // namespace rds
