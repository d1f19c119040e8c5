// CRC-32 (IEEE 802.3: reflected, polynomial 0xEDB88320, init/final ~0).
//
// The one integrity check of the storage stack (docs/persistence.md): the
// journal's per-record checksum and the CRC each stored Fragment carries.
// Unlike the 64-bit mixing hashes in util/hash.hpp -- built for placement
// experiments -- this is the standard checksum whose value for "123456789"
// is 0xCBF43926, so journal files stay verifiable by any external CRC tool.
// It detects every error burst of up to 32 bits.  Slicing-by-4 on
// little-endian targets, a byte loop elsewhere; the output is the same.
#pragma once

#include <cstdint>
#include <span>

namespace rds {

/// CRC-32 of `data`.  Pass a previous return value as `seed` to continue a
/// running checksum over concatenated buffers.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data,
                                  std::uint32_t seed = 0) noexcept;

}  // namespace rds
