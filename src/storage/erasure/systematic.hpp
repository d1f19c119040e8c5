// The decode shortcut every systematic erasure code shares.
//
// Reed-Solomon, EVENODD and RDP store the block itself in their first
// `data` fragments: the block is cut into `data` equal pieces, zero-padded
// at the end, and parity follows.  When all data fragments are present the
// block is their concatenation, so decoding needs no solving and no parity
// fragment at all -- which is what lets a read fetch only the data
// fragments (VirtualDisk reads stop at min_fragments()).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

namespace rds {

/// The first `block_size` bytes of data fragments 0..data-1, or nullopt when
/// one of them is missing (the codec then solves for it).  Throws
/// std::invalid_argument, naming `codec`, when `fragments` does not hold
/// `total` entries, present fragments differ in size, the size is not a
/// multiple of `unit`, or `block_size` exceeds the data fragments' bytes.
[[nodiscard]] std::optional<std::vector<std::uint8_t>> concat_data_fragments(
    std::span<const std::optional<std::vector<std::uint8_t>>> fragments,
    unsigned total, unsigned data, std::size_t unit, std::size_t block_size,
    std::string_view codec);

}  // namespace rds
