#include "src/storage/erasure/systematic.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace rds {

std::optional<std::vector<std::uint8_t>> concat_data_fragments(
    std::span<const std::optional<std::vector<std::uint8_t>>> fragments,
    unsigned total, unsigned data, std::size_t unit, std::size_t block_size,
    std::string_view codec) {
  const auto bad = [&](const char* why) {
    return std::invalid_argument(std::string(codec) + ": " + why);
  };
  if (fragments.size() != total) throw bad("wrong fragment count");
  for (unsigned j = 0; j < data; ++j) {
    if (!fragments[j]) return std::nullopt;
  }
  const std::size_t size = fragments[0]->size();
  for (const auto& f : fragments) {
    if (f && f->size() != size) throw bad("fragment size mismatch");
  }
  if (size % unit != 0) throw bad("fragment size not a multiple of its rows");
  if (block_size > size * data) throw bad("block size exceeds capacity");

  std::vector<std::uint8_t> block;
  block.reserve(block_size);
  for (unsigned j = 0; j < data && block.size() < block_size; ++j) {
    const std::size_t take = std::min(size, block_size - block.size());
    block.insert(block.end(), fragments[j]->begin(),
                 fragments[j]->begin() + static_cast<std::ptrdiff_t>(take));
  }
  return block;
}

}  // namespace rds
