#include "src/storage/erasure/reed_solomon.hpp"

#include <stdexcept>

#include "src/storage/erasure/gf256.hpp"
#include "src/storage/erasure/systematic.hpp"

namespace rds {
namespace {

/// Invert a square matrix over GF(2^8) by Gauss-Jordan elimination.
/// `m` is row-major n x n.  Throws std::logic_error if singular (cannot
/// happen for [I; Cauchy] sub-matrices; kept as an internal invariant check).
std::vector<std::uint8_t> invert_matrix(std::vector<std::uint8_t> m,
                                        std::size_t n) {
  std::vector<std::uint8_t> inv(n * n, 0);
  for (std::size_t i = 0; i < n; ++i) inv[i * n + i] = 1;

  for (std::size_t col = 0; col < n; ++col) {
    // Pivot search.
    std::size_t pivot = col;
    while (pivot < n && m[pivot * n + col] == 0) ++pivot;
    if (pivot == n) throw std::logic_error("ReedSolomon: singular matrix");
    if (pivot != col) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(m[pivot * n + j], m[col * n + j]);
        std::swap(inv[pivot * n + j], inv[col * n + j]);
      }
    }
    // Normalize the pivot row.
    const std::uint8_t c = gf256::inv(m[col * n + col]);
    gf256::scale({&m[col * n], n}, c);
    gf256::scale({&inv[col * n], n}, c);
    // Eliminate the column elsewhere.
    for (std::size_t row = 0; row < n; ++row) {
      if (row == col) continue;
      const std::uint8_t f = m[row * n + col];
      if (f == 0) continue;
      gf256::mul_add({&m[row * n], n}, {&m[col * n], n}, f);
      gf256::mul_add({&inv[row * n], n}, {&inv[col * n], n}, f);
    }
  }
  return inv;
}

}  // namespace

ReedSolomon::ReedSolomon(unsigned data_shards, unsigned parity_shards)
    : d_(data_shards), p_(parity_shards) {
  if (d_ == 0) throw std::invalid_argument("ReedSolomon: zero data shards");
  if (d_ + p_ > 256) {
    throw std::invalid_argument("ReedSolomon: more than 256 shards");
  }
}

std::vector<std::uint8_t> ReedSolomon::matrix_row(unsigned r) const {
  std::vector<std::uint8_t> row(d_, 0);
  if (r < d_) {
    row[r] = 1;  // systematic: data shards pass through
  } else {
    // Cauchy row: 1 / (x_r ^ y_c) with x = {d..d+p-1}, y = {0..d-1}.
    for (unsigned c = 0; c < d_; ++c) {
      row[c] = gf256::inv(static_cast<std::uint8_t>(r ^ c));
    }
  }
  return row;
}

std::vector<std::vector<std::uint8_t>> ReedSolomon::encode(
    std::span<const std::uint8_t> block) const {
  const std::size_t shard_size = (block.size() + d_ - 1) / d_;
  std::vector<std::vector<std::uint8_t>> shards(
      total_shards(), std::vector<std::uint8_t>(shard_size, 0));

  for (unsigned c = 0; c < d_; ++c) {
    const std::size_t begin = static_cast<std::size_t>(c) * shard_size;
    const std::size_t end = std::min(block.size(), begin + shard_size);
    if (begin < end) {
      std::copy(block.begin() + static_cast<std::ptrdiff_t>(begin),
                block.begin() + static_cast<std::ptrdiff_t>(end),
                shards[c].begin());
    }
  }
  for (unsigned r = d_; r < total_shards(); ++r) {
    const std::vector<std::uint8_t> row = matrix_row(r);
    for (unsigned c = 0; c < d_; ++c) {
      gf256::mul_add(shards[r], shards[c], row[c]);
    }
  }
  return shards;
}

std::vector<std::vector<std::uint8_t>> ReedSolomon::recover_data(
    std::span<const std::optional<std::vector<std::uint8_t>>> shards) const {
  if (shards.size() != total_shards()) {
    throw std::invalid_argument("ReedSolomon: wrong shard vector size");
  }
  std::vector<unsigned> present;
  std::size_t shard_size = 0;
  for (unsigned i = 0; i < total_shards() && present.size() < d_; ++i) {
    if (!shards[i].has_value()) continue;
    if (present.empty()) {
      shard_size = shards[i]->size();
    } else if (shards[i]->size() != shard_size) {
      throw std::invalid_argument("ReedSolomon: shard size mismatch");
    }
    present.push_back(i);
  }
  if (present.size() < d_) {
    throw std::invalid_argument("ReedSolomon: fewer than d shards present");
  }

  // Solve  M * data = present_shards  with M the d chosen encoding rows.
  std::vector<std::uint8_t> m(static_cast<std::size_t>(d_) * d_, 0);
  for (unsigned r = 0; r < d_; ++r) {
    const std::vector<std::uint8_t> row = matrix_row(present[r]);
    std::copy(row.begin(), row.end(), m.begin() + r * d_);
  }
  const std::vector<std::uint8_t> minv = invert_matrix(std::move(m), d_);

  std::vector<std::vector<std::uint8_t>> data(
      d_, std::vector<std::uint8_t>(shard_size, 0));
  for (unsigned c = 0; c < d_; ++c) {
    for (unsigned j = 0; j < d_; ++j) {
      gf256::mul_add(data[c], *shards[present[j]],
                     minv[static_cast<std::size_t>(c) * d_ + j]);
    }
  }
  return data;
}

std::vector<std::uint8_t> ReedSolomon::decode(
    std::span<const std::optional<std::vector<std::uint8_t>>> shards,
    std::size_t block_size) const {
  if (std::optional<std::vector<std::uint8_t>> block = concat_data_fragments(
          shards, total_shards(), d_, 1, block_size, "ReedSolomon")) {
    return std::move(*block);
  }
  const std::vector<std::vector<std::uint8_t>> data = recover_data(shards);
  const std::size_t shard_size = data.front().size();
  if (block_size > shard_size * d_) {
    throw std::invalid_argument("ReedSolomon: block size exceeds capacity");
  }
  std::vector<std::uint8_t> block;
  block.reserve(block_size);
  for (unsigned c = 0; c < d_ && block.size() < block_size; ++c) {
    const std::size_t take = std::min(shard_size, block_size - block.size());
    block.insert(block.end(), data[c].begin(),
                 data[c].begin() + static_cast<std::ptrdiff_t>(take));
  }
  return block;
}

std::vector<std::uint8_t> ReedSolomon::reconstruct_shard(
    std::span<const std::optional<std::vector<std::uint8_t>>> shards,
    unsigned target) const {
  if (target >= total_shards()) {
    throw std::invalid_argument("ReedSolomon: bad target shard");
  }
  const std::vector<std::vector<std::uint8_t>> data = recover_data(shards);
  if (target < d_) return data[target];
  std::vector<std::uint8_t> shard(data.front().size(), 0);
  const std::vector<std::uint8_t> row = matrix_row(target);
  for (unsigned c = 0; c < d_; ++c) {
    gf256::mul_add(shard, data[c], row[c]);
  }
  return shard;
}

}  // namespace rds
