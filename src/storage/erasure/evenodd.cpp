#include "src/storage/erasure/evenodd.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/storage/erasure/systematic.hpp"

namespace rds {
namespace {

void xor_into(Bytes& dst, const Bytes& src) {
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i] ^= src[i];
}

bool is_odd_prime(unsigned p) {
  if (p < 3 || p % 2 == 0) return false;
  for (unsigned d = 3; d * d <= p; d += 2) {
    if (p % d == 0) return false;
  }
  return true;
}

}  // namespace

EvenOddScheme::EvenOddScheme(unsigned p) : p_(p) {
  if (!is_odd_prime(p)) {
    throw std::invalid_argument("EvenOddScheme: p must be an odd prime");
  }
}

std::vector<Bytes> EvenOddScheme::encode(
    std::span<const std::uint8_t> block) const {
  const unsigned p = p_;
  const unsigned rows = p - 1;
  const std::size_t chunk =
      (block.size() + static_cast<std::size_t>(p) * rows - 1) /
      (static_cast<std::size_t>(p) * rows);

  // grid[j][i] = symbol a[i][j]; data columns hold the block column-major.
  std::vector<std::vector<Bytes>> grid(
      p + 2, std::vector<Bytes>(rows, Bytes(chunk, 0)));
  for (unsigned j = 0; j < p; ++j) {
    for (unsigned i = 0; i < rows; ++i) {
      const std::size_t begin =
          (static_cast<std::size_t>(j) * rows + i) * chunk;
      const std::size_t end = std::min(block.size(), begin + chunk);
      if (begin < end) {
        std::copy(block.begin() + static_cast<std::ptrdiff_t>(begin),
                  block.begin() + static_cast<std::ptrdiff_t>(end),
                  grid[j][i].begin());
      }
    }
  }

  // Row parity.
  for (unsigned i = 0; i < rows; ++i) {
    for (unsigned j = 0; j < p; ++j) xor_into(grid[p][i], grid[j][i]);
  }
  // Special diagonal sum S = XOR_{t=1..p-1} a[p-1-t][t].
  Bytes s(chunk, 0);
  for (unsigned t = 1; t < p; ++t) xor_into(s, grid[t][p - 1 - t]);
  // Diagonal parity: a[i][p+1] = S ^ XOR_{(r+j) mod p == i, r <= p-2}.
  for (unsigned i = 0; i < rows; ++i) {
    grid[p + 1][i] = s;
    for (unsigned j = 0; j < p; ++j) {
      const unsigned r = (i + p - j % p) % p;
      if (r < rows) xor_into(grid[p + 1][i], grid[j][r]);
    }
  }

  // Serialize columns.
  std::vector<Bytes> fragments(p + 2);
  for (unsigned j = 0; j < p + 2; ++j) {
    fragments[j].reserve(rows * chunk);
    for (unsigned i = 0; i < rows; ++i) {
      fragments[j].insert(fragments[j].end(), grid[j][i].begin(),
                          grid[j][i].end());
    }
  }
  return fragments;
}

std::vector<std::vector<Bytes>> EvenOddScheme::recover(
    std::span<const std::optional<Bytes>> fragments) const {
  const unsigned p = p_;
  const unsigned rows = p - 1;
  if (fragments.size() != p + 2) {
    throw std::invalid_argument("EvenOddScheme: wrong fragment count");
  }
  std::vector<unsigned> missing;
  std::size_t frag_size = 0;
  bool have_size = false;
  for (unsigned j = 0; j < p + 2; ++j) {
    if (!fragments[j]) {
      missing.push_back(j);
      continue;
    }
    if (!have_size) {
      frag_size = fragments[j]->size();
      have_size = true;
    } else if (fragments[j]->size() != frag_size) {
      throw std::invalid_argument("EvenOddScheme: fragment size mismatch");
    }
  }
  if (missing.size() > 2) {
    throw std::invalid_argument(
        "EvenOddScheme: more than two fragments missing");
  }
  if (!have_size) {
    throw std::invalid_argument("EvenOddScheme: all fragments missing");
  }
  if (frag_size % rows != 0) {
    throw std::invalid_argument("EvenOddScheme: fragment size not a multiple "
                                "of p-1");
  }
  const std::size_t chunk = frag_size / rows;

  std::vector<std::vector<Bytes>> grid(
      p + 2, std::vector<Bytes>(rows, Bytes(chunk, 0)));
  for (unsigned j = 0; j < p + 2; ++j) {
    if (!fragments[j]) continue;
    for (unsigned i = 0; i < rows; ++i) {
      std::copy(fragments[j]->begin() + static_cast<std::ptrdiff_t>(i * chunk),
                fragments[j]->begin() +
                    static_cast<std::ptrdiff_t>((i + 1) * chunk),
                grid[j][i].begin());
    }
  }

  const auto recompute_row_parity = [&] {
    for (unsigned i = 0; i < rows; ++i) {
      grid[p][i].assign(chunk, 0);
      for (unsigned j = 0; j < p; ++j) xor_into(grid[p][i], grid[j][i]);
    }
  };
  const auto special_diagonal_sum = [&] {
    Bytes s(chunk, 0);
    for (unsigned t = 1; t < p; ++t) xor_into(s, grid[t][p - 1 - t]);
    return s;
  };
  const auto recompute_diag_parity = [&] {
    const Bytes s = special_diagonal_sum();
    for (unsigned i = 0; i < rows; ++i) {
      grid[p + 1][i] = s;
      for (unsigned j = 0; j < p; ++j) {
        const unsigned r = (i + p - j % p) % p;
        if (r < rows) xor_into(grid[p + 1][i], grid[j][r]);
      }
    }
  };
  // Recovers data column e from the row parity (all other data present).
  const auto recover_by_rows = [&](unsigned e) {
    for (unsigned i = 0; i < rows; ++i) {
      grid[e][i] = grid[p][i];
      for (unsigned j = 0; j < p; ++j) {
        if (j != e) xor_into(grid[e][i], grid[j][i]);
      }
    }
  };

  if (missing.empty()) return grid;

  if (missing.size() == 1) {
    const unsigned m = missing[0];
    if (m == p) {
      recompute_row_parity();
    } else if (m == p + 1) {
      recompute_diag_parity();
    } else {
      recover_by_rows(m);
    }
    return grid;
  }

  const unsigned m1 = missing[0];
  const unsigned m2 = missing[1];

  if (m1 == p && m2 == p + 1) {
    // Both parity columns: recompute from intact data.
    recompute_row_parity();
    recompute_diag_parity();
    return grid;
  }

  if (m2 == p + 1) {
    // One data column + the diagonal parity: rows first, then diagonals.
    recover_by_rows(m1);
    recompute_diag_parity();
    return grid;
  }

  if (m2 == p) {
    // One data column e + the row parity: recover e through the diagonals.
    const unsigned e = m1;
    // S from a diagonal with no unknown symbol in column e.
    Bytes s(chunk, 0);
    if (e == 0) {
      // The S-diagonal's column-0 slot is the imaginary row: direct sum.
      for (unsigned t = 1; t < p; ++t) xor_into(s, grid[t][p - 1 - t]);
    } else {
      const unsigned d = e - 1;  // diagonal whose column-e slot is imaginary
      s = grid[p + 1][d];
      for (unsigned j = 0; j < p; ++j) {
        if (j == e) continue;
        const unsigned r = (d + p - j % p) % p;
        if (r < rows) xor_into(s, grid[j][r]);
      }
    }
    for (unsigned r = 0; r < rows; ++r) {
      const unsigned d = (r + e) % p;
      Bytes v = s;
      if (d < rows) xor_into(v, grid[p + 1][d]);
      // d == p-1 is the S-diagonal itself (no stored parity symbol).
      for (unsigned j = 0; j < p; ++j) {
        if (j == e) continue;
        const unsigned rr = (d + p - j % p) % p;
        if (rr < rows) xor_into(v, grid[j][rr]);
      }
      grid[e][r] = std::move(v);
    }
    recompute_row_parity();
    return grid;
  }

  // Two data columns e1 < e2: the EVENODD zigzag.
  const unsigned e1 = m1;
  const unsigned e2 = m2;

  // S = XOR of the whole row-parity column ^ XOR of the whole diagonal
  // parity column (the p-1 copies of S cancel pairwise since p-1 is even).
  Bytes s(chunk, 0);
  for (unsigned i = 0; i < rows; ++i) {
    xor_into(s, grid[p][i]);
    xor_into(s, grid[p + 1][i]);
  }

  // Diagonal residuals D[d] = a[(d-e1) mod p][e1] ^ a[(d-e2) mod p][e2].
  std::vector<Bytes> diag(p, Bytes(chunk, 0));
  for (unsigned d = 0; d < p; ++d) {
    diag[d] = s;
    if (d < rows) xor_into(diag[d], grid[p + 1][d]);
    for (unsigned j = 0; j < p; ++j) {
      if (j == e1 || j == e2) continue;
      const unsigned r = (d + p - j % p) % p;
      if (r < rows) xor_into(diag[d], grid[j][r]);
    }
  }
  // Row residuals R[i] = a[i][e1] ^ a[i][e2].
  std::vector<Bytes> row_res(rows, Bytes(chunk, 0));
  for (unsigned i = 0; i < rows; ++i) {
    row_res[i] = grid[p][i];
    for (unsigned j = 0; j < p; ++j) {
      if (j != e1 && j != e2) xor_into(row_res[i], grid[j][i]);
    }
  }

  // Zigzag chase starting from the imaginary slot of column e1.
  Bytes carry(chunk, 0);  // the already-known e1 symbol on the diagonal
  unsigned row = (p - 1 + e1 + p - e2) % p;
  while (row != p - 1) {
    const unsigned d = (row + e2) % p;
    grid[e2][row] = diag[d];
    xor_into(grid[e2][row], carry);
    grid[e1][row] = row_res[row];
    xor_into(grid[e1][row], grid[e2][row]);
    carry = grid[e1][row];
    row = (row + e1 + p - e2) % p;
  }
  return grid;
}

Bytes EvenOddScheme::decode(std::span<const std::optional<Bytes>> fragments,
                            std::size_t block_size) const {
  if (std::optional<Bytes> block = concat_data_fragments(
          fragments, p_ + 2, p_, p_ - 1, block_size, "EvenOddScheme")) {
    return std::move(*block);
  }
  const std::vector<std::vector<Bytes>> grid = recover(fragments);
  const unsigned rows = p_ - 1;
  Bytes block;
  block.reserve(block_size);
  for (unsigned j = 0; j < p_ && block.size() < block_size; ++j) {
    for (unsigned i = 0; i < rows && block.size() < block_size; ++i) {
      const std::size_t take =
          std::min(grid[j][i].size(), block_size - block.size());
      block.insert(block.end(), grid[j][i].begin(),
                   grid[j][i].begin() + static_cast<std::ptrdiff_t>(take));
    }
  }
  if (block.size() < block_size) {
    throw std::invalid_argument("EvenOddScheme: block size exceeds capacity");
  }
  return block;
}

Bytes EvenOddScheme::reconstruct_fragment(
    std::span<const std::optional<Bytes>> fragments, unsigned target) const {
  if (target >= p_ + 2) {
    throw std::invalid_argument("EvenOddScheme: bad target fragment");
  }
  const std::vector<std::vector<Bytes>> grid = recover(fragments);
  Bytes fragment;
  for (const Bytes& chunk : grid[target]) {
    fragment.insert(fragment.end(), chunk.begin(), chunk.end());
  }
  return fragment;
}

std::string EvenOddScheme::name() const {
  return "evenodd(p=" + std::to_string(p_) + ")";
}

}  // namespace rds
