#include "src/storage/erasure/rdp.hpp"

#include <algorithm>
#include <deque>
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

/// Peeling solver for XOR equation systems where every equation touches at
/// most two unknowns: repeatedly apply an equation with exactly one
/// remaining unknown.  For RDP's row/diagonal system with p prime, peeling
/// always completes (the chase argument of the FAST'04 paper).
class XorPeeler {
 public:
  explicit XorPeeler(std::size_t unknown_count)
      : values_(unknown_count), solved_(unknown_count, false),
        eqs_of_(unknown_count) {}

  void add_equation(std::vector<std::size_t> unknowns, Bytes rhs) {
    const std::size_t id = equations_.size();
    for (const std::size_t u : unknowns) eqs_of_[u].push_back(id);
    equations_.push_back({std::move(unknowns), std::move(rhs)});
    if (equations_.back().unknowns.size() == 1) ready_.push_back(id);
  }

  /// Returns true iff every unknown was determined.
  bool solve() {
    while (!ready_.empty()) {
      const std::size_t id = ready_.front();
      ready_.pop_front();
      Equation& eq = equations_[id];
      if (eq.unknowns.empty()) continue;  // became trivial meanwhile
      const std::size_t u = eq.unknowns.front();
      if (solved_[u]) continue;
      values_[u] = eq.rhs;
      solved_[u] = true;
      // Substitute into every equation mentioning u.
      for (const std::size_t other : eqs_of_[u]) {
        Equation& oe = equations_[other];
        const auto it = std::ranges::find(oe.unknowns, u);
        if (it == oe.unknowns.end()) continue;
        oe.unknowns.erase(it);
        xor_into(oe.rhs, values_[u]);
        if (oe.unknowns.size() == 1) ready_.push_back(other);
      }
    }
    return std::ranges::find(solved_, false) == solved_.end();
  }

  [[nodiscard]] const Bytes& value(std::size_t u) const { return values_[u]; }

 private:
  struct Equation {
    std::vector<std::size_t> unknowns;
    Bytes rhs;
  };
  std::vector<Equation> equations_;
  std::vector<Bytes> values_;
  std::vector<bool> solved_;
  std::vector<std::vector<std::size_t>> eqs_of_;
  std::deque<std::size_t> ready_;
};

}  // namespace

RdpScheme::RdpScheme(unsigned p) : p_(p) {
  if (!is_odd_prime(p)) {
    throw std::invalid_argument("RdpScheme: p must be an odd prime");
  }
}

std::vector<Bytes> RdpScheme::encode(
    std::span<const std::uint8_t> block) const {
  const unsigned p = p_;
  const unsigned rows = p - 1;
  const unsigned data_cols = p - 1;
  const std::size_t chunk =
      (block.size() + static_cast<std::size_t>(data_cols) * rows - 1) /
      (static_cast<std::size_t>(data_cols) * rows);

  std::vector<std::vector<Bytes>> grid(
      p + 1, std::vector<Bytes>(rows, Bytes(chunk, 0)));
  for (unsigned j = 0; j < data_cols; ++j) {
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
  // Row parity (column p-1) over the data columns.
  for (unsigned i = 0; i < rows; ++i) {
    for (unsigned j = 0; j < data_cols; ++j) {
      xor_into(grid[p - 1][i], grid[j][i]);
    }
  }
  // Diagonal parity (column p) over data + row parity; diagonal d covers
  // cells (r, j) with (r + j) mod p == d, imaginary row p-1 = 0; the
  // diagonal p-1 is not stored.
  for (unsigned d = 0; d < rows; ++d) {
    for (unsigned j = 0; j < p; ++j) {
      const unsigned r = (d + p - j % p) % p;
      if (r < rows) xor_into(grid[p][d], grid[j][r]);
    }
  }

  std::vector<Bytes> fragments(p + 1);
  for (unsigned j = 0; j < p + 1; ++j) {
    fragments[j].reserve(rows * chunk);
    for (unsigned i = 0; i < rows; ++i) {
      fragments[j].insert(fragments[j].end(), grid[j][i].begin(),
                          grid[j][i].end());
    }
  }
  return fragments;
}

std::vector<std::vector<Bytes>> RdpScheme::recover(
    std::span<const std::optional<Bytes>> fragments) const {
  const unsigned p = p_;
  const unsigned rows = p - 1;
  if (fragments.size() != p + 1) {
    throw std::invalid_argument("RdpScheme: wrong fragment count");
  }
  std::vector<unsigned> missing;
  std::size_t frag_size = 0;
  bool have_size = false;
  for (unsigned j = 0; j < p + 1; ++j) {
    if (!fragments[j]) {
      missing.push_back(j);
      continue;
    }
    if (!have_size) {
      frag_size = fragments[j]->size();
      have_size = true;
    } else if (fragments[j]->size() != frag_size) {
      throw std::invalid_argument("RdpScheme: fragment size mismatch");
    }
  }
  if (missing.size() > 2) {
    throw std::invalid_argument("RdpScheme: more than two fragments missing");
  }
  if (!have_size) {
    throw std::invalid_argument("RdpScheme: all fragments missing");
  }
  if (frag_size % rows != 0) {
    throw std::invalid_argument(
        "RdpScheme: fragment size not a multiple of p-1");
  }
  const std::size_t chunk = frag_size / rows;

  std::vector<std::vector<Bytes>> grid(
      p + 1, std::vector<Bytes>(rows, Bytes(chunk, 0)));
  for (unsigned j = 0; j < p + 1; ++j) {
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
      grid[p - 1][i].assign(chunk, 0);
      for (unsigned j = 0; j + 1 < p; ++j) xor_into(grid[p - 1][i], grid[j][i]);
    }
  };
  const auto recompute_diag_parity = [&] {
    for (unsigned d = 0; d < rows; ++d) {
      grid[p][d].assign(chunk, 0);
      for (unsigned j = 0; j < p; ++j) {
        const unsigned r = (d + p - j % p) % p;
        if (r < rows) xor_into(grid[p][d], grid[j][r]);
      }
    }
  };
  const auto recover_by_rows = [&](unsigned e) {  // e < p-1 (a data column)
    for (unsigned i = 0; i < rows; ++i) {
      grid[e][i] = grid[p - 1][i];
      for (unsigned j = 0; j + 1 < p; ++j) {
        if (j != e) xor_into(grid[e][i], grid[j][i]);
      }
    }
  };

  if (missing.empty()) return grid;

  const bool diag_missing = missing.back() == p;
  if (diag_missing) {
    // Repair the other column (if any) inside the RAID-4 set, then rebuild
    // the diagonal parity from scratch.
    if (missing.size() == 2) {
      if (missing[0] == p - 1) {
        recompute_row_parity();
      } else {
        recover_by_rows(missing[0]);
      }
    }
    recompute_diag_parity();
    return grid;
  }

  if (missing.size() == 1) {
    if (missing[0] == p - 1) {
      recompute_row_parity();
    } else {
      recover_by_rows(missing[0]);
    }
    return grid;
  }

  // Two columns within [0, p-1] (data and/or row parity): peel the
  // row/diagonal XOR system.  Unknown id = row * 2 + (0 for e1, 1 for e2).
  const unsigned e1 = missing[0];
  const unsigned e2 = missing[1];
  XorPeeler peeler(2 * rows);

  // Row equations: XOR over all columns [0, p-1] of row r is zero.
  for (unsigned r = 0; r < rows; ++r) {
    Bytes rhs(chunk, 0);
    for (unsigned j = 0; j < p; ++j) {
      if (j != e1 && j != e2) xor_into(rhs, grid[j][r]);
    }
    peeler.add_equation({2 * r, 2 * r + 1}, std::move(rhs));
  }
  // Diagonal equations d in [0, p-2]: XOR of the diagonal's cells equals
  // the stored parity; unknowns are the diagonal's cells in e1/e2 when
  // their row is real.
  for (unsigned d = 0; d < rows; ++d) {
    Bytes rhs = grid[p][d];
    std::vector<std::size_t> unknowns;
    for (unsigned j = 0; j < p; ++j) {
      const unsigned r = (d + p - j % p) % p;
      if (r >= rows) continue;  // imaginary row: zero
      if (j == e1) {
        unknowns.push_back(2 * r);
      } else if (j == e2) {
        unknowns.push_back(2 * r + 1);
      } else {
        xor_into(rhs, grid[j][r]);
      }
    }
    peeler.add_equation(std::move(unknowns), std::move(rhs));
  }
  if (!peeler.solve()) {
    throw std::logic_error("RdpScheme: peeling failed (p not prime?)");
  }
  for (unsigned r = 0; r < rows; ++r) {
    grid[e1][r] = peeler.value(2 * r);
    grid[e2][r] = peeler.value(2 * r + 1);
  }
  return grid;
}

Bytes RdpScheme::decode(std::span<const std::optional<Bytes>> fragments,
                        std::size_t block_size) const {
  if (std::optional<Bytes> block = concat_data_fragments(
          fragments, p_ + 1, p_ - 1, p_ - 1, block_size, "RdpScheme")) {
    return std::move(*block);
  }
  const std::vector<std::vector<Bytes>> grid = recover(fragments);
  const unsigned rows = p_ - 1;
  Bytes block;
  block.reserve(block_size);
  for (unsigned j = 0; j + 1 < p_ && block.size() < block_size; ++j) {
    for (unsigned i = 0; i < rows && block.size() < block_size; ++i) {
      const std::size_t take =
          std::min(grid[j][i].size(), block_size - block.size());
      block.insert(block.end(), grid[j][i].begin(),
                   grid[j][i].begin() + static_cast<std::ptrdiff_t>(take));
    }
  }
  if (block.size() < block_size) {
    throw std::invalid_argument("RdpScheme: block size exceeds capacity");
  }
  return block;
}

Bytes RdpScheme::reconstruct_fragment(
    std::span<const std::optional<Bytes>> fragments, unsigned target) const {
  if (target >= p_ + 1) {
    throw std::invalid_argument("RdpScheme: bad target fragment");
  }
  const std::vector<std::vector<Bytes>> grid = recover(fragments);
  Bytes fragment;
  for (const Bytes& chunk : grid[target]) {
    fragment.insert(fragment.end(), chunk.begin(), chunk.end());
  }
  return fragment;
}

std::string RdpScheme::name() const {
  return "rdp(p=" + std::to_string(p_) + ")";
}

}  // namespace rds
