// LinearCodeScheme (src/storage/redundancy_scheme.hpp): the one encoder and
// the one solver of every erasure code here.
#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "src/storage/erasure/gf256.hpp"
#include "src/storage/redundancy_scheme.hpp"

namespace rds {
namespace {

constexpr std::uint32_t kKnown = std::numeric_limits<std::uint32_t>::max();

/// Gauss-Jordan elimination of the square system a * x = b over GF(2^8):
/// a[r] is the coefficient row of equation r and b[r] its right-hand side,
/// a byte chunk.  Returns the pivot row of each column; on return
/// b[pivot[c]] holds x[c].
std::vector<std::size_t> eliminate(std::vector<Bytes>& a,
                                   std::vector<Bytes>& b) {
  const std::size_t n = a.size();
  std::vector<std::size_t> pivot(n);
  std::vector<bool> used(n, false);
  for (std::size_t c = 0; c < n; ++c) {
    std::size_t p = 0;
    while (p < n && (used[p] || a[p][c] == 0)) ++p;
    if (p == n) {
      throw std::logic_error("LinearCodeScheme: singular checks (not MDS)");
    }
    used[p] = true;
    pivot[c] = p;
    const std::uint8_t inv = gf256::inv(a[p][c]);
    gf256::scale(a[p], inv);
    gf256::scale(b[p], inv);
    for (std::size_t r = 0; r < n; ++r) {
      const std::uint8_t f = a[r][c];
      if (r == p || f == 0) continue;
      gf256::mul_add(a[r], a[p], f);
      gf256::mul_add(b[r], b[p], f);
    }
  }
  return pivot;
}

}  // namespace

LinearCodeScheme::LinearCodeScheme(unsigned data, unsigned parity,
                                   unsigned rows,
                                   std::vector<std::vector<Term>> checks)
    : data_(data), parity_(parity), rows_(rows), checks_(std::move(checks)) {
  assert(checks_.size() == static_cast<std::size_t>(parity) * rows);
}

unsigned LinearCodeScheme::odd_prime(unsigned p, unsigned extra,
                                     const char* codec) {
  // Bounded first: a stored scheme name is outside input, and trial
  // division of a p near 2^32 takes seconds.
  if (p > kMaxFragments - extra) {
    throw std::invalid_argument(
        std::string(codec) + ": more than " + std::to_string(kMaxFragments) +
        " fragments (p + " + std::to_string(extra) + ")");
  }
  bool prime = p >= 3 && p % 2 == 1;
  for (unsigned d = 3; prime && d <= p / d; d += 2) prime = p % d != 0;
  if (!prime) {
    throw std::invalid_argument(std::string(codec) +
                                ": p must be an odd prime");
  }
  return p;
}

std::vector<Bytes> LinearCodeScheme::encode(
    std::span<const std::uint8_t> block) const {
  const std::size_t data_cells = static_cast<std::size_t>(data_) * rows_;
  const std::size_t cell = (block.size() + data_cells - 1) / data_cells;
  const std::size_t size = cell * rows_;
  std::vector<Bytes> fragments;
  fragments.reserve(fragment_count());
  for (unsigned j = 0; j < data_; ++j) {
    const std::size_t begin = std::min(block.size(), j * size);
    const std::size_t end = std::min(block.size(), begin + size);
    Bytes& column = fragments.emplace_back();
    column.reserve(size);
    column.assign(block.begin() + static_cast<std::ptrdiff_t>(begin),
                  block.begin() + static_cast<std::ptrdiff_t>(end));
    column.resize(size);  // zero padding
  }
  for (std::size_t t = 0; t < checks_.size(); ++t) {
    if (t % rows_ == 0) fragments.emplace_back(size, 0);
    const std::span out =
        std::span(fragments.back()).subspan((t % rows_) * cell, cell);
    for (const Term& term : checks_[t]) {
      const std::span in = std::span(fragments[term.cell / rows_])
                               .subspan((term.cell % rows_) * cell, cell);
      gf256::mul_add(out, in, term.coef);
    }
  }
  return fragments;
}

std::size_t LinearCodeScheme::fragment_size(
    std::span<const std::optional<Bytes>> fragments) const {
  const auto bad = [&](const char* why) {
    return std::invalid_argument(name() + ": " + why);
  };
  if (fragments.size() != fragment_count()) throw bad("wrong fragment count");
  std::optional<std::size_t> size;
  unsigned missing = 0;
  for (const auto& f : fragments) {
    if (!f) {
      ++missing;
    } else if (size && *size != f->size()) {
      throw bad("fragment size mismatch");
    } else {
      size = f->size();
    }
  }
  if (missing > parity_) throw bad("fewer than min_fragments() present");
  if (*size % rows_ != 0) throw bad("fragment size not a multiple of rows");
  return *size;
}

std::vector<Bytes> LinearCodeScheme::solve(
    std::span<const std::optional<Bytes>> fragments, std::size_t cell,
    unsigned target) const {
  // Unknowns, one column each: the target parity's cells first -- each is
  // alone in its own check, which thereby becomes its pivot -- then the
  // cells of the missing data fragments.
  std::vector<std::uint32_t> cell_of;
  const auto add_unknowns = [&](unsigned f) {
    for (unsigned i = 0; i < rows_; ++i) cell_of.push_back(f * rows_ + i);
  };
  if (target >= data_ && target < fragment_count()) add_unknowns(target);
  unsigned missing_data = 0;
  for (unsigned f = 0; f < data_; ++f) {
    if (!fragments[f]) {
      add_unknowns(f);
      ++missing_data;
    }
  }
  if (cell_of.empty()) return {};
  std::vector<std::uint32_t> column_of(fragment_count() * rows_, kKnown);
  for (std::uint32_t c = 0; c < cell_of.size(); ++c) column_of[cell_of[c]] = c;

  // Equations: the checks of the target and of the first `missing_data`
  // present parity fragments.  With the present data those are
  // min_fragments() fragments, which determine an MDS codeword, so the
  // system is square and solvable.  Each check's parity cell and terms
  // split into unknowns (its coefficient row) and known cells (summed into
  // its right-hand side, read in place).
  const auto cell_bytes = [&](std::uint32_t g) {
    return std::span(*fragments[g / rows_]).subspan((g % rows_) * cell, cell);
  };
  std::vector<Bytes> a;
  std::vector<Bytes> b;
  for (unsigned f = data_; f < fragment_count(); ++f) {
    if (f != target) {
      if (!fragments[f] || missing_data == 0) continue;
      --missing_data;
    }
    for (std::uint32_t own = f * rows_; own < (f + 1) * rows_; ++own) {
      Bytes& row = a.emplace_back(cell_of.size(), 0);
      Bytes& rhs = b.emplace_back();
      if (const std::uint32_t c = column_of[own]; c != kKnown) {
        row[c] = 1;
        rhs.resize(cell);
      } else {
        rhs.assign(cell_bytes(own).begin(), cell_bytes(own).end());
      }
      for (const Term& term : checks_[own - data_ * rows_]) {
        if (const std::uint32_t c = column_of[term.cell]; c != kKnown) {
          row[c] ^= term.coef;
        } else {
          gf256::mul_add(rhs, cell_bytes(term.cell), term.coef);
        }
      }
    }
  }
  const std::vector<std::size_t> pivot = eliminate(a, b);
  std::vector<Bytes> solved(fragment_count() * rows_);
  for (std::size_t c = 0; c < cell_of.size(); ++c) {
    solved[cell_of[c]] = std::move(b[pivot[c]]);
  }
  return solved;
}

Bytes LinearCodeScheme::decode(std::span<const std::optional<Bytes>> fragments,
                               std::size_t block_size) const {
  const std::size_t size = fragment_size(fragments);
  if (block_size > size * data_) {
    throw std::invalid_argument(name() + ": block size exceeds capacity");
  }
  const std::size_t cell = size / rows_;
  const std::vector<Bytes> solved = solve(fragments, cell, fragment_count());
  Bytes block;
  block.reserve(block_size);
  for (std::uint32_t g = 0; block.size() < block_size; ++g) {
    const auto& column = fragments[g / rows_];
    const std::uint8_t* in = column ? column->data() + (g % rows_) * cell
                                    : solved[g].data();
    block.insert(block.end(), in,
                 in + std::min(cell, block_size - block.size()));
  }
  return block;
}

Bytes LinearCodeScheme::reconstruct_fragment(
    std::span<const std::optional<Bytes>> fragments, unsigned target) const {
  if (target >= fragment_count()) {
    throw std::invalid_argument(name() + ": bad target fragment");
  }
  const std::size_t cell = fragment_size(fragments) / rows_;
  if (fragments[target]) return *fragments[target];
  const std::vector<Bytes> solved = solve(fragments, cell, target);
  Bytes fragment;
  fragment.reserve(cell * rows_);
  for (unsigned i = 0; i < rows_; ++i) {
    const Bytes& part = solved[target * rows_ + i];
    fragment.insert(fragment.end(), part.begin(), part.end());
  }
  return fragment;
}

}  // namespace rds
