#include "src/storage/erasure/evenodd.hpp"

#include <vector>

namespace rds {
namespace {

/// Parity cells 0..p-2 sum the rows, p-1..2p-3 the diagonals and S.
std::vector<std::vector<LinearCodeScheme::Term>> evenodd_checks(unsigned p) {
  const unsigned rows = p - 1;
  std::vector<std::vector<LinearCodeScheme::Term>> checks(2 * rows);
  const auto add = [&](unsigned t, unsigned row, unsigned column) {
    checks[t].push_back({column * rows + row, 1});
  };
  for (unsigned i = 0; i < rows; ++i) {
    for (unsigned j = 0; j < p; ++j) {
      add(i, i, j);
      if (const unsigned r = (i + p - j) % p; r < rows) add(rows + i, r, j);
      if (j > 0) add(rows + i, p - 1 - j, j);  // S
    }
  }
  return checks;
}

}  // namespace

EvenOddScheme::EvenOddScheme(unsigned p)
    : LinearCodeScheme(p, 2, p - 1,
                       evenodd_checks(odd_prime(p, 2, "EvenOddScheme"))),
      p_(p) {}

std::string EvenOddScheme::name() const {
  return "evenodd(p=" + std::to_string(p_) + ")";
}

}  // namespace rds
