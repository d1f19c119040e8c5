#include "src/storage/erasure/rdp.hpp"

#include <vector>

namespace rds {
namespace {

/// Parity cells 0..p-2 sum the rows, p-1..2p-3 the diagonals.
std::vector<std::vector<LinearCodeScheme::Term>> rdp_checks(unsigned p) {
  const unsigned rows = p - 1;
  std::vector<std::vector<LinearCodeScheme::Term>> checks(2 * rows);
  const auto add = [&](unsigned t, unsigned row, unsigned column) {
    checks[t].push_back({column * rows + row, 1});
  };
  for (unsigned i = 0; i < rows; ++i) {
    for (unsigned j = 0; j < rows; ++j) {
      add(i, i, j);
      if (const unsigned d = (i + j) % p; d < rows) add(rows + d, i, j);
      // Row-parity cell (i, p-1) lies on diagonal i-1 and sums data row i.
      if (i > 0) add(rows + i - 1, i, j);
    }
  }
  return checks;
}

}  // namespace

RdpScheme::RdpScheme(unsigned p)
    : LinearCodeScheme(p - 1, 2, p - 1,
                       rdp_checks(odd_prime(p, 1, "RdpScheme"))),
      p_(p) {}

std::string RdpScheme::name() const {
  return "rdp(p=" + std::to_string(p_) + ")";
}

}  // namespace rds
