// EVENODD (Blaum, Brady, Bruck, Menon 1995) -- the paper's reference [1]:
// an MDS code tolerating any two column erasures using only XOR.
//
// Layout for a prime p: a (p-1) x (p+2) symbol array.  Columns 0..p-1 carry
// data, column p row parity, column p+1 diagonal parity.  With an imaginary
// all-zero row p-1 and the special diagonal sum
//     S = XOR_{t=1..p-1} a[p-1-t][t],
// the parities are
//     a[i][p]   = XOR_j a[i][j]
//     a[i][p+1] = S ^ XOR_{(r+j) mod p == i} a[r][j].
// A symbol is a byte chunk, fragment j is column j, and the two equations
// are the parity terms of a LinearCodeScheme with p data columns of p-1
// rows, S folded into every diagonal; its solver recovers any two lost
// columns.  The placement layer's copy identification matters here: the
// two parity columns are not interchangeable with data columns.
#pragma once

#include "src/storage/redundancy_scheme.hpp"

namespace rds {

class EvenOddScheme final : public LinearCodeScheme {
 public:
  /// `p` must be an odd prime (3, 5, 7, ..., 251).  Fragments: p data + 2
  /// parity, at most kMaxFragments.
  explicit EvenOddScheme(unsigned p);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] unsigned prime() const noexcept { return p_; }

 private:
  unsigned p_;
};

}  // namespace rds
