// Row-Diagonal Parity (Corbett et al., FAST 2004) -- the paper's reference
// [3]: the second classical XOR-only double-erasure code.
//
// Layout for a prime p: a (p-1) x (p+1) symbol array.  Columns 0..p-2 carry
// data, column p-1 row parity (over the data), column p diagonal parity.
// Diagonals run through the data AND the row-parity column ((r + j) mod p
// for j in [0, p-1]), with an imaginary all-zero row p-1; the diagonal
// p-1 is "missing" (not stored).  In the parity terms of a LinearCodeScheme
// with p-1 data columns of p-1 rows, each diagonal's row-parity cell is
// expanded into the data row it sums; the solver recovers any two lost
// columns.
//
// Fragment j of the RedundancyScheme is column j; p-1 data fragments + 2
// parity fragments, any p-1 of p+1 reconstruct.
#pragma once

#include "src/storage/redundancy_scheme.hpp"

namespace rds {

class RdpScheme final : public LinearCodeScheme {
 public:
  /// `p` must be an odd prime up to 251; the code has p-1 data + 2 parity
  /// fragments, at most kMaxFragments.
  explicit RdpScheme(unsigned p);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] unsigned prime() const noexcept { return p_; }

 private:
  unsigned p_;
};

}  // namespace rds
