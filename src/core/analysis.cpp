// Exact fairness analysis of the Redundant Share selection chain.
//
// place() walks the bins once, selecting bin j in state (m needed, at j)
// with probability f(m, j) from an independent per-(ball, bin, m) uniform.
// Its exact law is therefore the occupancy recursion over states (m, j),
// enumerated here by full branching (select / skip at every state) with the
// probability mass carried along -- the shape of the computation mirrors
// place() step for step, so a bug in either the tables or the walk shows up
// as a deviation from the fair shares in the tests.
#include "src/core/redundant_share.hpp"

namespace rds {

std::vector<double> RedundantShare::exact_expected_copies() const {
  const std::size_t n = tables_.size();
  const unsigned k = tables_.k;
  std::vector<double> expected(n, 0.0);

  // pi[m] = P(m copies still needed when the walk reaches column j).
  std::vector<double> pi(k + 1, 0.0);
  pi[k] = 1.0;
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<double> next(k + 1, 0.0);
    next[0] = pi[0];
    for (unsigned m = 1; m <= k; ++m) {
      const double f = tables_.f(m, j);
      expected[j] += pi[m] * f;      // the select branch places a copy here
      next[m] += pi[m] * (1.0 - f);  // skip branch
      next[m - 1] += pi[m] * f;      // select branch
    }
    pi = std::move(next);
  }
  return expected;
}

std::vector<std::vector<double>> RedundantShare::exact_copy_index_law() const {
  const std::size_t n = tables_.size();
  const unsigned k = tables_.k;
  // Copy index r is placed by the selection in state (m = k - r, j), so its
  // law is the per-state selection mass of that level.
  std::vector<std::vector<double>> law(k);
  for (std::vector<double>& row : law) row.assign(n, 0.0);
  std::vector<double> pi(k + 1, 0.0);
  pi[k] = 1.0;
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<double> next(k + 1, 0.0);
    next[0] = pi[0];
    for (unsigned m = 1; m <= k; ++m) {
      const double f = tables_.f(m, j);
      law[k - m][j] = pi[m] * f;
      next[m] += pi[m] * (1.0 - f);
      next[m - 1] += pi[m] * f;
    }
    pi = std::move(next);
  }
  return law;
}

}  // namespace rds
