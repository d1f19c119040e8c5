// Cross-consistency of RedundantShare and FastRedundantShare.
//
// The variants draw from the SAME per-copy law (the fast variant skips
// the rejected columns with one log-survival binary search instead of n
// Bernoulli draws) but use different random couplings, so placements are
// not samplewise identical.  What must agree is the distribution: for
// every copy index r, the empirical distribution of the device receiving
// copy r must match the closed-form law exact_copy_index_law() -- for both
// variants, on the same configurations, including the first k-1 copies
// where the selection chain (not the rendezvous race) governs.
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/core/fast_redundant_share.hpp"
#include "src/core/redundant_share.hpp"
#include "src/util/stats.hpp"
#include "tests/clusters.hpp"

namespace rds {
namespace {

using test::cluster_from;

/// Per-copy-index device counts over `balls` placements, in the canonical
/// bin order of `uids`.
std::vector<std::vector<std::uint64_t>> copy_index_counts(
    const ReplicationStrategy& strategy, std::span<const DeviceId> uids,
    std::uint64_t balls) {
  const unsigned k = strategy.replication();
  std::unordered_map<DeviceId, std::size_t> canonical;
  for (std::size_t i = 0; i < uids.size(); ++i) canonical.emplace(uids[i], i);
  std::vector<std::vector<std::uint64_t>> counts(
      k, std::vector<std::uint64_t>(uids.size(), 0));
  std::vector<DeviceId> out(k);
  for (std::uint64_t a = 0; a < balls; ++a) {
    strategy.place(a, out);
    for (unsigned r = 0; r < k; ++r) {
      ++counts[r][canonical.at(out[r])];
    }
  }
  return counts;
}

/// Chi-square goodness-of-fit of every copy index's empirical distribution
/// against the exact law, at significance 0.001 per row.
void expect_matches_law(const ReplicationStrategy& strategy,
                        std::span<const DeviceId> uids,
                        const std::vector<std::vector<double>>& law,
                        std::uint64_t balls, const std::string& variant) {
  const auto counts = copy_index_counts(strategy, uids, balls);
  ASSERT_EQ(counts.size(), law.size());
  for (std::size_t r = 0; r < law.size(); ++r) {
    // Bins the law gives (essentially) zero probability would blow up the
    // chi-square denominator; fold them out and assert separately that no
    // placements landed there.
    std::vector<std::uint64_t> observed;
    std::vector<double> expected;
    for (std::size_t i = 0; i < law[r].size(); ++i) {
      const double e = law[r][i] * static_cast<double>(balls);
      if (e < 1e-6) {
        EXPECT_EQ(counts[r][i], 0u)
            << variant << ": copy " << r << " reached zero-probability bin "
            << i;
      } else {
        observed.push_back(counts[r][i]);
        expected.push_back(e);
      }
    }
    ASSERT_GE(observed.size(), 1u);
    if (observed.size() < 2) continue;  // law is degenerate: nothing to test
    const double stat = chi_square(observed, expected);
    const double critical = chi_square_critical_999(observed.size() - 1);
    EXPECT_LT(stat, critical)
        << variant << ": copy index " << r << " diverges from the exact law"
        << " (chi2 = " << stat << ", critical = " << critical << ")";
  }
}

/// Runs both variants on one configuration against the shared closed-form
/// law.  `balls` large enough that per-bin expectations clear ~100.
void cross_check(const std::vector<std::uint64_t>& caps, unsigned k,
                 std::uint64_t balls = 200'000) {
  const ClusterConfig config = cluster_from(caps);
  const RedundantShare slow(config, k);
  const FastRedundantShare fast(config, k);
  const std::vector<std::vector<double>> law = slow.exact_copy_index_law();

  // Row r of the law is a probability distribution.
  for (const std::vector<double>& row : law) {
    double sum = 0.0;
    for (const double p : row) {
      EXPECT_GE(p, -1e-12);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }

  expect_matches_law(slow, slow.canonical_uids(), law, balls,
                     "redundant-share");
  expect_matches_law(fast, slow.canonical_uids(), law, balls,
                     "fast-redundant-share");
}

TEST(CrossConsistency, HomogeneousK2) { cross_check({100, 100, 100, 100}, 2); }

TEST(CrossConsistency, HeterogeneousK2) { cross_check({500, 600, 700}, 2); }

TEST(CrossConsistency, HeterogeneousK3) {
  cross_check({900, 700, 500, 300, 100}, 3);
}

TEST(CrossConsistency, InfeasibleCapacitiesK2) {
  // Algorithm 1 caps the dominant device; both variants must follow the
  // same adjusted law.
  cross_check({10, 1, 1}, 2);
}

TEST(CrossConsistency, CascadedClampK3) {
  // The DESIGN.md worked example: clamp inside a clamp.
  cross_check({3, 2, 2, 2, 1}, 3);
}

TEST(CrossConsistency, ManyDevicesK4) {
  cross_check({16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5}, 4, 300'000);
}

}  // namespace
}  // namespace rds
