// Floating-point hardening of the Redundant Share tables: selection
// probabilities stay inside [0, 1] after the moment-matching compensation,
// zero capacity suffixes are rejected instead of producing NaN, and the
// fairness residual diagnostic behaves as documented.
#include "src/core/redundant_share.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "src/core/fast_redundant_share.hpp"
#include "tests/clusters.hpp"

namespace rds {
namespace {

using test::cluster_from;

void expect_probabilities_valid(const detail::RsTables& t) {
  for (std::size_t m = 0; m < t.select_prob.size(); ++m) {
    for (std::size_t j = 0; j < t.select_prob[m].size(); ++j) {
      const double f = t.select_prob[m][j];
      EXPECT_TRUE(std::isfinite(f)) << "f(" << m + 1 << ", " << j << ")";
      EXPECT_GE(f, 0.0) << "f(" << m + 1 << ", " << j << ")";
      EXPECT_LE(f, 1.0) << "f(" << m + 1 << ", " << j << ")";
    }
    // The last column must be a certain pick: whoever reaches it with
    // copies still to place takes it.
    EXPECT_DOUBLE_EQ(t.select_prob[m].back(), 1.0);
  }
}

TEST(RsHardening, ProbabilitiesClampedOnNearDegenerateCapacities) {
  // One device holds essentially all capacity: the compensation wants to
  // push f far above 1 and must be clamped.
  const std::vector<std::vector<std::uint64_t>> configs = {
      {1'000'000'000'000'000'000ULL, 1, 1},
      {1'000'000'000'000'000'000ULL, 1'000'000'000ULL, 1, 1},
      {std::numeric_limits<std::uint64_t>::max() / 2, 3, 2, 1},
  };
  for (const auto& caps : configs) {
    for (unsigned k = 2; k <= 3; ++k) {
      const RedundantShare s(cluster_from(caps), k);
      expect_probabilities_valid(s.tables());
      // The placement itself must still produce k distinct devices.
      const std::vector<DeviceId> copies = s.place(12345);
      ASSERT_EQ(copies.size(), k);
      for (unsigned a = 0; a < k; ++a) {
        for (unsigned b = a + 1; b < k; ++b) {
          EXPECT_NE(copies[a], copies[b]);
        }
      }
    }
  }
}

TEST(RsHardening, ProbabilitiesClampedWithoutOptimalWeights) {
  // Skipping Algorithm 1 leaves infeasible capacities in place, which is
  // where the clamp and the compensation interact the hardest.
  RedundantShare::Options opt;
  opt.apply_optimal_weights = false;
  for (const auto& caps : std::vector<std::vector<std::uint64_t>>{
           {10, 1, 1}, {3, 2, 2, 2, 1}, {100, 50, 1, 1, 1}}) {
    for (unsigned k = 2; k < caps.size(); ++k) {
      const RedundantShare s(cluster_from(caps), k, opt);
      expect_probabilities_valid(s.tables());
    }
  }
}

TEST(RsHardening, BuildFromWeightsRejectsZeroSuffix) {
  // A zero-capacity tail makes B_j = 0: f(m, j) = m * b_j / B_j would be
  // NaN.  ClusterConfig never produces such weights; build_from_weights is
  // the hardened entry point for callers with their own weight pipeline.
  EXPECT_THROW(detail::RsTables::build_from_weights({0, 1, 2}, {5.0, 0.0, 0.0},
                                                    2, true),
               std::invalid_argument);
  EXPECT_THROW(
      detail::RsTables::build_from_weights({0, 1}, {0.0, 0.0}, 1, true),
      std::invalid_argument);
  try {
    (void)detail::RsTables::build_from_weights({0, 1, 2}, {5.0, 1.0, 0.0}, 2,
                                               true);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("suffix"), std::string::npos);
  }
}

TEST(RsHardening, BuildFromWeightsRejectsNonFiniteAndNegative) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(
      detail::RsTables::build_from_weights({0, 1}, {inf, 1.0}, 2, true),
      std::invalid_argument);
  EXPECT_THROW(
      detail::RsTables::build_from_weights({0, 1}, {nan, 1.0}, 2, true),
      std::invalid_argument);
  EXPECT_THROW(
      detail::RsTables::build_from_weights({0, 1}, {2.0, -1.0}, 2, true),
      std::invalid_argument);
}

TEST(RsHardening, BuildFromWeightsAcceptsPositiveWeights) {
  const detail::RsTables t =
      detail::RsTables::build_from_weights({7, 3, 5}, {3.0, 2.0, 1.0}, 2,
                                           true);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.k, 2u);
  expect_probabilities_valid(t);
}

TEST(RsHardening, FairnessResidualZeroAfterOptimalWeights) {
  // Algorithm 1 makes every configuration feasible, so the moment-matching
  // pass always places the full column deficit: residual must be exactly 0.
  for (const auto& caps : std::vector<std::vector<std::uint64_t>>{
           {10, 1, 1},
           {3, 2, 2, 2, 1},
           {1'000'000, 1, 1, 1},
           {500, 600, 700},
           {9, 8, 7, 6, 5, 4, 3, 2, 1}}) {
    for (unsigned k = 2; k < caps.size(); ++k) {
      const RedundantShare s(cluster_from(caps), k);
      EXPECT_EQ(s.tables().fairness_residual, 0.0)
          << "caps[0]=" << caps[0] << " n=" << caps.size() << " k=" << k;
    }
  }
}

TEST(RsHardening, CrossConsistencyFastVariantSharesTables) {
  // Both variants are built from the same RsTables: identical adjusted
  // capacities and selection probabilities on any configuration.
  const ClusterConfig config = cluster_from({1'000'000'000'000ULL, 7, 5, 3});
  const RedundantShare slow(config, 3);
  const FastRedundantShare fast(config, 3);
  ASSERT_EQ(slow.tables().size(), fast.tables().size());
  for (std::size_t i = 0; i < slow.tables().size(); ++i) {
    EXPECT_EQ(slow.tables().uids[i], fast.tables().uids[i]);
    EXPECT_DOUBLE_EQ(slow.tables().caps[i], fast.tables().caps[i]);
  }
  expect_probabilities_valid(fast.tables());
}

}  // namespace
}  // namespace rds
