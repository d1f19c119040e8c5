// Property-based sweeps over randomized cluster configurations.
//
// These parameterized suites are the heavy artillery behind the paper's
// claims: for *arbitrary* heterogeneous capacity vectors, Redundant Share is
// exactly fair (checked against the enumerated decision tree, not sampling),
// keeps the redundancy invariant, and stays within the adaptivity bounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <vector>

#include "src/core/capacity.hpp"
#include "src/core/fast_redundant_share.hpp"
#include "src/core/redundant_share.hpp"
#include "src/placement/trivial_replication.hpp"
#include "src/sim/block_map.hpp"
#include "src/sim/movement.hpp"
#include "src/util/random.hpp"
#include "tests/clusters.hpp"

namespace rds {
namespace {

struct PropertyCase {
  unsigned k;
  std::uint64_t seed;
  bool heavy_skew;  ///< include bins orders of magnitude apart
};

std::vector<std::uint64_t> random_capacities(Xoshiro256& rng, std::size_t n,
                                             bool heavy_skew) {
  std::vector<std::uint64_t> caps;
  for (std::size_t i = 0; i < n; ++i) {
    if (heavy_skew && rng.next_below(4) == 0) {
      caps.push_back(1 + rng.next_below(100'000));
    } else {
      caps.push_back(1 + rng.next_below(100));
    }
  }
  std::ranges::sort(caps, std::greater<>());
  return caps;
}

ClusterConfig cluster_from(const std::vector<std::uint64_t>& caps,
                           std::uint64_t uid_base = 0) {
  std::vector<Device> devices;
  for (std::size_t i = 0; i < caps.size(); ++i) {
    devices.push_back({uid_base + i, caps[i], ""});
  }
  return ClusterConfig(std::move(devices));
}

class RedundantShareProperty : public ::testing::TestWithParam<PropertyCase> {
};

TEST_P(RedundantShareProperty, ExactFairnessOnRandomConfigurations) {
  const PropertyCase c = GetParam();
  Xoshiro256 rng(c.seed);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n =
        c.k + 1 + static_cast<std::size_t>(rng.next_below(9));
    const std::vector<std::uint64_t> caps =
        random_capacities(rng, n, c.heavy_skew);
    const RedundantShare s(cluster_from(caps), c.k);

    const std::vector<double> expected = s.exact_expected_copies();
    const std::span<const double> adjusted = s.adjusted_capacities();
    const double total =
        std::accumulate(adjusted.begin(), adjusted.end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const double target = static_cast<double>(c.k) * adjusted[i] / total;
      ASSERT_NEAR(expected[i], target, 1e-9)
          << "k=" << c.k << " trial=" << trial << " bin=" << i
          << " caps[0]=" << caps[0];
    }
  }
}

TEST_P(RedundantShareProperty, RedundancyInvariantHolds) {
  const PropertyCase c = GetParam();
  Xoshiro256 rng(c.seed ^ 0xABCD);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n =
        c.k + static_cast<std::size_t>(rng.next_below(12));
    const std::vector<std::uint64_t> caps =
        random_capacities(rng, n, c.heavy_skew);
    const ClusterConfig config = cluster_from(caps);
    const RedundantShare slow(config, c.k);
    const FastRedundantShare fast(config, c.k);
    const BlockMap ms(slow, 2'000);
    const BlockMap mf(fast, 2'000);
    ASSERT_TRUE(ms.redundancy_holds());
    ASSERT_TRUE(mf.redundancy_holds());
  }
}

TEST_P(RedundantShareProperty, AdaptivityWithinKSquaredBound) {
  // Lemma 3.5: k^2-competitive in expectation for single insert/delete.
  const PropertyCase c = GetParam();
  Xoshiro256 rng(c.seed ^ 0x5EED);
  constexpr std::uint64_t kBalls = 8'000;
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t n =
        c.k + 2 + static_cast<std::size_t>(rng.next_below(8));
    const std::vector<std::uint64_t> caps =
        random_capacities(rng, n, false);
    const ClusterConfig before = cluster_from(caps);
    ClusterConfig after = before;
    if (rng.next_below(2) == 0) {
      after.add_device({1000, 1 + rng.next_below(150), ""});
    } else {
      after.remove_device(after[after.size() - 1].uid);
    }
    const RedundantShare sb(before, c.k);
    const RedundantShare sa(after, c.k);
    const MovementReport report =
        diff_placements(BlockMap(sb, kBalls), BlockMap(sa, kBalls));
    ASSERT_GT(report.optimal_moves, 0u);
    // Expected-case bound with sampling headroom.  For k == 1 the paper's
    // k^2 bound does not apply (it concerns the replication chain); the
    // single-copy chain behaves like LinMirror's first copy, whose measured
    // ratio stays below the Lemma 3.2 constant of 4.
    const double bound = c.k == 1 ? 5.0 : static_cast<double>(c.k) * c.k + 1.0;
    ASSERT_LT(report.competitive_set(), bound)
        << "k=" << c.k << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RedundantShareProperty,
    ::testing::Values(PropertyCase{1, 101, false}, PropertyCase{1, 102, true},
                      PropertyCase{2, 201, false}, PropertyCase{2, 202, true},
                      PropertyCase{2, 203, false}, PropertyCase{3, 301, false},
                      PropertyCase{3, 302, true}, PropertyCase{4, 401, false},
                      PropertyCase{4, 402, true}, PropertyCase{5, 501, false}),
    [](const ::testing::TestParamInfo<PropertyCase>& info) {
      return test::numbered("k", info.param.k) + "_seed" +
             std::to_string(info.param.seed) +
             (info.param.heavy_skew ? "_skewed" : "_mild");
    });

// ---------------------------------------------------------------------------
// Capacity lemma properties: Algorithm 1's bound is achieved by the greedy
// packer and never exceeded, on random integer configurations.
class CapacityProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(CapacityProperty, AdjustedBoundIsTight) {
  const unsigned k = GetParam();
  Xoshiro256 rng(k * 7919);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = k + static_cast<std::size_t>(rng.next_below(8));
    std::vector<std::uint64_t> caps;
    for (std::size_t i = 0; i < n; ++i) caps.push_back(1 + rng.next_below(60));
    std::ranges::sort(caps, std::greater<>());
    const std::vector<double> capsd(caps.begin(), caps.end());
    const auto bound = static_cast<std::uint64_t>(
        std::floor(max_balls(capsd, k) + 1e-9));
    ASSERT_TRUE(greedy_pack(caps, k, bound).has_value())
        << "k=" << k << " bound=" << bound;
    ASSERT_FALSE(greedy_pack(caps, k, bound + 1).has_value())
        << "k=" << k << " bound=" << bound;
  }
}

INSTANTIATE_TEST_SUITE_P(KSweep, CapacityProperty,
                         ::testing::Values(2u, 3u, 4u, 5u));

// ---------------------------------------------------------------------------
// The trivial strategy under-serves the biggest bin on skewed systems for
// every k (Lemma 2.4), while Redundant Share does not.
class TrivialLossProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(TrivialLossProperty, BiggestBinUnderServed) {
  const unsigned k = GetParam();
  // One big bin of 200 + 2k small bins of 100: fair share of the big bin is
  // k/(k+1) copies per ball -- feasible (k * 200 <= total), yet double the
  // share of any other bin, so Lemma 2.4 applies.
  std::vector<std::uint64_t> caps{200};
  for (unsigned i = 0; i < 2 * k; ++i) caps.push_back(100);
  const ClusterConfig config = cluster_from(caps);
  const DeviceId big = config[0].uid;

  constexpr std::uint64_t kBalls = 60'000;
  const TrivialReplication trivial(config, k);
  const RedundantShare rs(config, k);
  const double trivial_load =
      static_cast<double>(BlockMap(trivial, kBalls).count_on(big)) / kBalls;
  const double rs_load =
      static_cast<double>(BlockMap(rs, kBalls).count_on(big)) / kBalls;

  const double fair =
      static_cast<double>(k) * 200.0 / (200.0 + 100.0 * 2 * k);
  EXPECT_LT(trivial_load, fair - 0.01)
      << "trivial strategy failed to show the capacity loss, k=" << k;
  EXPECT_NEAR(rs_load, fair, 0.02) << "redundant share not fair, k=" << k;
}

INSTANTIATE_TEST_SUITE_P(KSweep, TrivialLossProperty,
                         ::testing::Values(2u, 3u, 4u));

}  // namespace
}  // namespace rds
