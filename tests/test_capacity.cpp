#include "src/core/capacity.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "src/cluster/cluster_config.hpp"
#include "src/util/checked_math.hpp"
#include "src/util/random.hpp"

namespace rds {
namespace {

TEST(CapacityEfficient, Lemma21Condition) {
  // k * b_max <= B  iff capacity efficient.
  EXPECT_TRUE(capacity_efficient(std::vector<double>{2, 1, 1}, 2));   // 4 >= 4
  EXPECT_FALSE(capacity_efficient(std::vector<double>{3, 1, 1}, 2));  // 6 > 5
  EXPECT_TRUE(capacity_efficient(std::vector<double>{1, 1, 1}, 3));
  EXPECT_FALSE(capacity_efficient(std::vector<double>{2, 1, 1}, 3));
  EXPECT_FALSE(capacity_efficient(std::vector<double>{1, 1}, 3));  // n < k
}

TEST(OptimalWeights, NoClampWhenFeasible) {
  const std::vector<double> caps{2, 1, 1};
  const std::vector<double> adj = optimal_weights(caps, 2);
  EXPECT_EQ(adj, caps);
}

TEST(OptimalWeights, ClampsOversizedBin) {
  // {10, 1, 1}, k=2: bin 0 can mirror with at most 2 blocks of partners.
  const std::vector<double> adj =
      optimal_weights(std::vector<double>{10, 1, 1}, 2);
  EXPECT_DOUBLE_EQ(adj[0], 2.0);
  EXPECT_DOUBLE_EQ(adj[1], 1.0);
  EXPECT_DOUBLE_EQ(adj[2], 1.0);
}

TEST(OptimalWeights, RecursiveClampK3) {
  // {10, 10, 1, 1}, k=3: inner level clamps bin 1 to 2, outer clamps bin 0.
  const std::vector<double> adj =
      optimal_weights(std::vector<double>{10, 10, 1, 1}, 3);
  EXPECT_DOUBLE_EQ(adj[0], 2.0);
  EXPECT_DOUBLE_EQ(adj[1], 2.0);
  EXPECT_DOUBLE_EQ(adj[2], 1.0);
  EXPECT_DOUBLE_EQ(adj[3], 1.0);
}

TEST(OptimalWeights, AllEqualForKEqualsN) {
  // k == n: every bin stores every ball -> usable is n * min capacity.
  const std::vector<double> adj =
      optimal_weights(std::vector<double>{9, 7, 5, 2}, 4);
  for (const double a : adj) EXPECT_DOUBLE_EQ(a, 2.0);
}

TEST(OptimalWeights, ResultSatisfiesLemma21) {
  Xoshiro256 rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 2 + rng.next_below(10);
    const unsigned k =
        2 + static_cast<unsigned>(rng.next_below(std::min<std::uint64_t>(4, n - 1)));
    std::vector<double> caps;
    for (std::size_t i = 0; i < n; ++i) {
      caps.push_back(1.0 + static_cast<double>(rng.next_below(1000)));
    }
    std::ranges::sort(caps, std::greater<>());
    const std::vector<double> adj = optimal_weights(caps, k);
    // Adjusted never exceeds raw, order preserved, Lemma 2.1 holds.
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_LE(adj[i], caps[i] + 1e-9);
      if (i > 0) {
        EXPECT_LE(adj[i], adj[i - 1] + 1e-9);
      }
      total += adj[i];
    }
    EXPECT_LE(k * adj[0], total + 1e-6 * total);
  }
}

TEST(OptimalWeights, Validation) {
  EXPECT_THROW((void)optimal_weights(std::vector<double>{1, 2}, 2),
               std::invalid_argument);  // not descending
  EXPECT_THROW((void)optimal_weights(std::vector<double>{1}, 2),
               std::invalid_argument);  // n < k
  EXPECT_THROW((void)optimal_weights(std::vector<double>{1, 0}, 2),
               std::invalid_argument);  // zero capacity
  EXPECT_THROW((void)optimal_weights(std::vector<double>{1, 1}, 0),
               std::invalid_argument);  // k == 0
}

TEST(MaxBalls, MatchesHandComputedExamples) {
  EXPECT_DOUBLE_EQ(max_balls(std::vector<double>{2, 1, 1}, 2), 2.0);
  EXPECT_DOUBLE_EQ(max_balls(std::vector<double>{10, 1, 1}, 2), 2.0);
  EXPECT_DOUBLE_EQ(max_balls(std::vector<double>{10, 10, 1}, 2), 10.5);
  EXPECT_DOUBLE_EQ(max_balls(std::vector<double>{10, 10, 1, 1}, 3), 2.0);
  EXPECT_DOUBLE_EQ(max_balls(std::vector<double>{7, 1, 1, 1}, 3), 1.5);
}

TEST(GreedyPack, AchievesTheLemmaBound) {
  // The constructive proof: greedy always packs floor(B_max) balls.
  Xoshiro256 rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 3 + rng.next_below(8);
    const unsigned k = 2 + static_cast<unsigned>(rng.next_below(2));
    if (n < k) continue;
    std::vector<std::uint64_t> caps;
    for (std::size_t i = 0; i < n; ++i) caps.push_back(1 + rng.next_below(40));
    std::ranges::sort(caps, std::greater<>());
    std::vector<double> capsd(caps.begin(), caps.end());

    const auto bound =
        static_cast<std::uint64_t>(std::floor(max_balls(capsd, k) + 1e-9));
    const auto packed = greedy_pack(caps, k, bound);
    ASSERT_TRUE(packed.has_value())
        << "greedy failed to pack " << bound << " balls";
    // No bin above capacity, total copies == k * bound.
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_LE((*packed)[i], caps[i]);
      total += (*packed)[i];
    }
    EXPECT_EQ(total, k * bound);
  }
}

TEST(GreedyPack, FailsBeyondTheBound) {
  // One ball more than B_max must be impossible (Lemma 2.2 is tight).
  const std::vector<std::uint64_t> caps{10, 1, 1};
  EXPECT_TRUE(greedy_pack(caps, 2, 2).has_value());
  EXPECT_FALSE(greedy_pack(caps, 2, 3).has_value());

  const std::vector<std::uint64_t> caps2{10, 10, 1, 1};
  EXPECT_TRUE(greedy_pack(caps2, 3, 2).has_value());
  EXPECT_FALSE(greedy_pack(caps2, 3, 3).has_value());
}

TEST(GreedyPack, TightnessOnRandomInstances) {
  // floor(B_max) packs, floor(B_max) + 1 does not (when capacities are
  // integers and B_max is integral the +1 case must fail; when fractional
  // the floor+1 case must also fail).
  Xoshiro256 rng(21);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 3 + rng.next_below(6);
    const unsigned k = 2;
    std::vector<std::uint64_t> caps;
    for (std::size_t i = 0; i < n; ++i) caps.push_back(1 + rng.next_below(25));
    std::ranges::sort(caps, std::greater<>());
    std::vector<double> capsd(caps.begin(), caps.end());
    const double exact = max_balls(capsd, k);
    const auto bound = static_cast<std::uint64_t>(std::floor(exact + 1e-9));
    EXPECT_TRUE(greedy_pack(caps, k, bound).has_value());
    EXPECT_FALSE(greedy_pack(caps, k, bound + 1).has_value());
  }
}

TEST(AnalyzeCapacity, ReportsAllFields) {
  const CapacityAnalysis a =
      analyze_capacity(std::vector<double>{10, 1, 1}, 2);
  EXPECT_FALSE(a.feasible_unadjusted);
  EXPECT_DOUBLE_EQ(a.raw_capacity, 12.0);
  EXPECT_DOUBLE_EQ(a.usable_capacity, 4.0);
  EXPECT_DOUBLE_EQ(a.max_balls, 2.0);

  const CapacityAnalysis b = analyze_capacity(std::vector<double>{2, 1, 1}, 2);
  EXPECT_TRUE(b.feasible_unadjusted);
  EXPECT_DOUBLE_EQ(b.usable_capacity, b.raw_capacity);
}

TEST(CheckedMath, AddMulSumDetectOverflow) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(checked_add(1, 2).value_or_throw(), 3u);
  EXPECT_EQ(checked_add(kMax, 0).value_or_throw(), kMax);
  EXPECT_EQ(checked_add(kMax, 1).code(), ErrorCode::kInvalidArgument);

  EXPECT_EQ(checked_mul(3, 7).value_or_throw(), 21u);
  EXPECT_EQ(checked_mul(kMax, 1).value_or_throw(), kMax);
  EXPECT_EQ(checked_mul(kMax / 2 + 1, 2).code(),
            ErrorCode::kInvalidArgument);

  const std::vector<std::uint64_t> fits{1, 2, 3};
  EXPECT_EQ(checked_sum(fits).value_or_throw(), 6u);
  const std::vector<std::uint64_t> wraps{kMax, 1};
  EXPECT_EQ(checked_sum(wraps).code(), ErrorCode::kInvalidArgument);
}

TEST(CheckedMath, TryCapacityEfficientMatchesLemma21Exactly) {
  // Same instances as Lemma21Condition, on exact byte counts.
  EXPECT_TRUE(ClusterConfig({{1, 2, "a"}, {2, 1, "b"}, {3, 1, "c"}})
                  .try_capacity_efficient(2)
                  .value_or_throw());
  EXPECT_FALSE(ClusterConfig({{1, 3, "a"}, {2, 1, "b"}, {3, 1, "c"}})
                   .try_capacity_efficient(2)
                   .value_or_throw());
  EXPECT_EQ(ClusterConfig({{1, 2, "a"}}).try_capacity_efficient(0).code(),
            ErrorCode::kInvalidArgument);

  // An overflowing demand k * b_max is a diagnosis, not a verdict.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(ClusterConfig({{1, kMax / 2 + 1, "a"}, {2, 1, "b"}})
                .try_capacity_efficient(3)
                .code(),
            ErrorCode::kInvalidArgument);
}

TEST(CheckedMath, CanonicalizeRejectsOverflowingTotal) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_THROW(ClusterConfig({{1, kMax, "a"}, {2, kMax, "b"}}),
               std::invalid_argument);
}

}  // namespace
}  // namespace rds
