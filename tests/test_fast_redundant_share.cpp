#include "src/core/fast_redundant_share.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "src/sim/block_map.hpp"
#include "src/sim/scenario.hpp"
#include "src/util/stats.hpp"
#include "tests/clusters.hpp"

namespace rds {
namespace {

using test::cluster_from;

/// Monte-Carlo fairness against the adjusted-capacity shares.
void expect_fair_sampled(const std::vector<std::uint64_t>& caps, unsigned k,
                         std::uint64_t balls = 120'000) {
  const ClusterConfig config = cluster_from(caps);
  const FastRedundantShare s(config, k);
  const BlockMap map(s, balls);
  const auto counts = map.device_counts();

  const std::span<const double> adjusted = s.tables().caps;
  double total = 0.0;
  for (const double a : adjusted) total += a;

  std::vector<std::uint64_t> observed;
  std::vector<double> expected;
  for (std::size_t i = 0; i < config.size(); ++i) {
    const auto it = counts.find(s.tables().uids[i]);
    observed.push_back(it == counts.end() ? 0 : it->second);
    expected.push_back(static_cast<double>(k) * balls * adjusted[i] / total);
  }
  EXPECT_LT(chi_square(observed, expected),
            chi_square_critical_999(config.size() - 1))
      << "n=" << caps.size() << " k=" << k;
}

TEST(FastRedundantShare, DeterministicAndDistinct) {
  const FastRedundantShare s(cluster_from({9, 7, 5, 3, 2, 1}), 3);
  std::vector<DeviceId> out(3), again(3);
  for (std::uint64_t a = 0; a < 5000; ++a) {
    s.place(a, out);
    s.place(a, again);
    EXPECT_EQ(out, again);
    std::vector<DeviceId> sorted = out;
    std::ranges::sort(sorted);
    EXPECT_EQ(std::ranges::adjacent_find(sorted), sorted.end());
  }
}

TEST(FastRedundantShare, FairnessMirrorsSlowVariant) {
  expect_fair_sampled({2, 1, 1}, 2);
  expect_fair_sampled({3, 3, 1, 1}, 2);       // inhomogeneous
  expect_fair_sampled({4, 4, 4, 1, 1}, 2);    // inhomogeneous, L = 2
  expect_fair_sampled({5, 4, 3, 2, 1, 1}, 3);
  expect_fair_sampled({3, 2, 2, 2, 1}, 3);    // nested adjustment case
  expect_fair_sampled({6, 5, 4, 3, 2, 1, 1}, 4, 60'000);
}

TEST(FastRedundantShare, FairnessAfterCapacityAdjustment) {
  expect_fair_sampled({10, 1, 1}, 2);
  expect_fair_sampled({10, 10, 1, 1}, 3);
}

TEST(FastRedundantShare, PaperLadderFairness) {
  const ClusterConfig config = paper_heterogeneous_base();
  const FastRedundantShare s(config, 2);
  constexpr std::uint64_t kBalls = 100'000;
  const BlockMap map(s, kBalls);
  const auto counts = map.device_counts();
  std::vector<std::uint64_t> observed;
  std::vector<double> expected;
  const double total = static_cast<double>(config.total_capacity());
  for (std::size_t i = 0; i < config.size(); ++i) {
    observed.push_back(counts.at(config[i].uid));
    expected.push_back(2.0 * kBalls *
                       static_cast<double>(config[i].capacity) / total);
  }
  EXPECT_LT(chi_square(observed, expected),
            chi_square_critical_999(config.size() - 1));
}

TEST(FastRedundantShare, KEqualsOne) {
  const FastRedundantShare s(cluster_from({6, 3, 1}), 1);
  constexpr std::uint64_t kBalls = 100'000;
  std::vector<std::uint64_t> counts(3, 0);
  std::vector<DeviceId> out(1);
  for (std::uint64_t a = 0; a < kBalls; ++a) {
    s.place(a, out);
    ++counts[out[0]];
  }
  const std::vector<double> expected{0.6 * kBalls, 0.3 * kBalls,
                                     0.1 * kBalls};
  EXPECT_LT(chi_square(counts, expected), chi_square_critical_999(2));
}

TEST(FastRedundantShare, KEqualsN) {
  const FastRedundantShare s(cluster_from({5, 3, 2}), 3);
  std::vector<DeviceId> out(3);
  for (std::uint64_t a = 0; a < 300; ++a) {
    s.place(a, out);
    std::vector<DeviceId> sorted = out;
    std::ranges::sort(sorted);
    EXPECT_EQ(sorted, (std::vector<DeviceId>{0, 1, 2}));
  }
}

TEST(FastRedundantShare, PrimaryDistributionMatchesSlowVariant) {
  // Both variants realize the same Markov chain, so the distribution of the
  // primary (copy 0) must agree between them.
  const ClusterConfig config = cluster_from({7, 5, 4, 2, 1, 1});
  const RedundantShare slow(config, 3);
  const FastRedundantShare fast(config, 3);
  constexpr std::uint64_t kBalls = 150'000;
  std::vector<std::uint64_t> cs(config.size(), 0), cf(config.size(), 0);
  std::vector<DeviceId> out(3);
  for (std::uint64_t a = 0; a < kBalls; ++a) {
    slow.place(a, out);
    ++cs[config.index_of(out[0]).value()];
    fast.place(a, out);
    ++cf[config.index_of(out[0]).value()];
  }
  // Compare the two empirical distributions against each other via
  // chi-square on the slow counts as "expected".
  std::vector<double> expected;
  for (const std::uint64_t c : cs) {
    expected.push_back(std::max(1.0, static_cast<double>(c)));
  }
  EXPECT_LT(chi_square(cf, expected),
            2.0 * chi_square_critical_999(config.size() - 1));
}

TEST(FastRedundantShare, PlaceManyMatchesSequentialPlace) {
  // place_many is the entry point BatchPlacer chunks call; its output must
  // be bit-identical to looping place() over the same addresses.
  const FastRedundantShare s(cluster_from({9, 7, 5, 3, 2, 1}), 3);
  constexpr std::size_t kBatch = 4097;
  std::vector<std::uint64_t> addresses(kBatch);
  std::iota(addresses.begin(), addresses.end(), std::uint64_t{0});
  for (auto& a : addresses) a = a * 2654435761u + 17;
  std::vector<DeviceId> batch(kBatch * 3);
  s.place_many(addresses, batch);
  std::vector<DeviceId> one(3);
  for (std::size_t i = 0; i < kBatch; ++i) {
    s.place(addresses[i], one);
    const std::vector<DeviceId> row(batch.begin() + i * 3,
                                    batch.begin() + (i + 1) * 3);
    ASSERT_EQ(row, one) << "address index " << i;
  }
}

TEST(FastRedundantShare, Validation) {
  EXPECT_THROW(FastRedundantShare(cluster_from({3, 2, 1}), 0),
               std::invalid_argument);
  EXPECT_THROW(FastRedundantShare(cluster_from({3, 2, 1}), 4),
               std::invalid_argument);
}

}  // namespace
}  // namespace rds
