// BatchPlacer must be a drop-in parallel version of a sequential
// place_many(): identical output for every batch size and thread count,
// reusable across batches and strategies.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/core/fast_redundant_share.hpp"
#include "src/placement/batch_placer.hpp"
#include "src/placement/strategy_factory.hpp"
#include "tests/clusters.hpp"

namespace rds {
namespace {

ClusterConfig make_cluster() {
  std::vector<Device> devices;
  for (DeviceId uid = 0; uid < 12; ++uid) {
    devices.push_back({uid, 500 + 150 * uid, test::numbered("d", uid)});
  }
  return ClusterConfig(std::move(devices));
}

std::vector<std::uint64_t> addresses(std::size_t count) {
  std::vector<std::uint64_t> a(count);
  std::iota(a.begin(), a.end(), std::uint64_t{1000});
  return a;
}

TEST(BatchPlacer, MatchesSequentialPlaceMany) {
  const ClusterConfig config = make_cluster();
  const FastRedundantShare strategy(config, 3);
  // Sizes straddling the chunking threshold (256 addresses per chunk).
  for (const std::size_t count : {std::size_t{0}, std::size_t{1},
                                  std::size_t{255}, std::size_t{256},
                                  std::size_t{5000}}) {
    const std::vector<std::uint64_t> addrs = addresses(count);
    std::vector<DeviceId> expected(count * 3);
    strategy.place_many(addrs, expected);
    for (const unsigned threads : {1u, 2u, 4u}) {
      BatchPlacer placer(threads);
      std::vector<DeviceId> got(count * 3, kNoDevice);
      placer.place(strategy, addrs, got);
      EXPECT_EQ(got, expected)
          << count << " addresses on " << threads << " threads";
    }
  }
}

TEST(BatchPlacer, ReusableAcrossBatchesAndStrategies) {
  const ClusterConfig config = make_cluster();
  BatchPlacer placer(3);
  for (const PlacementKind kind :
       {PlacementKind::kRedundantShare, PlacementKind::kFastRedundantShare,
        PlacementKind::kRoundRobin}) {
    const auto strategy = make_replication_strategy(kind, config, 2);
    const std::vector<std::uint64_t> addrs = addresses(1000);
    std::vector<DeviceId> expected(2000);
    strategy->place_many(addrs, expected);
    for (int round = 0; round < 3; ++round) {
      std::vector<DeviceId> got(2000, kNoDevice);
      placer.place(*strategy, addrs, got);
      EXPECT_EQ(got, expected) << to_string(kind) << " round " << round;
    }
  }
}

// place() is safe from several threads at once: callers take turns, and
// every batch still equals its sequential place_many().
TEST(BatchPlacer, ConcurrentCallersEachGetTheirOwnBatch) {
  const ClusterConfig config = make_cluster();
  const auto exact =
      make_replication_strategy(PlacementKind::kRedundantShare, config, 3);
  const auto fast =
      make_replication_strategy(PlacementKind::kFastRedundantShare, config, 2);
  const std::vector<std::uint64_t> addrs = addresses(3000);
  std::vector<DeviceId> expected_exact(addrs.size() * 3);
  std::vector<DeviceId> expected_fast(addrs.size() * 2);
  exact->place_many(addrs, expected_exact);
  fast->place_many(addrs, expected_fast);

  BatchPlacer placer(3);
  const auto caller = [&](const ReplicationStrategy& strategy,
                          const std::vector<DeviceId>& expected,
                          int& mismatches) {
    std::vector<DeviceId> got(expected.size());
    for (int round = 0; round < 20; ++round) {
      std::fill(got.begin(), got.end(), kNoDevice);
      placer.place(strategy, addrs, got);
      if (got != expected) ++mismatches;
    }
  };
  int exact_mismatches = 0;
  int fast_mismatches = 0;
  std::thread a([&] { caller(*exact, expected_exact, exact_mismatches); });
  std::thread b([&] { caller(*fast, expected_fast, fast_mismatches); });
  a.join();
  b.join();
  EXPECT_EQ(exact_mismatches, 0);
  EXPECT_EQ(fast_mismatches, 0);
}

TEST(BatchPlacer, RejectsMismatchedOutputSpan) {
  const FastRedundantShare strategy(make_cluster(), 2);
  BatchPlacer placer(2);
  const std::vector<std::uint64_t> addrs = addresses(10);
  std::vector<DeviceId> wrong(10 * 2 + 1);
  EXPECT_THROW(placer.place(strategy, addrs, wrong), std::invalid_argument);
}

TEST(BatchPlacer, ThreadCountIncludesCaller) {
  EXPECT_EQ(BatchPlacer(1).thread_count(), 1u);
  EXPECT_EQ(BatchPlacer(4).thread_count(), 4u);
  EXPECT_GE(BatchPlacer(0).thread_count(), 1u);  // hardware_concurrency
}

TEST(BatchPlacer, PlaceManyDefaultValidates) {
  const FastRedundantShare strategy(make_cluster(), 2);
  const std::vector<std::uint64_t> addrs = addresses(4);
  std::vector<DeviceId> wrong(7);
  EXPECT_THROW(strategy.place_many(addrs, wrong), std::invalid_argument);
}

}  // namespace
}  // namespace rds
