#include "src/sim/block_map.hpp"

#include <gtest/gtest.h>

#include "src/core/redundant_share.hpp"
#include "src/placement/batch_placer.hpp"
#include "src/placement/static_placement.hpp"

namespace rds {
namespace {

ClusterConfig make_cluster() {
  return ClusterConfig({{1, 50, ""}, {2, 50, ""}, {3, 50, ""}, {4, 50, ""}});
}

TEST(BlockMap, MaterializesSequentialAddresses) {
  const RedundantShare s(make_cluster(), 2);
  const BlockMap map(s, 100, 1000);
  EXPECT_EQ(map.ball_count(), 100u);
  EXPECT_EQ(map.replication(), 2u);
  EXPECT_EQ(map.total_copies(), 200u);
  EXPECT_EQ(map.address(0), 1000u);
  EXPECT_EQ(map.address(99), 1099u);
}

TEST(BlockMap, CopiesMatchStrategy) {
  const RedundantShare s(make_cluster(), 3);
  const BlockMap map(s, 50);
  for (std::uint64_t b = 0; b < 50; ++b) {
    const std::vector<DeviceId> direct = s.place(b);
    const auto stored = map.copies(b);
    EXPECT_TRUE(std::equal(direct.begin(), direct.end(), stored.begin()));
  }
}

TEST(BlockMap, ExplicitAddressList) {
  const RedundantShare s(make_cluster(), 2);
  const std::vector<std::uint64_t> addrs{5, 17, 99, 12345};
  const BlockMap map(s, addrs);
  EXPECT_EQ(map.ball_count(), 4u);
  EXPECT_EQ(map.address(2), 99u);
}

TEST(BlockMap, DeviceCountsSumToTotal) {
  const RedundantShare s(make_cluster(), 2);
  const BlockMap map(s, 500);
  const auto counts = map.device_counts();
  std::uint64_t total = 0;
  for (const auto& [uid, c] : counts) total += c;
  EXPECT_EQ(total, map.total_copies());
  EXPECT_EQ(map.count_on(1), counts.at(1));
}

TEST(BlockMap, CountOnUnknownDeviceIsZero) {
  const RedundantShare s(make_cluster(), 2);
  const BlockMap map(s, 10);
  EXPECT_EQ(map.count_on(99), 0u);
}

TEST(BlockMap, BatchPlacerFillMatchesSequential) {
  const RedundantShare s(make_cluster(), 3);
  const BlockMap seq(s, 5000);
  BatchPlacer placer(4);
  const BlockMap par(s, 5000, placer);
  ASSERT_EQ(par.ball_count(), seq.ball_count());
  for (std::uint64_t b = 0; b < 5000; ++b) {
    ASSERT_EQ(par.address(b), seq.address(b));
    const auto cs = seq.copies(b);
    const auto cp = par.copies(b);
    ASSERT_TRUE(std::equal(cs.begin(), cs.end(), cp.begin()));
  }
}

TEST(BlockMap, RedundancyHoldsForRedundantShare) {
  const RedundantShare s(make_cluster(), 3);
  const BlockMap map(s, 1000);
  EXPECT_TRUE(map.redundancy_holds());
}

TEST(BlockMap, RedundancyViolationDetected) {
  // A strategy that intentionally duplicates a device.
  class Broken final : public ReplicationStrategy {
   public:
    void place(std::uint64_t, std::span<DeviceId> out) const override {
      out[0] = 1;
      out[1] = 1;
    }
    [[nodiscard]] unsigned replication() const override { return 2; }
    [[nodiscard]] std::string name() const override { return "broken"; }
    [[nodiscard]] std::size_t device_count() const override { return 2; }
  };
  const Broken s;
  const BlockMap map(s, 5);
  EXPECT_FALSE(map.redundancy_holds());
}

}  // namespace
}  // namespace rds
