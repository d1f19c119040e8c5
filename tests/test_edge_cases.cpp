// Typed edge-case sweep: every ReplicationStrategy implementation through
// the same battery of boundary conditions (k == n, single redundancy group,
// extreme addresses, extreme capacity skew).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "src/core/fast_redundant_share.hpp"
#include "src/core/redundant_share.hpp"
#include "src/placement/static_placement.hpp"
#include "src/placement/trivial_replication.hpp"

namespace rds {
namespace {

template <typename Strategy>
class ReplicatedEdgeCases : public ::testing::Test {
 public:
  static Strategy make(const ClusterConfig& config, unsigned k) {
    return Strategy(config, k);
  }
};

using Strategies =
    ::testing::Types<RedundantShare, FastRedundantShare, TrivialReplication,
                     RoundRobinStriping>;
TYPED_TEST_SUITE(ReplicatedEdgeCases, Strategies);

ClusterConfig skewed_cluster() {
  return ClusterConfig({{1, 1'000'000'000, ""},
                        {2, 1'000'000, ""},
                        {3, 1'000, ""},
                        {4, 1, ""}});
}

void expect_valid_placement(const ReplicationStrategy& s,
                            std::uint64_t address) {
  std::vector<DeviceId> out(s.replication());
  s.place(address, out);
  std::vector<DeviceId> sorted = out;
  std::ranges::sort(sorted);
  EXPECT_EQ(std::ranges::adjacent_find(sorted), sorted.end())
      << "duplicate device at address " << address;
  for (const DeviceId d : out) EXPECT_NE(d, kNoDevice);
}

TYPED_TEST(ReplicatedEdgeCases, KEqualsNUsesEveryDevice) {
  const ClusterConfig config({{1, 10, ""}, {2, 20, ""}, {3, 30, ""}});
  const auto s = TestFixture::make(config, 3);
  std::vector<DeviceId> out(3);
  for (std::uint64_t a = 0; a < 200; ++a) {
    s.place(a, out);
    std::vector<DeviceId> sorted = out;
    std::ranges::sort(sorted);
    EXPECT_EQ(sorted, (std::vector<DeviceId>{1, 2, 3}));
  }
}

TYPED_TEST(ReplicatedEdgeCases, TwoDevicesMirrored) {
  const ClusterConfig config({{7, 5, ""}, {9, 5, ""}});
  const auto s = TestFixture::make(config, 2);
  std::vector<DeviceId> out(2);
  for (std::uint64_t a = 0; a < 100; ++a) {
    s.place(a, out);
    EXPECT_NE(out[0], out[1]);
  }
}

TYPED_TEST(ReplicatedEdgeCases, ExtremeAddresses) {
  const ClusterConfig config(
      {{1, 100, ""}, {2, 100, ""}, {3, 100, ""}, {4, 100, ""}});
  const auto s = TestFixture::make(config, 2);
  for (const std::uint64_t address :
       {std::uint64_t{0}, std::uint64_t{1},
        std::numeric_limits<std::uint64_t>::max(),
        std::numeric_limits<std::uint64_t>::max() - 1,
        std::uint64_t{0x8000000000000000ULL}}) {
    expect_valid_placement(s, address);
  }
}

TYPED_TEST(ReplicatedEdgeCases, ExtremeCapacitySkew) {
  // Nine orders of magnitude between biggest and smallest device.
  const auto s = TestFixture::make(skewed_cluster(), 2);
  for (std::uint64_t a = 0; a < 2000; ++a) {
    expect_valid_placement(s, a);
  }
}

TYPED_TEST(ReplicatedEdgeCases, DeterministicAcrossInstances) {
  // Two independently constructed instances agree (nothing hidden in
  // global state).
  const ClusterConfig config({{1, 10, ""}, {2, 30, ""}, {3, 60, ""}});
  const auto a = TestFixture::make(config, 2);
  const auto b = TestFixture::make(config, 2);
  std::vector<DeviceId> oa(2), ob(2);
  for (std::uint64_t x = 0; x < 500; ++x) {
    a.place(x, oa);
    b.place(x, ob);
    EXPECT_EQ(oa, ob);
  }
}

TYPED_TEST(ReplicatedEdgeCases, CanonicalOrderInvariance) {
  // The same devices presented in any order produce identical placements
  // (ClusterConfig canonicalizes).
  const ClusterConfig forward({{1, 100, ""}, {2, 200, ""}, {3, 300, ""}});
  const ClusterConfig backward({{3, 300, ""}, {2, 200, ""}, {1, 100, ""}});
  const auto a = TestFixture::make(forward, 2);
  const auto b = TestFixture::make(backward, 2);
  std::vector<DeviceId> oa(2), ob(2);
  for (std::uint64_t x = 0; x < 500; ++x) {
    a.place(x, oa);
    b.place(x, ob);
    EXPECT_EQ(oa, ob);
  }
}

// k = 1 degenerates to a single fair draw for the hash-based strategies
// (striping is excluded: k=1 striping is just modulo).
template <typename Strategy>
class SingleCopyDegeneration : public ::testing::Test {};
using HashStrategies = ::testing::Types<RedundantShare, FastRedundantShare,
                                        TrivialReplication>;
TYPED_TEST_SUITE(SingleCopyDegeneration, HashStrategies);

TYPED_TEST(SingleCopyDegeneration, KEqualsOneIsFair) {
  const ClusterConfig config({{1, 600, ""}, {2, 300, ""}, {3, 100, ""}});
  const TypeParam s(config, 1);
  std::uint64_t counts[4] = {};
  std::vector<DeviceId> out(1);
  constexpr std::uint64_t kBalls = 60'000;
  for (std::uint64_t a = 0; a < kBalls; ++a) {
    s.place(a, out);
    ++counts[out[0]];
  }
  EXPECT_NEAR(static_cast<double>(counts[1]) / kBalls, 0.6, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / kBalls, 0.3, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[3]) / kBalls, 0.1, 0.02);
}

}  // namespace
}  // namespace rds
