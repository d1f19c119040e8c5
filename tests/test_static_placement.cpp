#include "src/placement/static_placement.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace rds {
namespace {

ClusterConfig make_cluster() {
  return ClusterConfig({{1, 100, ""}, {2, 100, ""}, {3, 100, ""}, {4, 100, ""}});
}

TEST(RoundRobinStriping, CopiesAreDistinct) {
  const RoundRobinStriping s(make_cluster(), 3);
  std::vector<DeviceId> out(3);
  for (std::uint64_t a = 0; a < 1000; ++a) {
    s.place(a, out);
    std::vector<DeviceId> sorted = out;
    std::ranges::sort(sorted);
    EXPECT_EQ(std::ranges::adjacent_find(sorted), sorted.end());
  }
}

TEST(RoundRobinStriping, RejectsBadArguments) {
  EXPECT_THROW(RoundRobinStriping(make_cluster(), 0), std::invalid_argument);
  EXPECT_THROW(RoundRobinStriping(make_cluster(), 5), std::invalid_argument);
  const RoundRobinStriping s(make_cluster(), 2);
  std::vector<DeviceId> wrong(3);
  EXPECT_THROW(s.place(0, wrong), std::invalid_argument);
}

TEST(RoundRobinStriping, NearlyFullReshuffleOnGrowth) {
  // The motivating pathology: growing the array moves almost everything.
  ClusterConfig before = make_cluster();
  ClusterConfig after = before;
  after.add_device({5, 100, ""});
  const RoundRobinStriping sb(before, 2);
  const RoundRobinStriping sa(after, 2);
  std::uint64_t same = 0;
  constexpr std::uint64_t kBalls = 10'000;
  std::vector<DeviceId> ob(2), oa(2);
  for (std::uint64_t a = 0; a < kBalls; ++a) {
    sb.place(a, ob);
    sa.place(a, oa);
    if (ob == oa) ++same;
  }
  // Fewer than half the balls keep their placement (in fact ~1/5).
  EXPECT_LT(same, kBalls / 2);
}

}  // namespace
}  // namespace rds
