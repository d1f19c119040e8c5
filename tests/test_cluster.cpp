#include "src/cluster/cluster_config.hpp"

#include <gtest/gtest.h>

namespace rds {
namespace {

ClusterConfig make_cluster() {
  return ClusterConfig({{1, 100, "a"}, {2, 300, "b"}, {3, 200, "c"}});
}

TEST(ClusterConfig, CanonicalOrderIsCapacityDescending) {
  const ClusterConfig c = make_cluster();
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c[0].uid, 2u);
  EXPECT_EQ(c[1].uid, 3u);
  EXPECT_EQ(c[2].uid, 1u);
}

TEST(ClusterConfig, TiesBrokenByUid) {
  const ClusterConfig c({{5, 100, ""}, {2, 100, ""}, {9, 100, ""}});
  EXPECT_EQ(c[0].uid, 2u);
  EXPECT_EQ(c[1].uid, 5u);
  EXPECT_EQ(c[2].uid, 9u);
}

TEST(ClusterConfig, SuffixSums) {
  const ClusterConfig c = make_cluster();
  EXPECT_EQ(c.total_capacity(), 600u);
  EXPECT_EQ(c.suffix_capacity(0), 600u);
  EXPECT_EQ(c.suffix_capacity(1), 300u);
  EXPECT_EQ(c.suffix_capacity(2), 100u);
  EXPECT_EQ(c.suffix_capacity(3), 0u);
}

TEST(ClusterConfig, RelativeCapacity) {
  const ClusterConfig c = make_cluster();
  EXPECT_DOUBLE_EQ(c.relative_capacity(0), 0.5);
  EXPECT_DOUBLE_EQ(c.relative_capacity(2), 100.0 / 600.0);
}

TEST(ClusterConfig, IndexOf) {
  const ClusterConfig c = make_cluster();
  EXPECT_EQ(c.index_of(2).value(), 0u);
  EXPECT_EQ(c.index_of(1).value(), 2u);
  EXPECT_FALSE(c.index_of(99).has_value());
  EXPECT_TRUE(c.contains(3));
  EXPECT_FALSE(c.contains(4));
}

TEST(ClusterConfig, RejectsDuplicateUid) {
  EXPECT_THROW(ClusterConfig({{1, 10, ""}, {1, 20, ""}}),
               std::invalid_argument);
}

// A refused edit leaves the configuration exactly as it was: same devices,
// same sums, same version.
void expect_unchanged(const ClusterConfig& c, const ClusterConfig& before) {
  EXPECT_TRUE(c == before);
  EXPECT_EQ(c.size(), before.size());
  EXPECT_EQ(c.total_capacity(), before.total_capacity());
  for (std::size_t i = 0; i <= c.size(); ++i) {
    EXPECT_EQ(c.suffix_capacity(i), before.suffix_capacity(i)) << i;
  }
  EXPECT_EQ(c.version(), before.version());
}

TEST(ClusterConfig, RejectsZeroCapacity) {
  EXPECT_THROW(ClusterConfig({{1, 0, ""}}), std::invalid_argument);

  ClusterConfig c({{1, 1000, "a"}, {2, 1000, "b"}});
  const ClusterConfig before = c;
  EXPECT_THROW(c.add_device({4, 0, ""}), std::invalid_argument);
  expect_unchanged(c, before);
  EXPECT_FALSE(c.contains(4));
  EXPECT_THROW(c.resize_device(1, 0), std::invalid_argument);
  expect_unchanged(c, before);
  EXPECT_EQ(c[*c.index_of(1)].capacity, 1000u);
  // The refused uid is free for a valid device.
  c.add_device({4, 1000, ""});
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.total_capacity(), 3000u);
}

TEST(ClusterConfig, RejectsReservedUid) {
  EXPECT_THROW(ClusterConfig({{kNoDevice, 10, ""}}), std::invalid_argument);

  ClusterConfig c({{1, 1000, "a"}, {2, 1000, "b"}});
  const ClusterConfig before = c;
  EXPECT_THROW(c.add_device({kNoDevice, 10, ""}), std::invalid_argument);
  expect_unchanged(c, before);
  EXPECT_FALSE(c.contains(kNoDevice));
}

TEST(ClusterConfig, AddDevice) {
  ClusterConfig c = make_cluster();
  const std::uint64_t v0 = c.version();
  c.add_device({4, 400, "d"});
  EXPECT_GT(c.version(), v0);
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(c[0].uid, 4u);  // re-sorted
  EXPECT_EQ(c.total_capacity(), 1000u);
  EXPECT_THROW(c.add_device({4, 1, ""}), std::invalid_argument);
}

TEST(ClusterConfig, RemoveDevice) {
  ClusterConfig c = make_cluster();
  c.remove_device(2);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_FALSE(c.contains(2));
  EXPECT_EQ(c.total_capacity(), 300u);
  EXPECT_THROW(c.remove_device(2), std::out_of_range);
}

TEST(ClusterConfig, ResizeDevice) {
  ClusterConfig c = make_cluster();
  c.resize_device(1, 1000);
  EXPECT_EQ(c[0].uid, 1u);  // now biggest
  EXPECT_EQ(c.total_capacity(), 1500u);
  EXPECT_THROW(c.resize_device(1, 0), std::invalid_argument);
  EXPECT_THROW(c.resize_device(77, 10), std::out_of_range);
}

TEST(ClusterConfig, CapacitiesVector) {
  const ClusterConfig c = make_cluster();
  const std::vector<double> caps = c.capacities();
  ASSERT_EQ(caps.size(), 3u);
  EXPECT_EQ(caps[0], 300.0);
  EXPECT_EQ(caps[1], 200.0);
  EXPECT_EQ(caps[2], 100.0);
}

TEST(ClusterConfig, EqualityIgnoresHistory) {
  ClusterConfig a = make_cluster();
  ClusterConfig b = make_cluster();
  a.add_device({9, 50, ""});
  a.remove_device(9);
  EXPECT_TRUE(a == b);
}

}  // namespace
}  // namespace rds
