#include "src/storage/device_store.hpp"

#include <gtest/gtest.h>

namespace rds {
namespace {

TEST(DeviceStore, WriteReadEraseCycle) {
  DeviceStore store({1, 4, "d"});
  const FragmentKey key{42, 0};
  EXPECT_FALSE(store.contains(key));
  store.write(key, {1, 2, 3});
  EXPECT_TRUE(store.contains(key));
  EXPECT_EQ(store.used(), 1u);
  const std::vector<std::uint8_t>* payload = store.read(key);
  ASSERT_NE(payload, nullptr);
  EXPECT_EQ(*payload, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_TRUE(store.erase(key));
  EXPECT_FALSE(store.erase(key));
  EXPECT_EQ(store.used(), 0u);
}

TEST(DeviceStore, OverwriteKeepsUsage) {
  DeviceStore store({1, 2, "d"});
  store.write({1, 0}, {1});
  store.write({1, 0}, {2, 3});
  EXPECT_EQ(store.used(), 1u);
  EXPECT_EQ(store.read({1, 0})->size(), 2u);
}

TEST(DeviceStore, CapacityEnforced) {
  DeviceStore store({1, 2, "d"});
  store.write({1, 0}, {});
  store.write({2, 0}, {});
  EXPECT_FALSE(store.can_write({3, 0}));
  EXPECT_THROW(store.write({3, 0}, {}), std::runtime_error);
  // Overwriting an existing key is fine at capacity.
  EXPECT_TRUE(store.can_write({1, 0}));
  store.write({1, 0}, {9});
}

TEST(DeviceStore, DistinctFragmentsOfSameBlock) {
  DeviceStore store({1, 4, "d"});
  store.write({7, 0}, {0});
  store.write({7, 1}, {1});
  EXPECT_EQ(store.used(), 2u);
  EXPECT_NE(*store.read({7, 0}), *store.read({7, 1}));
}

TEST(DeviceStore, FailureSemantics) {
  DeviceStore store({1, 4, "d"});
  store.write({1, 0}, {5});
  store.fail();
  EXPECT_TRUE(store.failed());
  EXPECT_EQ(store.read({1, 0}), nullptr);
  EXPECT_FALSE(store.can_write({1, 0}));
  EXPECT_FALSE(store.contains({1, 0}));
  EXPECT_THROW(store.write({2, 0}, {}), std::runtime_error);
}

TEST(DeviceStore, DeviceAccessor) {
  const DeviceStore store({9, 100, "name"});
  EXPECT_EQ(store.device().uid, 9u);
  EXPECT_EQ(store.capacity(), 100u);
  EXPECT_EQ(store.device().name, "name");
}

}  // namespace
}  // namespace rds
