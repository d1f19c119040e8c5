#include "src/storage/device_store.hpp"

#include <gtest/gtest.h>

namespace rds {
namespace {

TEST(DeviceStore, WriteReadEraseCycle) {
  DeviceStore store({1, 4, "d"});
  const FragmentKey key{42, 0};
  EXPECT_FALSE(store.contains(key));
  store.write(key, Fragment::seal({1, 2, 3}));
  EXPECT_TRUE(store.contains(key));
  EXPECT_EQ(store.used(), 1u);
  const Fragment* stored = store.read(key);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->bytes, (std::vector<std::uint8_t>{1, 2, 3}));
  const std::uint32_t crc = stored->crc;
  EXPECT_EQ(crc, Fragment::seal({1, 2, 3}).crc);
  EXPECT_TRUE(stored->intact());
  // Bit rot flips a byte and leaves the recorded CRC: the record fails.
  ASSERT_TRUE(store.corrupt(key));
  EXPECT_EQ(store.read(key)->crc, crc);
  EXPECT_FALSE(store.read(key)->intact());
  EXPECT_TRUE(store.erase(key));
  EXPECT_FALSE(store.erase(key));
  EXPECT_EQ(store.used(), 0u);
}

TEST(DeviceStore, OverwriteKeepsUsage) {
  DeviceStore store({1, 2, "d"});
  store.write({1, 0}, Fragment::seal({1}));
  store.write({1, 0}, Fragment::seal({2, 3}));
  EXPECT_EQ(store.used(), 1u);
  EXPECT_EQ(store.read({1, 0})->bytes.size(), 2u);
  EXPECT_TRUE(store.read({1, 0})->intact());
}

TEST(DeviceStore, CapacityEnforced) {
  DeviceStore store({1, 2, "d"});
  store.write({1, 0}, Fragment::seal({}));
  store.write({2, 0}, Fragment::seal({}));
  EXPECT_TRUE(store.read({2, 0})->intact());
  ASSERT_TRUE(store.corrupt({2, 0}));  // empty bytes grow instead
  EXPECT_FALSE(store.read({2, 0})->intact());
  EXPECT_FALSE(store.can_write({3, 0}));
  EXPECT_THROW(store.write({3, 0}, Fragment::seal({})), std::runtime_error);
  // Overwriting an existing key is fine at capacity.
  EXPECT_TRUE(store.can_write({1, 0}));
  store.write({1, 0}, Fragment::seal({9}));
}

TEST(DeviceStore, DistinctFragmentsOfSameBlock) {
  DeviceStore store({1, 4, "d"});
  store.write({7, 0}, Fragment::seal({0}));
  store.write({7, 1}, Fragment::seal({1}));
  EXPECT_EQ(store.used(), 2u);
  EXPECT_NE(store.read({7, 0})->bytes, store.read({7, 1})->bytes);
}

TEST(DeviceStore, FailureSemantics) {
  DeviceStore store({1, 4, "d"});
  store.write({1, 0}, Fragment::seal({5}));
  store.fail();
  EXPECT_TRUE(store.failed());
  EXPECT_EQ(store.read({1, 0}), nullptr);
  EXPECT_FALSE(store.can_write({1, 0}));
  EXPECT_FALSE(store.contains({1, 0}));
  EXPECT_THROW(store.write({2, 0}, Fragment::seal({})), std::runtime_error);
}

TEST(DeviceStore, DeviceAccessor) {
  const DeviceStore store({9, 100, "name"});
  EXPECT_EQ(store.device().uid, 9u);
  EXPECT_EQ(store.capacity(), 100u);
  EXPECT_EQ(store.device().name, "name");
}

}  // namespace
}  // namespace rds
