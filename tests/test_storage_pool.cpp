#include "src/storage/storage_pool.hpp"

#include <gtest/gtest.h>

#include "src/util/random.hpp"

namespace rds {
namespace {

ClusterConfig pool_config() {
  return ClusterConfig({{1, 3000, "a"},
                        {2, 2500, "b"},
                        {3, 2000, "c"},
                        {4, 1500, "d"},
                        {5, 1000, "e"},
                        {6, 1000, "f"}});
}

Bytes payload(std::uint64_t block, std::uint64_t salt) {
  Bytes b(64);
  Xoshiro256 rng(block * 131 + salt);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng());
  return b;
}

TEST(StoragePool, VolumesAreIsolatedNamespaces) {
  StoragePool pool(pool_config());
  VirtualDisk& scratch = pool.create_volume(
      "scratch", std::make_shared<MirroringScheme>(2));
  VirtualDisk& archive = pool.create_volume(
      "archive", std::make_shared<ReedSolomonScheme>(4, 2));

  // Both volumes use the SAME block ids with different content.
  for (std::uint64_t b = 0; b < 100; ++b) {
    scratch.try_write(b, payload(b, 1)).value_or_throw();
    archive.try_write(b, payload(b, 2)).value_or_throw();
  }
  for (std::uint64_t b = 0; b < 100; ++b) {
    EXPECT_EQ(scratch.try_read(b).value_or_throw(), payload(b, 1));
    EXPECT_EQ(archive.try_read(b).value_or_throw(), payload(b, 2));
  }
  EXPECT_TRUE(scratch.scrub().clean());
  EXPECT_TRUE(archive.scrub().clean());
  EXPECT_EQ(pool.volume_count(), 2u);
  EXPECT_EQ(pool.volume("scratch").volume_id(),
            scratch.volume_id());
}

TEST(StoragePool, SharedCapacityIsContended) {
  // Two volumes' fragments land on the same stores: device usage is the sum.
  StoragePool pool(pool_config());
  VirtualDisk& a = pool.create_volume("a", std::make_shared<MirroringScheme>(2));
  VirtualDisk& b = pool.create_volume("b", std::make_shared<MirroringScheme>(3));
  for (std::uint64_t block = 0; block < 200; ++block) {
    a.try_write(block, payload(block, 1)).value_or_throw();
    b.try_write(block, payload(block, 2)).value_or_throw();
  }
  std::uint64_t total = 0;
  for (const auto& u : pool.usage()) total += u.used;
  EXPECT_EQ(total, 200u * 2 + 200u * 3);
}

TEST(StoragePool, PoolWideDeviceAddMigratesEveryVolume) {
  StoragePool pool(pool_config());
  VirtualDisk& a = pool.create_volume("a", std::make_shared<MirroringScheme>(2));
  VirtualDisk& b = pool.create_volume("b", std::make_shared<ReedSolomonScheme>(3, 2));
  for (std::uint64_t block = 0; block < 200; ++block) {
    a.try_write(block, payload(block, 1)).value_or_throw();
    b.try_write(block, payload(block, 2)).value_or_throw();
  }
  pool.add_device({9, 4000, "grown"});
  EXPECT_TRUE(pool.config().contains(9));
  EXPECT_TRUE(a.config().contains(9));
  EXPECT_TRUE(b.config().contains(9));
  EXPECT_GT(a.used_on(9), 0u);  // shared store: counts both volumes
  for (std::uint64_t block = 0; block < 200; ++block) {
    EXPECT_EQ(a.try_read(block).value_or_throw(), payload(block, 1));
    EXPECT_EQ(b.try_read(block).value_or_throw(), payload(block, 2));
  }
  EXPECT_TRUE(a.scrub().clean());
  EXPECT_TRUE(b.scrub().clean());
}

TEST(StoragePool, PoolWideRemoveDrainsEveryVolume) {
  StoragePool pool(pool_config());
  VirtualDisk& a = pool.create_volume("a", std::make_shared<MirroringScheme>(2));
  VirtualDisk& b = pool.create_volume("b", std::make_shared<MirroringScheme>(2));
  for (std::uint64_t block = 0; block < 150; ++block) {
    a.try_write(block, payload(block, 1)).value_or_throw();
    b.try_write(block, payload(block, 2)).value_or_throw();
  }
  pool.remove_device(6);
  EXPECT_FALSE(pool.config().contains(6));
  for (std::uint64_t block = 0; block < 150; ++block) {
    EXPECT_EQ(a.try_read(block).value_or_throw(), payload(block, 1));
    EXPECT_EQ(b.try_read(block).value_or_throw(), payload(block, 2));
  }
}

TEST(StoragePool, FailureAndRebuildSpanVolumes) {
  StoragePool pool(pool_config());
  VirtualDisk& a = pool.create_volume("a", std::make_shared<MirroringScheme>(2));
  VirtualDisk& b = pool.create_volume("b", std::make_shared<ReedSolomonScheme>(3, 2));
  for (std::uint64_t block = 0; block < 150; ++block) {
    a.try_write(block, payload(block, 1)).value_or_throw();
    b.try_write(block, payload(block, 2)).value_or_throw();
  }
  pool.fail_device(1);  // biggest device; both volumes degraded
  for (std::uint64_t block = 0; block < 150; ++block) {
    EXPECT_EQ(a.try_read(block).value_or_throw(), payload(block, 1));
    EXPECT_EQ(b.try_read(block).value_or_throw(), payload(block, 2));
  }
  const std::uint64_t rebuilt = pool.rebuild();
  EXPECT_GT(rebuilt, 0u);
  EXPECT_FALSE(pool.config().contains(1));
  EXPECT_FALSE(a.config().contains(1));
  EXPECT_TRUE(a.scrub().clean());
  EXPECT_TRUE(b.scrub().clean());
}

TEST(StoragePool, DropVolumeReleasesCapacity) {
  StoragePool pool(pool_config());
  VirtualDisk& a = pool.create_volume("a", std::make_shared<MirroringScheme>(2));
  VirtualDisk& b = pool.create_volume("b", std::make_shared<MirroringScheme>(2));
  for (std::uint64_t block = 0; block < 100; ++block) {
    a.try_write(block, payload(block, 1)).value_or_throw();
    b.try_write(block, payload(block, 2)).value_or_throw();
  }
  std::uint64_t before = 0;
  for (const auto& u : pool.usage()) before += u.used;
  EXPECT_TRUE(pool.drop_volume("a"));
  EXPECT_FALSE(pool.drop_volume("a"));
  std::uint64_t after = 0;
  for (const auto& u : pool.usage()) after += u.used;
  EXPECT_EQ(after, before - 200u);
  // Volume b untouched.
  for (std::uint64_t block = 0; block < 100; ++block) {
    EXPECT_EQ(pool.volume("b").try_read(block).value_or_throw(),
              payload(block, 2));
  }
}

TEST(StoragePool, Validation) {
  StoragePool pool(pool_config());
  pool.create_volume("a", std::make_shared<MirroringScheme>(2));
  EXPECT_THROW(pool.create_volume("a", std::make_shared<MirroringScheme>(2)),
               std::invalid_argument);
  EXPECT_THROW((void)pool.volume("nope"), std::out_of_range);
  EXPECT_THROW(pool.add_device({1, 100, ""}), std::invalid_argument);
  EXPECT_THROW(pool.remove_device(99), std::out_of_range);
  EXPECT_THROW(pool.fail_device(99), std::out_of_range);
  // Scheme needing more fragments than devices.
  EXPECT_THROW(
      pool.create_volume("big", std::make_shared<ReedSolomonScheme>(8, 2)),
      std::invalid_argument);
}

}  // namespace
}  // namespace rds
