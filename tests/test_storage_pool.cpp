#include "src/storage/storage_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "src/storage/snapshot.hpp"
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

ClusterConfig equal_devices(DeviceId n, std::uint64_t capacity) {
  std::vector<Device> devices;
  for (DeviceId uid = 1; uid <= n; ++uid) devices.push_back({uid, capacity, ""});
  return ClusterConfig(std::move(devices));
}

// Every volume sees the pool's one configuration.
void expect_one_config(StoragePool& pool) {
  for (const std::string& name : pool.volume_names()) {
    EXPECT_TRUE(pool.volume(name)->config() == pool.config()) << name;
  }
}

// What a refused pool edit must leave alone: the configuration, each
// volume's epoch and moved-fragment count, and every device's occupancy.
struct PoolState {
  ClusterConfig config;
  std::unordered_map<std::string, std::uint64_t> epochs;
  std::unordered_map<std::string, std::uint64_t> moved;
  std::unordered_map<DeviceId, std::uint64_t> used;

  explicit PoolState(StoragePool& pool) : config(pool.config()) {
    for (const std::string& name : pool.volume_names()) {
      VirtualDisk& volume = *pool.volume(name);
      epochs[name] = volume.placement_snapshot()->epoch;
      moved[name] = volume.stats().fragments_moved;
    }
    for (const auto& u : pool.usage()) used[u.device.uid] = u.used;
  }
  void expect_same(StoragePool& pool) const {
    EXPECT_TRUE(pool.config() == config);
    expect_one_config(pool);
    for (const auto& [name, epoch] : epochs) {
      VirtualDisk& volume = *pool.volume(name);
      EXPECT_EQ(volume.placement_snapshot()->epoch, epoch) << name;
      EXPECT_EQ(volume.stats().fragments_moved, moved.at(name)) << name;
    }
    for (const auto& u : pool.usage()) {
      EXPECT_EQ(u.used, used.at(u.device.uid)) << u.device.uid;
    }
  }
};

TEST(StoragePool, VolumesAreIsolatedNamespaces) {
  StoragePool pool(pool_config());
  VirtualDisk& scratch = *pool.create_volume(
      "scratch", std::make_shared<MirroringScheme>(2));
  VirtualDisk& archive = *pool.create_volume(
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
  EXPECT_EQ(pool.volume("scratch")->volume_id(),
            scratch.volume_id());
}

TEST(StoragePool, SharedCapacityIsContended) {
  // Two volumes' fragments land on the same stores: device usage is the sum.
  StoragePool pool(pool_config());
  VirtualDisk& a = *pool.create_volume("a", std::make_shared<MirroringScheme>(2));
  VirtualDisk& b = *pool.create_volume("b", std::make_shared<MirroringScheme>(3));
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
  VirtualDisk& a = *pool.create_volume("a", std::make_shared<MirroringScheme>(2));
  VirtualDisk& b = *pool.create_volume("b", std::make_shared<ReedSolomonScheme>(3, 2));
  for (std::uint64_t block = 0; block < 200; ++block) {
    a.try_write(block, payload(block, 1)).value_or_throw();
    b.try_write(block, payload(block, 2)).value_or_throw();
  }
  pool.try_add_device({9, 4000, "grown"}).value_or_throw();
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
  VirtualDisk& a = *pool.create_volume("a", std::make_shared<MirroringScheme>(2));
  VirtualDisk& b = *pool.create_volume("b", std::make_shared<MirroringScheme>(2));
  for (std::uint64_t block = 0; block < 150; ++block) {
    a.try_write(block, payload(block, 1)).value_or_throw();
    b.try_write(block, payload(block, 2)).value_or_throw();
  }
  pool.try_remove_device(6).value_or_throw();
  EXPECT_FALSE(pool.config().contains(6));
  for (std::uint64_t block = 0; block < 150; ++block) {
    EXPECT_EQ(a.try_read(block).value_or_throw(), payload(block, 1));
    EXPECT_EQ(b.try_read(block).value_or_throw(), payload(block, 2));
  }
}

TEST(StoragePool, FailureAndRebuildSpanVolumes) {
  StoragePool pool(pool_config());
  VirtualDisk& a = *pool.create_volume("a", std::make_shared<MirroringScheme>(2));
  VirtualDisk& b = *pool.create_volume("b", std::make_shared<ReedSolomonScheme>(3, 2));
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
  VirtualDisk& a = *pool.create_volume("a", std::make_shared<MirroringScheme>(2));
  VirtualDisk& b = *pool.create_volume("b", std::make_shared<MirroringScheme>(2));
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
    EXPECT_EQ(pool.volume("b")->try_read(block).value_or_throw(),
              payload(block, 2));
  }
}

TEST(StoragePool, Validation) {
  StoragePool pool(pool_config());
  pool.create_volume("a", std::make_shared<MirroringScheme>(2));
  EXPECT_THROW(pool.create_volume("a", std::make_shared<MirroringScheme>(2)),
               std::invalid_argument);
  EXPECT_THROW((void)pool.volume("nope"), std::out_of_range);
  EXPECT_EQ(pool.try_add_device({1, 100, ""}).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(pool.try_remove_device(99).code(), ErrorCode::kNotFound);
  EXPECT_THROW(pool.fail_device(99), std::out_of_range);
  // Scheme needing more fragments than devices.
  EXPECT_THROW(
      pool.create_volume("big", std::make_shared<ReedSolomonScheme>(8, 2)),
      std::invalid_argument);
}

// A remove that one volume has room for and the other has not moves
// neither: the whole plan is checked before anything moves.
TEST(StoragePool, RemoveWithoutRoomMovesNoVolume) {
  StoragePool pool(equal_devices(4, 1000));
  VirtualDisk& a = *pool.create_volume("a", std::make_shared<MirroringScheme>(2));
  VirtualDisk& b = *pool.create_volume("b", std::make_shared<MirroringScheme>(2));
  for (std::uint64_t block = 0; block < 100; ++block) {
    a.try_write(block, payload(block, 1)).value_or_throw();
  }
  for (std::uint64_t block = 0; block < 1600; ++block) {
    b.try_write(block, payload(block, 2)).value_or_throw();
  }
  const PoolState before(pool);

  const Result<void> refused = pool.try_remove_device(4);
  ASSERT_EQ(refused.code(), ErrorCode::kIoError);
  EXPECT_NE(refused.error().message.find("has no room"), std::string::npos)
      << refused.error().message;
  EXPECT_TRUE(pool.config().contains(4));
  EXPECT_TRUE(a.config().contains(4));
  EXPECT_TRUE(b.config().contains(4));
  before.expect_same(pool);
  for (std::uint64_t block = 0; block < 100; ++block) {
    ASSERT_EQ(a.try_read(block).value_or_throw(), payload(block, 1)) << block;
  }
  for (std::uint64_t block = 0; block < 1600; ++block) {
    ASSERT_EQ(b.try_read(block).value_or_throw(), payload(block, 2)) << block;
  }
  EXPECT_TRUE(a.scrub().clean());
  EXPECT_TRUE(b.scrub().clean());

  ASSERT_TRUE(pool.drop_volume("b"));
  pool.try_remove_device(4).value_or_throw();
  EXPECT_FALSE(pool.config().contains(4));
  expect_one_config(pool);
  for (std::uint64_t block = 0; block < 100; ++block) {
    ASSERT_EQ(a.try_read(block).value_or_throw(), payload(block, 1)) << block;
  }
  EXPECT_TRUE(a.scrub().clean());
}

// A shrink refused for lack of room leaves every configuration as it was.
TEST(StoragePool, ShrinkWithoutRoomChangesNoConfig) {
  StoragePool pool(equal_devices(5, 1000));
  VirtualDisk& a = *pool.create_volume("a", std::make_shared<MirroringScheme>(2));
  VirtualDisk& b = *pool.create_volume("b", std::make_shared<MirroringScheme>(2));
  for (std::uint64_t block = 0; block < 1180; ++block) {
    a.try_write(block, payload(block, 1)).value_or_throw();
    b.try_write(block, payload(block, 2)).value_or_throw();
  }
  const PoolState before(pool);
  EXPECT_EQ(pool.try_resize_device(1, 990).code(), ErrorCode::kIoError);
  before.expect_same(pool);
  EXPECT_EQ(a.config()[*a.config().index_of(1)].capacity, 1000u);
  for (std::uint64_t block = 0; block < 1180; ++block) {
    ASSERT_EQ(a.try_read(block).value_or_throw(), payload(block, 1)) << block;
    ASSERT_EQ(b.try_read(block).value_or_throw(), payload(block, 2)) << block;
  }
}

// A volume's own topology and policy calls would edit stores its pool
// shares with other volumes; they are refused and name the pool call.
TEST(StoragePool, VolumeTopologyCallsAreRefused) {
  StoragePool pool(pool_config());
  VirtualDisk& a = *pool.create_volume("a", std::make_shared<MirroringScheme>(2));
  pool.create_volume("b", std::make_shared<MirroringScheme>(3));
  for (std::uint64_t block = 0; block < 50; ++block) {
    a.try_write(block, payload(block, 1)).value_or_throw();
  }
  const PoolState before(pool);
  const auto expect_refused = [](const Result<void>& r, const char* call) {
    ASSERT_EQ(r.code(), ErrorCode::kInvalidArgument) << call;
    EXPECT_NE(r.error().message.find(call), std::string::npos)
        << r.error().message;
  };
  expect_refused(a.try_add_device({9, 1000, ""}),
                 "StoragePool::try_add_device");
  expect_refused(a.try_remove_device(6), "StoragePool::try_remove_device");
  expect_refused(a.try_resize_device(6, 2000),
                 "StoragePool::try_resize_device");
  expect_refused(a.try_set_strategy(PlacementKind::kFastRedundantShare),
                 "StoragePool::try_set_volume_strategy");
  expect_refused(a.try_set_scheme(std::make_shared<MirroringScheme>(3)),
                 "StoragePool::try_set_volume_scheme");
  EXPECT_THROW(a.fail_device(1), std::invalid_argument);
  EXPECT_THROW((void)a.rebuild(), std::invalid_argument);
  EXPECT_THROW(a.set_journal(nullptr), std::invalid_argument);
  before.expect_same(pool);
  EXPECT_EQ(a.placement_kind(), PlacementKind::kRedundantShare);
  EXPECT_EQ(a.scheme().name(), "mirror(k=2)");
  for (const auto& u : pool.usage()) EXPECT_FALSE(u.failed);

  std::stringstream stream;
  Snapshot::save_pool(pool, stream);
  StoragePool restored = Snapshot::load_pool(stream);
  EXPECT_TRUE(restored.config() == pool.config());
  expect_one_config(restored);
  for (std::uint64_t block = 0; block < 50; ++block) {
    EXPECT_EQ(restored.volume("a")->try_read(block).value_or_throw(),
              payload(block, 1));
  }
}

// A re-encode the shared devices have no room for -- the other volume's
// fragments included -- is refused before anything is erased.
TEST(StoragePool, SchemeSwapWithoutRoomChangesNothing) {
  StoragePool pool(equal_devices(4, 1000));
  VirtualDisk& a = *pool.create_volume("a", std::make_shared<MirroringScheme>(2));
  VirtualDisk& b = *pool.create_volume("b", std::make_shared<MirroringScheme>(2));
  for (std::uint64_t block = 0; block < 900; ++block) {
    a.try_write(block, payload(block, 1)).value_or_throw();
    b.try_write(block, payload(block, 2)).value_or_throw();
  }
  const PoolState before(pool);
  const Result<void> refused =
      pool.try_set_volume_scheme("a", std::make_shared<MirroringScheme>(3));
  ASSERT_EQ(refused.code(), ErrorCode::kIoError);
  EXPECT_NE(refused.error().message.find("device"), std::string::npos)
      << refused.error().message;
  before.expect_same(pool);
  EXPECT_EQ(a.scheme().name(), "mirror(k=2)");
  for (std::uint64_t block = 0; block < 900; ++block) {
    ASSERT_EQ(a.try_read(block).value_or_throw(), payload(block, 1)) << block;
    ASSERT_EQ(b.try_read(block).value_or_throw(), payload(block, 2)) << block;
  }
}

// Every pool edit, accepted or refused, leaves the pool and every volume
// on one configuration, and an edit refused on an empty pool leaves the
// device free.
TEST(StoragePool, EveryVolumeSharesThePoolConfig) {
  StoragePool empty{ClusterConfig{}};
  EXPECT_EQ(empty.try_add_device({4, 0, ""}).code(), ErrorCode::kInvalidArgument);
  EXPECT_TRUE(empty.config().empty());
  empty.try_add_device({4, 1000, ""}).value_or_throw();
  EXPECT_TRUE(empty.config().contains(4));

  StoragePool pool(pool_config());
  VirtualDisk& a = *pool.create_volume("a", std::make_shared<MirroringScheme>(2));
  VirtualDisk& b =
      *pool.create_volume("b", std::make_shared<ReedSolomonScheme>(3, 2));
  for (std::uint64_t block = 0; block < 200; ++block) {
    a.try_write(block, payload(block, 1)).value_or_throw();
    b.try_write(block, payload(block, 2)).value_or_throw();
  }
  expect_one_config(pool);
  pool.try_add_device({9, 4000, ""}).value_or_throw();
  expect_one_config(pool);
  EXPECT_EQ(pool.try_add_device({9, 100, ""}).code(), ErrorCode::kInvalidArgument);
  expect_one_config(pool);
  pool.try_resize_device(9, 5000).value_or_throw();
  expect_one_config(pool);
  pool.try_resize_device(9, 2000).value_or_throw();
  expect_one_config(pool);
  EXPECT_EQ(pool.try_resize_device(9, 0).code(), ErrorCode::kInvalidArgument);
  expect_one_config(pool);
  EXPECT_EQ(pool.try_resize_device(99, 10).code(), ErrorCode::kNotFound);
  pool.try_remove_device(6).value_or_throw();
  expect_one_config(pool);
  pool.fail_device(2);
  EXPECT_EQ(pool.try_remove_device(2).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(pool.try_resize_device(2, 3000).code(), ErrorCode::kDeviceFailed);
  expect_one_config(pool);
  EXPECT_GT(pool.rebuild(), 0u);
  expect_one_config(pool);
  EXPECT_FALSE(a.config().contains(2));
  pool.try_set_volume_strategy("a", PlacementKind::kFastRedundantShare)
      .value_or_throw();
  pool.try_set_volume_scheme("b", std::make_shared<MirroringScheme>(3))
      .value_or_throw();
  expect_one_config(pool);
  for (std::uint64_t block = 0; block < 200; ++block) {
    ASSERT_EQ(a.try_read(block).value_or_throw(), payload(block, 1)) << block;
    ASSERT_EQ(b.try_read(block).value_or_throw(), payload(block, 2)) << block;
  }
  EXPECT_TRUE(a.scrub().clean());
  EXPECT_TRUE(b.scrub().clean());
}

// Block I/O on two volumes and a pool edit, from three threads at once:
// the pool's one lock serializes them, so every read returns its write.
TEST(StoragePool, VolumesAndEditsShareOneLockAcrossThreads) {
  StoragePool pool(equal_devices(4, 100000));
  VirtualDisk& a = *pool.create_volume("a", std::make_shared<MirroringScheme>(2));
  VirtualDisk& b = *pool.create_volume("b", std::make_shared<MirroringScheme>(2));
  std::atomic<int> wrong{0};
  const auto io = [&wrong](VirtualDisk& volume, std::uint64_t salt) {
    for (std::uint64_t block = 0; block < 2000; ++block) {
      if (!volume.try_write(block, payload(block, salt)).ok()) ++wrong;
      if (block % 2 == 1) {
        const Result<Bytes> back = volume.try_read(block - 1);
        if (!back.ok() || back.value() != payload(block - 1, salt)) ++wrong;
      }
    }
  };
  std::thread first(io, std::ref(a), 1);
  std::thread second(io, std::ref(b), 2);
  std::thread edits([&pool] {
    pool.try_add_device({5, 100000, "e"}).value_or_throw();
    pool.try_remove_device(5).value_or_throw();
  });
  first.join();
  second.join();
  edits.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_FALSE(pool.config().contains(5));
  expect_one_config(pool);
  for (std::uint64_t block = 0; block < 2000; ++block) {
    ASSERT_EQ(a.try_read(block).value_or_throw(), payload(block, 1)) << block;
    ASSERT_EQ(b.try_read(block).value_or_throw(), payload(block, 2)) << block;
  }
  EXPECT_TRUE(a.scrub().clean());
  EXPECT_TRUE(b.scrub().clean());
}

// A thread still writing to a volume that another thread drops holds a
// live handle: every write the drop precedes returns kNotFound and stores
// nothing, and no device keeps a fragment of the dropped volume.
TEST(StoragePool, DroppedVolumeRefusesWritesFromOtherThreads) {
  StoragePool pool(equal_devices(4, 100000));
  VirtualDisk& a = *pool.create_volume("a", std::make_shared<MirroringScheme>(2));
  const std::shared_ptr<VirtualDisk> b =
      pool.create_volume("b", std::make_shared<MirroringScheme>(2));
  for (std::uint64_t block = 0; block < 50; ++block) {
    a.try_write(block, payload(block, 1)).value_or_throw();
  }
  std::atomic<bool> writing{false};
  std::atomic<bool> dropped{false};
  std::atomic<int> wrong{0};
  std::thread writer([&] {
    // Until 100 writes have started after the drop returned.
    for (std::uint64_t block = 0, after = 0; after < 100; ++block) {
      const bool was_dropped = dropped.load();
      const Result<void> written = b->try_write(block, payload(block, 2));
      writing = true;
      if (was_dropped) ++after;
      if (written.ok() ? was_dropped
                       : written.code() != ErrorCode::kNotFound) {
        ++wrong;
      }
    }
  });
  while (!writing.load()) std::this_thread::yield();
  ASSERT_TRUE(pool.drop_volume("b"));
  dropped = true;
  writer.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_FALSE(pool.has_volume("b"));
  EXPECT_EQ(b->block_count(), 0u);
  EXPECT_EQ(b->try_read(0).code(), ErrorCode::kNotFound);
  std::uint64_t stored = 0;
  for (const auto& u : pool.usage()) stored += u.used;
  EXPECT_EQ(stored, 50u * 2);  // volume a's fragments only
  for (std::uint64_t block = 0; block < 50; ++block) {
    ASSERT_EQ(a.try_read(block).value_or_throw(), payload(block, 1)) << block;
  }
}

}  // namespace
}  // namespace rds
