#include "src/storage/virtual_disk.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "src/util/random.hpp"

namespace rds {
namespace {

ClusterConfig small_cluster() {
  return ClusterConfig({{1, 2000, "a"},
                        {2, 1500, "b"},
                        {3, 1000, "c"},
                        {4, 1000, "d"},
                        {5, 500, "e"}});
}

Bytes block_payload(std::uint64_t block, std::size_t size = 64) {
  Bytes b(size);
  Xoshiro256 rng(block * 2654435761u + 1);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng());
  return b;
}

TEST(VirtualDisk, WriteReadRoundTrip) {
  VirtualDisk disk(small_cluster(), std::make_shared<MirroringScheme>(2));
  for (std::uint64_t b = 0; b < 200; ++b) {
    disk.try_write(b, block_payload(b)).value_or_throw();
  }
  EXPECT_EQ(disk.block_count(), 200u);
  for (std::uint64_t b = 0; b < 200; ++b) {
    EXPECT_EQ(disk.try_read(b).value_or_throw(), block_payload(b))
        << "block " << b;
  }
  EXPECT_TRUE(disk.scrub().clean());
  EXPECT_EQ(disk.stats().fragments_written, 400u);
}

TEST(VirtualDisk, ReadUnknownBlockThrows) {
  VirtualDisk disk(small_cluster(), std::make_shared<MirroringScheme>(2));
  EXPECT_EQ(disk.try_read(7).code(), ErrorCode::kNotFound);
  EXPECT_THROW((void)disk.try_read(7).value_or_throw(), std::out_of_range);
  EXPECT_FALSE(disk.contains(7));
}

TEST(VirtualDisk, OverwriteBlock) {
  VirtualDisk disk(small_cluster(), std::make_shared<MirroringScheme>(2));
  disk.try_write(1, block_payload(1)).value_or_throw();
  disk.try_write(1, block_payload(99, 32)).value_or_throw();
  EXPECT_EQ(disk.try_read(1).value_or_throw(), block_payload(99, 32));
  EXPECT_EQ(disk.block_count(), 1u);
  EXPECT_TRUE(disk.scrub().clean());
}

// A write checks all k homes before it touches any, so a home that failed
// rejects the overwrite and both old copies survive -- whichever copy
// index the failed device holds.
TEST(VirtualDisk, RejectedOverwriteKeepsOldContents) {
  for (const unsigned victim : {0u, 1u}) {
    SCOPED_TRACE("failed copy " + std::to_string(victim));
    VirtualDisk disk(
        ClusterConfig({{1, 100, ""}, {2, 100, ""}, {3, 100, ""}, {4, 100, ""}}),
        std::make_shared<MirroringScheme>(2));
    const Bytes old_data(10, 0xAA);
    disk.try_write(7, old_data).value_or_throw();
    std::vector<DeviceId> homes(2);
    (void)disk.try_copy_locations(7, homes).value_or_throw();
    disk.fail_device(homes[victim]);
    EXPECT_EQ(disk.try_write(7, Bytes(20, 0xBB)).code(), ErrorCode::kIoError);
    EXPECT_EQ(disk.try_read(7).value_or_throw(), old_data);
    EXPECT_EQ(disk.stats().fragments_written, 2u);
  }
}

// A new block whose copy-0 or copy-1 home is full is rejected before either
// copy is stored: no device's occupancy moves and the block stays absent.
TEST(VirtualDisk, WriteToFullDeviceTouchesNothing) {
  VirtualDisk disk(
      ClusterConfig({{1, 3, ""}, {2, 3, ""}, {3, 3, ""}, {4, 3, ""}}),
      std::make_shared<MirroringScheme>(2));
  const std::vector<DeviceId> uids = {1, 2, 3, 4};
  const auto full = [&](DeviceId uid) { return disk.used_on(uid) == 3; };
  const auto used = [&] {
    std::vector<std::uint64_t> out;
    for (const DeviceId uid : uids) out.push_back(disk.used_on(uid));
    return out;
  };
  std::uint64_t written = 0;
  while (std::ranges::none_of(uids, full)) {
    disk.try_write(written, block_payload(written)).value_or_throw();
    ++written;
  }
  for (const unsigned victim : {0u, 1u}) {
    SCOPED_TRACE("full copy " + std::to_string(victim));
    std::uint64_t block = 1000;
    std::vector<DeviceId> homes(2);
    for (; block < 2000; ++block) {
      (void)disk.try_copy_locations(block, homes).value_or_throw();
      if (full(homes[victim]) && !full(homes[1 - victim])) break;
    }
    ASSERT_LT(block, 2000u) << "no block has its copy " << victim
                            << " on the full device";
    const std::vector<std::uint64_t> used_before = used();
    EXPECT_EQ(disk.try_write(block, block_payload(block)).code(),
              ErrorCode::kIoError);
    EXPECT_EQ(used(), used_before);
    EXPECT_EQ(disk.block_count(), written);
    EXPECT_FALSE(disk.contains(block));
  }
  for (std::uint64_t b = 0; b < written; ++b) {
    EXPECT_EQ(disk.try_read(b).value_or_throw(), block_payload(b));
  }
  EXPECT_TRUE(disk.scrub().clean());
}

TEST(VirtualDisk, AddDeviceMigratesAndStaysReadable) {
  VirtualDisk disk(small_cluster(), std::make_shared<MirroringScheme>(2));
  for (std::uint64_t b = 0; b < 300; ++b) {
    disk.try_write(b, block_payload(b)).value_or_throw();
  }

  disk.try_add_device({6, 2500, "new-big"}).value_or_throw();
  EXPECT_GT(disk.stats().fragments_moved, 0u);
  EXPECT_GT(disk.used_on(6), 0u);
  for (std::uint64_t b = 0; b < 300; ++b) {
    EXPECT_EQ(disk.try_read(b).value_or_throw(), block_payload(b));
  }
  EXPECT_TRUE(disk.scrub().clean());
}

TEST(VirtualDisk, RemoveDeviceDrainsIt) {
  VirtualDisk disk(small_cluster(), std::make_shared<MirroringScheme>(2));
  for (std::uint64_t b = 0; b < 300; ++b) {
    disk.try_write(b, block_payload(b)).value_or_throw();
  }
  const std::uint64_t before_moves = disk.stats().fragments_moved;
  disk.try_remove_device(5).value_or_throw();
  EXPECT_GT(disk.stats().fragments_moved, before_moves);
  EXPECT_FALSE(disk.config().contains(5));
  for (std::uint64_t b = 0; b < 300; ++b) {
    EXPECT_EQ(disk.try_read(b).value_or_throw(), block_payload(b));
  }
  EXPECT_TRUE(disk.scrub().clean());
}

TEST(VirtualDisk, FailureDegradedReadsThenRebuild) {
  VirtualDisk disk(small_cluster(), std::make_shared<MirroringScheme>(2));
  for (std::uint64_t b = 0; b < 300; ++b) {
    disk.try_write(b, block_payload(b)).value_or_throw();
  }

  disk.fail_device(1);  // biggest device
  // Degraded but fully readable through the surviving copies.
  for (std::uint64_t b = 0; b < 300; ++b) {
    EXPECT_EQ(disk.try_read(b).value_or_throw(), block_payload(b));
  }
  EXPECT_GT(disk.stats().degraded_reads, 0u);
  EXPECT_FALSE(disk.scrub().clean());

  const std::uint64_t rebuilt = disk.rebuild();
  EXPECT_GT(rebuilt, 0u);
  EXPECT_FALSE(disk.config().contains(1));
  for (std::uint64_t b = 0; b < 300; ++b) {
    EXPECT_EQ(disk.try_read(b).value_or_throw(), block_payload(b));
  }
  EXPECT_TRUE(disk.scrub().clean());
}

TEST(VirtualDisk, ErasureCodedFailureAndRebuild) {
  // RS(3+2) over 7 devices: tolerate two losses, rebuild onto the rest.
  ClusterConfig config = small_cluster();
  config.add_device({6, 1200, "f"});
  config.add_device({7, 800, "g"});
  VirtualDisk disk(config, std::make_shared<ReedSolomonScheme>(3, 2));
  for (std::uint64_t b = 0; b < 200; ++b) {
    disk.try_write(b, block_payload(b, 96)).value_or_throw();
  }

  disk.fail_device(3);
  disk.fail_device(5);
  for (std::uint64_t b = 0; b < 200; ++b) {
    EXPECT_EQ(disk.try_read(b).value_or_throw(), block_payload(b, 96));
  }
  const std::uint64_t rebuilt = disk.rebuild();
  EXPECT_GT(rebuilt, 0u);
  EXPECT_EQ(disk.config().size(), 5u);
  for (std::uint64_t b = 0; b < 200; ++b) {
    EXPECT_EQ(disk.try_read(b).value_or_throw(), block_payload(b, 96));
  }
  EXPECT_TRUE(disk.scrub().clean());
}

TEST(VirtualDisk, RebuildImpossibleWhenTooFewDevicesRemain) {
  // RS(3+2) needs 5 distinct devices; losing 2 of 5 leaves too few.  The
  // rebuild must fail atomically (no partial migration).
  VirtualDisk disk(small_cluster(), std::make_shared<ReedSolomonScheme>(3, 2));
  for (std::uint64_t b = 0; b < 50; ++b) {
    disk.try_write(b, block_payload(b, 96)).value_or_throw();
  }
  disk.fail_device(3);
  disk.fail_device(5);
  EXPECT_THROW(disk.rebuild(), std::invalid_argument);
  // Data remains readable in degraded mode.
  for (std::uint64_t b = 0; b < 50; ++b) {
    EXPECT_EQ(disk.try_read(b).value_or_throw(), block_payload(b, 96));
  }
}

TEST(VirtualDisk, ErasureUnrecoverableWhenTooManyFail) {
  VirtualDisk disk(small_cluster(), std::make_shared<ReedSolomonScheme>(3, 2));
  for (std::uint64_t b = 0; b < 50; ++b) {
    disk.try_write(b, block_payload(b, 96)).value_or_throw();
  }
  disk.fail_device(1);
  disk.fail_device(2);
  disk.fail_device(3);
  // Some block surely had fragments on all three failed devices' complement
  // < 3 survivors; at least one read must fail.
  bool any_failure = false;
  for (std::uint64_t b = 0; b < 50; ++b) {
    try {
      (void)disk.try_read(b).value_or_throw();
    } catch (const std::runtime_error&) {
      any_failure = true;
    }
  }
  EXPECT_TRUE(any_failure);
}

TEST(VirtualDisk, RemoveFailedDeviceRejected) {
  VirtualDisk disk(small_cluster(), std::make_shared<MirroringScheme>(2));
  disk.try_write(1, block_payload(1)).value_or_throw();
  disk.fail_device(2);
  EXPECT_EQ(disk.try_remove_device(2).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(disk.try_add_device({9, 100, ""}).code(),
            ErrorCode::kDeviceFailed);
}

TEST(VirtualDisk, FastStrategyBackend) {
  VirtualDisk disk(small_cluster(), std::make_shared<MirroringScheme>(3),
                   PlacementKind::kFastRedundantShare);
  for (std::uint64_t b = 0; b < 150; ++b) {
    disk.try_write(b, block_payload(b)).value_or_throw();
  }
  disk.try_add_device({7, 1200, ""}).value_or_throw();
  for (std::uint64_t b = 0; b < 150; ++b) {
    EXPECT_EQ(disk.try_read(b).value_or_throw(), block_payload(b));
  }
  EXPECT_TRUE(disk.scrub().clean());
}

TEST(VirtualDisk, MigrationMovesLessThanStriping) {
  // The adaptivity claim end-to-end: Redundant Share migrations move far
  // less data than the static striping baseline for the same edit.
  auto run = [](PlacementKind kind) {
    VirtualDisk disk(small_cluster(), std::make_shared<MirroringScheme>(2),
                     kind);
    for (std::uint64_t b = 0; b < 400; ++b) {
      disk.try_write(b, block_payload(b, 16)).value_or_throw();
    }
    disk.try_add_device({6, 1500, ""}).value_or_throw();
    return disk.stats().fragments_moved;
  };
  const std::uint64_t rs_moves = run(PlacementKind::kRedundantShare);
  const std::uint64_t stripe_moves = run(PlacementKind::kRoundRobin);
  EXPECT_LT(rs_moves * 2, stripe_moves);
}

TEST(VirtualDisk, NullSchemeRejected) {
  EXPECT_THROW(VirtualDisk(small_cluster(), nullptr), std::invalid_argument);
}

// A re-encode the devices have no room for is refused before any fragment
// is erased: 1800 mirror(2) blocks on four devices of 1000 cannot take a
// third copy.
TEST(VirtualDisk, SetSchemeWithoutRoomChangesNothing) {
  VirtualDisk disk(ClusterConfig({{1, 1000, "a"},
                                  {2, 1000, "b"},
                                  {3, 1000, "c"},
                                  {4, 1000, "d"}}),
                   std::make_shared<MirroringScheme>(2));
  for (std::uint64_t b = 0; b < 1800; ++b) {
    disk.try_write(b, block_payload(b)).value_or_throw();
  }
  const std::uint64_t epoch = disk.placement_snapshot()->epoch;
  std::vector<std::uint64_t> used;
  for (DeviceId uid = 1; uid <= 4; ++uid) used.push_back(disk.used_on(uid));

  const Result<void> swapped =
      disk.try_set_scheme(std::make_shared<MirroringScheme>(3));
  ASSERT_EQ(swapped.code(), ErrorCode::kIoError);
  EXPECT_NE(swapped.error().message.find("device"), std::string::npos);
  EXPECT_EQ(disk.scheme().name(), "mirror(k=2)");
  EXPECT_EQ(disk.placement_snapshot()->epoch, epoch);
  for (DeviceId uid = 1; uid <= 4; ++uid) {
    EXPECT_EQ(disk.used_on(uid), used[uid - 1]) << uid;
  }
  for (std::uint64_t b = 0; b < 1800; ++b) {
    ASSERT_EQ(disk.try_read(b).value_or_throw(), block_payload(b)) << b;
  }
  EXPECT_TRUE(disk.scrub().clean());
}

}  // namespace
}  // namespace rds
