// Incremental reshaping: the pool migrates toward a new topology in small
// steps while staying fully readable and writable.
#include <gtest/gtest.h>

#include "src/storage/virtual_disk.hpp"
#include "src/util/random.hpp"

namespace rds {
namespace {

ClusterConfig pool() {
  return ClusterConfig({{1, 3000, ""},
                        {2, 2500, ""},
                        {3, 2000, ""},
                        {4, 1500, ""},
                        {5, 1000, ""}});
}

Bytes payload(std::uint64_t block) {
  Bytes b(48);
  Xoshiro256 rng(block * 97 + 3);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng());
  return b;
}

TEST(Reshape, StepwiseDrainCommitsNewTopology) {
  VirtualDisk disk(pool(), std::make_shared<MirroringScheme>(2));
  for (std::uint64_t b = 0; b < 500; ++b) {
    disk.try_write(b, payload(b)).value_or_throw();
  }

  ClusterConfig next = disk.config();
  next.add_device({9, 4000, "new"});
  const std::size_t planned = disk.try_begin_reshape(next).value_or_throw();
  EXPECT_EQ(planned, 500u);
  EXPECT_TRUE(disk.reshaping());

  std::size_t total = 0;
  while (disk.reshaping()) {
    const std::size_t done = disk.step_reshape(64);
    total += done;
    if (done == 0) break;
  }
  EXPECT_EQ(total, 500u);
  EXPECT_FALSE(disk.reshaping());
  EXPECT_TRUE(disk.config().contains(9));
  EXPECT_GT(disk.used_on(9), 0u);
  for (std::uint64_t b = 0; b < 500; ++b) {
    EXPECT_EQ(disk.try_read(b).value_or_throw(), payload(b));
  }
  EXPECT_TRUE(disk.scrub().clean());
}

TEST(Reshape, ReadableAndWritableMidFlight) {
  VirtualDisk disk(pool(), std::make_shared<MirroringScheme>(2));
  for (std::uint64_t b = 0; b < 400; ++b) {
    disk.try_write(b, payload(b)).value_or_throw();
  }

  ClusterConfig next = disk.config();
  next.add_device({9, 5000, "new"});
  next.remove_device(5);
  disk.try_begin_reshape(next).value_or_throw();
  disk.step_reshape(100);  // partially drained

  // Every block readable, whether migrated or not.
  for (std::uint64_t b = 0; b < 400; ++b) {
    ASSERT_EQ(disk.try_read(b).value_or_throw(), payload(b))
        << "mid-reshape read of " << b;
  }
  // New writes land on the new topology; overwrites of pending blocks work.
  disk.try_write(1000, payload(1000)).value_or_throw();
  disk.try_write(3, payload(9999)).value_or_throw();
  EXPECT_EQ(disk.try_read(1000).value_or_throw(), payload(1000));
  EXPECT_EQ(disk.try_read(3).value_or_throw(), payload(9999));

  while (disk.step_reshape(100) > 0) {
  }
  EXPECT_FALSE(disk.reshaping());
  EXPECT_EQ(disk.try_read(3).value_or_throw(), payload(9999));
  EXPECT_EQ(disk.try_read(1000).value_or_throw(), payload(1000));
  EXPECT_TRUE(disk.scrub().clean());
}

TEST(Reshape, ScrubStaysCleanMidFlight) {
  VirtualDisk disk(pool(), std::make_shared<ReedSolomonScheme>(3, 2));
  for (std::uint64_t b = 0; b < 200; ++b) {
    disk.try_write(b, payload(b)).value_or_throw();
  }
  ClusterConfig next = disk.config();
  next.add_device({9, 2500, ""});
  disk.try_begin_reshape(next).value_or_throw();
  disk.step_reshape(50);
  EXPECT_TRUE(disk.scrub().clean());
  while (disk.step_reshape(50) > 0) {
  }
  EXPECT_TRUE(disk.scrub().clean());
}

TEST(Reshape, TrimMidFlight) {
  VirtualDisk disk(pool(), std::make_shared<MirroringScheme>(2));
  for (std::uint64_t b = 0; b < 100; ++b) {
    disk.try_write(b, payload(b)).value_or_throw();
  }
  ClusterConfig next = disk.config();
  next.add_device({9, 2500, ""});
  disk.try_begin_reshape(next).value_or_throw();
  disk.step_reshape(10);
  EXPECT_TRUE(disk.try_trim(50).ok());  // likely still pending
  EXPECT_TRUE(disk.try_trim(0).ok());
  while (disk.step_reshape(50) > 0) {
  }
  EXPECT_FALSE(disk.contains(50));
  EXPECT_TRUE(disk.scrub().clean());
}

TEST(Reshape, ConcurrentTopologyChangesRejected) {
  VirtualDisk disk(pool(), std::make_shared<MirroringScheme>(2));
  disk.try_write(1, payload(1)).value_or_throw();
  ClusterConfig next = disk.config();
  next.add_device({9, 2500, ""});
  disk.try_begin_reshape(next).value_or_throw();
  EXPECT_EQ(disk.try_begin_reshape(next).code(),
            ErrorCode::kReshapeInProgress);
  EXPECT_EQ(disk.try_add_device({10, 100, ""}).code(),
            ErrorCode::kReshapeInProgress);
  EXPECT_EQ(disk.try_remove_device(5).code(), ErrorCode::kReshapeInProgress);
  while (disk.step_reshape(50) > 0) {
  }
  // After draining, topology operations work again.
  disk.try_add_device({10, 100, ""}).value_or_throw();
  EXPECT_TRUE(disk.config().contains(10));
}

TEST(Reshape, EmptyPoolCommitsImmediately) {
  VirtualDisk disk(pool(), std::make_shared<MirroringScheme>(2));
  ClusterConfig next = disk.config();
  next.add_device({9, 2500, ""});
  EXPECT_EQ(disk.try_begin_reshape(next).value_or_throw(), 0u);
  EXPECT_EQ(disk.step_reshape(1), 0u);
  EXPECT_FALSE(disk.reshaping());
  EXPECT_TRUE(disk.config().contains(9));
}

TEST(Reshape, StepOnIdleDiskIsNoop) {
  VirtualDisk disk(pool(), std::make_shared<MirroringScheme>(2));
  EXPECT_EQ(disk.step_reshape(100), 0u);
  EXPECT_FALSE(disk.reshaping());
}

}  // namespace
}  // namespace rds
