// Live strategy swap: placement lookups run lock-free against an atomically
// published (strategy, config) epoch while topology edits install new ones.
// The invariant under test: a reader holding one snapshot always sees a
// mutually consistent pair -- k pairwise-distinct devices that all exist in
// THAT snapshot's config -- no matter how many swaps race past it.
#include <gtest/gtest.h>

#include <atomic>
#include <span>
#include <thread>
#include <vector>

#include "src/storage/virtual_disk.hpp"
#include "tests/clusters.hpp"

namespace rds {
namespace {

ClusterConfig small_pool() {
  return ClusterConfig(
      {{1, 800, "a"}, {2, 900, "b"}, {3, 1000, "c"}, {4, 1100, "d"}});
}

Device big_device(DeviceId uid) {
  return {uid, 700 + 100 * uid, test::numbered("d", uid)};
}

// small_pool() and devices 5-9.
ClusterConfig big_pool() {
  ClusterConfig config = small_pool();
  for (DeviceId uid = 5; uid <= 9; ++uid) config.add_device(big_device(uid));
  return config;
}

// Swaps small_pool() for big_pool() (`grow`) or back: devices 5-9 added
// or removed, one edit each.
Result<void> swap_pools(VirtualDisk& disk, bool grow) {
  for (DeviceId uid = 5; uid <= 9; ++uid) {
    const Result<void> edited = grow ? disk.try_add_device(big_device(uid))
                                     : disk.try_remove_device(uid);
    if (!edited.ok()) return edited;
  }
  return {};
}

VirtualDisk make_disk(ClusterConfig config) {
  return VirtualDisk(std::move(config),
                     std::make_shared<MirroringScheme>(2),
                     PlacementKind::kFastRedundantShare);
}

TEST(LiveSwap, SnapshotIsSelfConsistent) {
  const VirtualDisk disk = make_disk(small_pool());
  const auto snap = disk.placement_snapshot();
  ASSERT_NE(snap, nullptr);
  ASSERT_NE(snap->strategy, nullptr);
  EXPECT_EQ(snap->strategy->replication(), 2u);
  EXPECT_EQ(snap->strategy->device_count(), snap->config.size());
  EXPECT_GE(snap->epoch, 1u);
}

TEST(LiveSwap, ApplyConfigPublishesNewEpoch) {
  VirtualDisk disk = make_disk(small_pool());
  const auto before = disk.placement_snapshot();
  const Result<void> grown = swap_pools(disk, /*grow=*/true);
  ASSERT_TRUE(grown.ok()) << grown.error().message;
  const auto after = disk.placement_snapshot();
  EXPECT_GT(after->epoch, before->epoch);
  EXPECT_EQ(after->config, big_pool());
  EXPECT_EQ(after->strategy->device_count(), big_pool().size());
  // The old snapshot stays alive and unchanged for whoever still holds it.
  EXPECT_EQ(before->config, small_pool());
  EXPECT_EQ(before->strategy->device_count(), small_pool().size());
}

TEST(LiveSwap, PlaceReturnsTheEpochItUsed) {
  VirtualDisk disk = make_disk(small_pool());
  DeviceId copies[2] = {kNoDevice, kNoDevice};
  const std::uint64_t e1 = disk.try_copy_locations(7, copies).value_or_throw();
  EXPECT_EQ(e1, disk.placement_snapshot()->epoch);
  EXPECT_NE(copies[0], copies[1]);
  ASSERT_TRUE(swap_pools(disk, /*grow=*/true).ok());
  const std::uint64_t e2 = disk.try_copy_locations(7, copies).value_or_throw();
  EXPECT_GT(e2, e1);
}

// The tentpole stress test: N readers place continuously while one thread
// swaps the config back and forth.  Every single read must observe a
// self-consistent k-set; epochs observed by each reader must be monotonic.
TEST(Concurrency, ReadersSeeConsistentSnapshotsDuringSwaps) {
  VirtualDisk disk = make_disk(small_pool());

  constexpr int kReaders = 4;
  constexpr int kSwaps = 25;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);

  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&disk, &stop, &failures, r] {
      std::uint64_t address = static_cast<std::uint64_t>(r) << 32;
      std::uint64_t last_epoch = 0;
      std::vector<DeviceId> copies;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = disk.placement_snapshot();
        const unsigned k = snap->strategy->replication();
        copies.assign(k, kNoDevice);
        snap->strategy->place(address++, copies);
        // Pairwise distinct and all inside the snapshot's own config.
        for (unsigned i = 0; i < k; ++i) {
          if (!snap->config.contains(copies[i])) failures.fetch_add(1);
          for (unsigned j = i + 1; j < k; ++j) {
            if (copies[i] == copies[j]) failures.fetch_add(1);
          }
        }
        if (snap->epoch < last_epoch) failures.fetch_add(1);
        last_epoch = snap->epoch;
      }
    });
  }

  for (int s = 0; s < kSwaps; ++s) {
    const Result<void> r = swap_pools(disk, /*grow=*/s % 2 == 0);
    ASSERT_TRUE(r.ok()) << r.error().message;
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  // kSwaps swaps after the initial publication, each commits once per edit.
  EXPECT_GE(disk.placement_snapshot()->epoch, 1u + kSwaps);
}

// Strategy-kind swaps across every kind the factory builds: each strategy
// is constructed inside try_set_strategy and published through the same
// RCU epoch, so readers must stay consistent while the build and the swap
// race past them, from and to every kind.
TEST(Concurrency, ReadersSurviveSwapsAcrossEveryKind) {
  VirtualDisk disk = make_disk(big_pool());

  constexpr int kReaders = 3;
  constexpr int kSwaps = 30;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);

  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&disk, &stop, &failures, r] {
      std::uint64_t address = static_cast<std::uint64_t>(r) << 32;
      std::uint64_t last_epoch = 0;
      std::vector<DeviceId> copies;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = disk.placement_snapshot();
        const unsigned k = snap->strategy->replication();
        copies.assign(k, kNoDevice);
        snap->strategy->place(address++, copies);
        for (unsigned i = 0; i < k; ++i) {
          if (!snap->config.contains(copies[i])) failures.fetch_add(1);
          for (unsigned j = i + 1; j < k; ++j) {
            if (copies[i] == copies[j]) failures.fetch_add(1);
          }
        }
        if (snap->epoch < last_epoch) failures.fetch_add(1);
        last_epoch = snap->epoch;
      }
    });
  }

  const std::span<const PlacementKind> kinds = all_placement_kinds();
  for (int s = 0; s < kSwaps; ++s) {
    const Result<void> r = disk.try_set_strategy(kinds[s % kinds.size()]);
    ASSERT_TRUE(r.ok()) << r.error().message;
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(disk.placement_kind(), kinds[(kSwaps - 1) % kinds.size()]);
}

TEST(CopyLocations, TryFormFillsSpanAndReturnsEpoch) {
  VirtualDisk disk = make_disk(small_pool());
  std::vector<DeviceId> out(2, kNoDevice);
  const Result<std::uint64_t> epoch = disk.try_copy_locations(42, out);
  ASSERT_TRUE(epoch.ok()) << epoch.error().message;
  EXPECT_EQ(epoch.value(), disk.placement_snapshot()->epoch);
  EXPECT_NE(out[0], out[1]);
  EXPECT_TRUE(disk.config().contains(out[0]));
  EXPECT_TRUE(disk.config().contains(out[1]));
}

TEST(CopyLocations, TryFormRejectsWrongSizeWithoutWriting) {
  VirtualDisk disk = make_disk(small_pool());
  std::vector<DeviceId> wrong(3, kNoDevice);
  const Result<std::uint64_t> r = disk.try_copy_locations(42, wrong);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kInvalidArgument);
  for (const DeviceId uid : wrong) EXPECT_EQ(uid, kNoDevice);
}

// try_copy_locations under racing config swaps: k stays 2, so every lookup
// must succeed with 2 distinct devices from SOME epoch, and epochs never go
// backwards (never tears, never fails).
TEST(Concurrency, CopyLocationsStaysConsistentDuringSwaps) {
  VirtualDisk disk = make_disk(small_pool());

  constexpr int kReaders = 3;
  constexpr int kSwaps = 25;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<int> lookups{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);

  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&disk, &stop, &failures, &lookups, r] {
      std::uint64_t address = static_cast<std::uint64_t>(r) << 32;
      std::uint64_t last_epoch = 0;
      std::vector<DeviceId> buf(2);
      while (!stop.load(std::memory_order_relaxed)) {
        buf.assign(2, kNoDevice);
        const Result<std::uint64_t> epoch =
            disk.try_copy_locations(address++, buf);
        if (!epoch.ok() || buf[0] == kNoDevice || buf[1] == kNoDevice ||
            buf[0] == buf[1] || epoch.value() < last_epoch) {
          failures.fetch_add(1);
          continue;
        }
        last_epoch = epoch.value();
        lookups.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Let the readers start before the swaps, so the lookups race them.
  while (lookups.load() + failures.load() < kReaders) {
    std::this_thread::yield();
  }
  for (int s = 0; s < kSwaps; ++s) {
    const Result<void> r = swap_pools(disk, /*grow=*/s % 2 == 0);
    ASSERT_TRUE(r.ok()) << r.error().message;
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(lookups.load(), kReaders);
}

// Same race against device adds and removes: each lookup grabs its own
// snapshot and never waits for the reshape holding `mu_`.
TEST(Concurrency, PlaceIsLockFreeAgainstTopologyChanges) {
  VirtualDisk disk = make_disk(small_pool());
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::thread reader([&] {
    DeviceId copies[2];
    std::uint64_t address = 0;
    std::uint64_t last_epoch = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const Result<std::uint64_t> epoch =
          disk.try_copy_locations(address++, copies);
      if (!epoch.ok() || copies[0] == copies[1] ||
          epoch.value() < last_epoch) {
        failures.fetch_add(1);
        continue;
      }
      last_epoch = epoch.value();
    }
  });

  for (DeviceId uid = 10; uid < 20; ++uid) {
    ASSERT_TRUE(disk.try_add_device({uid, 1000, "new"}).ok());
  }
  for (DeviceId uid = 10; uid < 20; ++uid) {
    ASSERT_TRUE(disk.try_remove_device(uid).ok());
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace rds
