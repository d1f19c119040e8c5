// Degraded-state persistence: snapshots of pools with failed devices must
// round-trip the degradation exactly, for every redundancy scheme kind.
#include "src/storage/snapshot.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "src/storage/erasure/evenodd.hpp"
#include "src/storage/erasure/rdp.hpp"
#include "src/util/random.hpp"
#include "tests/clusters.hpp"

namespace rds {
namespace {

ClusterConfig wide_config() {
  return ClusterConfig({{1, 3000, "a"},
                        {2, 2800, "b"},
                        {3, 2600, "c"},
                        {4, 2400, "d"},
                        {5, 2200, "e"},
                        {6, 2000, "f"},
                        {7, 1800, "g"},
                        {8, 1600, "h"}});
}

Bytes payload(std::uint64_t block, std::uint64_t salt) {
  Bytes b(96);
  Xoshiro256 rng(block * 101 + salt);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng());
  return b;
}

std::vector<std::shared_ptr<RedundancyScheme>> every_scheme_kind() {
  return {std::make_shared<MirroringScheme>(2),
          std::make_shared<ReedSolomonScheme>(3, 2),
          std::make_shared<EvenOddScheme>(3),
          std::make_shared<RdpScheme>(5)};
}

TEST(SnapshotDegraded, EverySchemeKindSurvivesAFailedDeviceRoundTrip) {
  for (const auto& scheme : every_scheme_kind()) {
    SCOPED_TRACE(scheme->name());
    VirtualDisk disk(wide_config(), scheme);
    for (std::uint64_t b = 0; b < 50; ++b) {
      disk.try_write(b, payload(b, 1)).value_or_throw();
    }
    disk.fail_device(2);

    std::stringstream stream;
    Snapshot::save_disk(disk, stream);
    VirtualDisk restored = Snapshot::load_disk(stream);

    // Degradation is preserved, not healed: the scrub still complains and
    // reads still reconstruct around the dead device.
    EXPECT_EQ(restored.scheme().name(), scheme->name());
    EXPECT_FALSE(restored.scrub().clean());
    const std::uint64_t degraded_before = restored.stats().degraded_reads;
    for (std::uint64_t b = 0; b < 50; ++b) {
      EXPECT_EQ(restored.try_read(b).value_or_throw(), payload(b, 1));
    }
    EXPECT_GT(restored.stats().degraded_reads, degraded_before);

    // The restored disk heals exactly like the original would.
    EXPECT_GT(restored.rebuild(), 0u);
    EXPECT_TRUE(restored.scrub().clean());
    EXPECT_EQ(restored.config().size(), wide_config().size() - 1);
  }
}

TEST(SnapshotDegraded, MultipleFailuresWithinToleranceRoundTrip) {
  // RS(3+2) tolerates two lost devices; both flags must survive.
  VirtualDisk disk(wide_config(), std::make_shared<ReedSolomonScheme>(3, 2));
  for (std::uint64_t b = 0; b < 40; ++b) {
    disk.try_write(b, payload(b, 2)).value_or_throw();
  }
  disk.fail_device(1);
  disk.fail_device(5);

  std::stringstream stream;
  Snapshot::save_disk(disk, stream);
  VirtualDisk restored = Snapshot::load_disk(stream);

  EXPECT_FALSE(restored.scrub().clean());
  for (std::uint64_t b = 0; b < 40; ++b) {
    EXPECT_EQ(restored.try_read(b).value_or_throw(), payload(b, 2));
  }
  EXPECT_GT(restored.rebuild(), 0u);
  EXPECT_TRUE(restored.scrub().clean());
}

TEST(SnapshotDegraded, DegradedPoolRoundTripsEveryVolume) {
  // One pool, one volume per scheme kind, one shared dead device: every
  // volume must come back degraded and every volume must heal.
  StoragePool pool(wide_config());
  const auto schemes = every_scheme_kind();
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    pool.create_volume(test::numbered("v", i), schemes[i]);
  }
  for (std::uint64_t b = 0; b < 25; ++b) {
    for (std::size_t i = 0; i < schemes.size(); ++i) {
      pool.volume(test::numbered("v", i))->try_write(b, payload(b, 10 + i))
          .value_or_throw();
    }
  }
  pool.fail_device(4);

  std::stringstream stream;
  Snapshot::save_pool(pool, stream);
  StoragePool restored = Snapshot::load_pool(stream);

  EXPECT_EQ(restored.volume_count(), schemes.size());
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    SCOPED_TRACE(schemes[i]->name());
    VirtualDisk& vol = *restored.volume(test::numbered("v", i));
    EXPECT_EQ(vol.scheme().name(), schemes[i]->name());
    EXPECT_FALSE(vol.scrub().clean());
    for (std::uint64_t b = 0; b < 25; ++b) {
      EXPECT_EQ(vol.try_read(b).value_or_throw(), payload(b, 10 + i));
    }
  }
  // The failure flag is on the SHARED store: one rebuild heals all volumes.
  EXPECT_GT(restored.rebuild(), 0u);
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    EXPECT_TRUE(restored.volume(test::numbered("v", i))->scrub().clean());
  }
}

TEST(SnapshotDegraded, PoolUsageReportsFailureAfterRestore) {
  StoragePool pool(wide_config());
  pool.create_volume("v", std::make_shared<MirroringScheme>(2));
  for (std::uint64_t b = 0; b < 10; ++b) {
    pool.volume("v")->try_write(b, payload(b, 3)).value_or_throw();
  }
  pool.fail_device(7);

  std::stringstream stream;
  Snapshot::save_pool(pool, stream);
  StoragePool restored = Snapshot::load_pool(stream);

  bool saw_failed = false;
  for (const auto& usage : restored.usage()) {
    if (usage.device.uid == 7) {
      saw_failed = true;
      EXPECT_TRUE(usage.failed);
    } else {
      EXPECT_FALSE(usage.failed);
    }
  }
  EXPECT_TRUE(saw_failed);
}

TEST(SnapshotDegraded, FileStoreRoundTripsFilesAndDegradation) {
  FileStore store(
      VirtualDisk(wide_config(), std::make_shared<ReedSolomonScheme>(3, 2)),
      64);
  store.put("alpha", payload(1, 4));
  store.put("beta", payload(2, 4));
  ASSERT_TRUE(store.remove("alpha"));  // leaves free-list state to persist
  store.put("gamma", payload(3, 4));
  store.disk().fail_device(6);

  std::stringstream stream;
  Snapshot::save_file_store(store, stream);
  FileStore restored = Snapshot::load_file_store(stream);

  EXPECT_EQ(restored.file_count(), 2u);
  EXPECT_EQ(restored.block_size(), store.block_size());
  EXPECT_FALSE(restored.contains("alpha"));
  EXPECT_EQ(restored.try_get("beta").value_or_throw(),
            store.try_get("beta").value_or_throw());
  EXPECT_EQ(restored.try_get("gamma").value_or_throw(),
            store.try_get("gamma").value_or_throw());
  EXPECT_FALSE(restored.disk().scrub().clean());
  EXPECT_GT(restored.disk().rebuild(), 0u);
  EXPECT_TRUE(restored.disk().scrub().clean());

  // The persisted block allocator stays consistent: new writes after the
  // restore reuse the same address space without colliding.
  restored.put("delta", payload(4, 4));
  EXPECT_EQ(restored.try_get("delta").value_or_throw(),
            std::optional<Bytes>(payload(4, 4)));
  EXPECT_EQ(restored.try_get("beta").value_or_throw(),
            store.try_get("beta").value_or_throw());
}

}  // namespace
}  // namespace rds
