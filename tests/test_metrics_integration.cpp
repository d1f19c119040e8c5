// End-to-end checks that the placement/storage/migration stack reports into
// the global metrics registry.  Each TEST runs in its own process under
// gtest_discover_tests, so resetting the global registry at the top of a
// test cannot race another test.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/fast_redundant_share.hpp"
#include "src/core/redundant_share.hpp"
#include "src/metrics/registry.hpp"
#include "src/placement/batch_placer.hpp"
#include "src/storage/snapshot.hpp"
#include "src/storage/storage_pool.hpp"
#include "src/storage/virtual_disk.hpp"
#include "tests/clusters.hpp"

namespace rds {
namespace {

using test::cluster_from;

std::vector<std::uint8_t> payload(std::size_t n) {
  std::vector<std::uint8_t> data(n);
  std::iota(data.begin(), data.end(), std::uint8_t{1});
  return data;
}

std::uint64_t counter_value(const metrics::Snapshot& snap,
                            std::string_view name,
                            const metrics::Labels& labels = {}) {
  const metrics::Sample* s = snap.find(name, labels);
  return s == nullptr ? 0 : s->counter_value;
}

TEST(MetricsIntegration, RedundantSharePlacementCounters) {
  metrics::Registry::global().reset();
  const ClusterConfig config = cluster_from({500, 600, 700});
  const RedundantShare strategy(config, 2);
  constexpr std::uint64_t kBalls = 1'000;
  for (std::uint64_t a = 0; a < kBalls; ++a) (void)strategy.place(a);

  const metrics::Snapshot snap = metrics::Registry::global().snapshot();
  const metrics::Labels labels = {{"strategy", "redundant-share"}};
  EXPECT_EQ(counter_value(snap, "rds_placements_total", labels), kBalls);
  // Every placement walks at least one column and considers at least one
  // last-copy candidate.
  EXPECT_GE(counter_value(snap, "rds_placement_chain_columns_total", labels),
            kBalls);
  EXPECT_GE(
      counter_value(snap, "rds_placement_last_copy_candidates_total", labels),
      kBalls);

  // The same balls on four threads: place_many() flushes its tallies once
  // per chunk, and each counter rises by exactly what the sequential pass
  // added.
  std::vector<std::uint64_t> addresses(kBalls);
  std::iota(addresses.begin(), addresses.end(), std::uint64_t{0});
  std::vector<DeviceId> out(kBalls * 2);
  BatchPlacer(4).place(strategy, addresses, out);
  const metrics::Snapshot batched = metrics::Registry::global().snapshot();
  for (const std::string_view name :
       {"rds_placements_total", "rds_placement_chain_columns_total",
        "rds_placement_last_copy_candidates_total"}) {
    EXPECT_EQ(counter_value(batched, name, labels),
              2 * counter_value(snap, name, labels))
        << name;
  }
}

TEST(MetricsIntegration, FastRedundantShareUsesOwnLabel) {
  metrics::Registry::global().reset();
  const ClusterConfig config = cluster_from({500, 600, 700, 800});
  const FastRedundantShare strategy(config, 3);
  for (std::uint64_t a = 0; a < 100; ++a) (void)strategy.place(a);

  const metrics::Snapshot snap = metrics::Registry::global().snapshot();
  EXPECT_EQ(counter_value(snap, "rds_placements_total",
                          {{"strategy", "fast-redundant-share"}}),
            100u);
  EXPECT_EQ(counter_value(snap, "rds_placements_total",
                          {{"strategy", "redundant-share"}}),
            0u);
}

TEST(MetricsIntegration, VirtualDiskReadWriteCounters) {
  metrics::Registry::global().reset();
  VirtualDisk disk(cluster_from({1000, 1000, 1000}),
                   std::make_shared<MirroringScheme>(2));
  const auto data = payload(64);
  for (std::uint64_t b = 0; b < 10; ++b) {
    disk.try_write(b, data).value_or_throw();
  }
  for (std::uint64_t b = 0; b < 10; ++b) {
    (void)disk.try_read(b).value_or_throw();
  }

  const metrics::Snapshot snap = metrics::Registry::global().snapshot();
  EXPECT_EQ(counter_value(snap, "rds_storage_writes_total"), 10u);
  EXPECT_EQ(counter_value(snap, "rds_storage_reads_total"), 10u);
  EXPECT_EQ(counter_value(snap, "rds_storage_written_bytes_total"), 640u);
  EXPECT_EQ(counter_value(snap, "rds_storage_read_bytes_total"), 640u);
  EXPECT_EQ(counter_value(snap, "rds_storage_degraded_reads_total"), 0u);

  const metrics::Sample* lat = snap.find("rds_placement_latency_ns");
  ASSERT_NE(lat, nullptr);
  // One placement timing per write and per read.
  EXPECT_EQ(lat->histogram.count, 20u);
  EXPECT_GT(lat->histogram.sum, 0u);
}

TEST(MetricsIntegration, DegradedReadsAreCounted) {
  metrics::Registry::global().reset();
  VirtualDisk disk(cluster_from({1000, 1000, 1000}),
                   std::make_shared<MirroringScheme>(2));
  const auto data = payload(32);
  for (std::uint64_t b = 0; b < 50; ++b) {
    disk.try_write(b, data).value_or_throw();
  }
  disk.fail_device(0);
  for (std::uint64_t b = 0; b < 50; ++b) {
    (void)disk.try_read(b).value_or_throw();
  }

  const metrics::Snapshot snap = metrics::Registry::global().snapshot();
  EXPECT_GT(counter_value(snap, "rds_storage_degraded_reads_total"), 0u);
  EXPECT_EQ(counter_value(snap, "rds_storage_degraded_reads_total"),
            disk.stats().degraded_reads);
}

TEST(MetricsIntegration, DeviceGaugesTrackFragmentCounts) {
  metrics::Registry::global().reset();
  VirtualDisk disk(cluster_from({1000, 1000, 1000}),
                   std::make_shared<MirroringScheme>(2));
  const auto data = payload(16);
  for (std::uint64_t b = 0; b < 100; ++b) {
    disk.try_write(b, data).value_or_throw();
  }

  const metrics::Snapshot snap = metrics::Registry::global().snapshot();
  std::int64_t total = 0;
  for (const DeviceId uid : {0u, 1u, 2u}) {
    const metrics::Sample* g = snap.find(
        "rds_device_fragments", {{"device", std::to_string(uid)}});
    ASSERT_NE(g, nullptr) << "device " << uid;
    EXPECT_EQ(g->gauge_value,
              static_cast<std::int64_t>(disk.used_on(uid)));
    total += g->gauge_value;
  }
  EXPECT_EQ(total, 200);  // 100 blocks, 2 fragments each

  // Trims must pull the gauges back down.
  for (std::uint64_t b = 0; b < 100; ++b) ASSERT_TRUE(disk.try_trim(b).ok());
  const metrics::Snapshot after = metrics::Registry::global().snapshot();
  for (const DeviceId uid : {0u, 1u, 2u}) {
    const metrics::Sample* g = after.find(
        "rds_device_fragments", {{"device", std::to_string(uid)}});
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(g->gauge_value, 0);
  }
}

// A restored disk's stores set their gauges as they load, so a fresh
// process reads each device's load before any write touches it.
TEST(MetricsIntegration, DeviceGaugesMatchStoresAfterRestore) {
  std::stringstream saved;
  {
    VirtualDisk disk(cluster_from({1000, 1000, 1000}),
                     std::make_shared<MirroringScheme>(2));
    for (std::uint64_t b = 0; b < 300; ++b) {
      disk.try_write(b, payload(16)).value_or_throw();
    }
    Snapshot::save_disk(disk, saved);
  }
  metrics::Registry::global().reset();  // as in a fresh process
  const VirtualDisk restored = Snapshot::load_disk(saved);

  const metrics::Snapshot snap = metrics::Registry::global().snapshot();
  std::int64_t total = 0;
  for (const DeviceId uid : {0u, 1u, 2u}) {
    const metrics::Sample* g = snap.find(
        "rds_device_fragments", {{"device", std::to_string(uid)}});
    ASSERT_NE(g, nullptr) << "device " << uid;
    EXPECT_EQ(g->gauge_value,
              static_cast<std::int64_t>(restored.used_on(uid)))
        << "device " << uid;
    total += g->gauge_value;
  }
  EXPECT_EQ(total, 600);  // 300 blocks, 2 fragments each
}

TEST(MetricsIntegration, MigrationMovesAreCounted) {
  metrics::Registry::global().reset();
  VirtualDisk disk(cluster_from({1000, 1000, 1000}),
                   std::make_shared<MirroringScheme>(2));
  const auto data = payload(128);
  for (std::uint64_t b = 0; b < 200; ++b) {
    disk.try_write(b, data).value_or_throw();
  }
  disk.try_add_device({9, 5000, "grown"}).value_or_throw();

  const metrics::Snapshot snap = metrics::Registry::global().snapshot();
  EXPECT_EQ(counter_value(snap, "rds_topology_events_total"), 1u);
  EXPECT_EQ(counter_value(snap, "rds_migration_fragments_moved_total"),
            disk.stats().fragments_moved);
  EXPECT_EQ(counter_value(snap, "rds_migration_bytes_moved_total"),
            disk.stats().bytes_moved);
  EXPECT_GT(disk.stats().fragments_moved, 0u);

  const metrics::Sample* lat = snap.find("rds_migration_step_latency_ns");
  ASSERT_NE(lat, nullptr);
  EXPECT_GT(lat->histogram.count, 0u);
}

TEST(MetricsIntegration, RebuildCountsFragments) {
  metrics::Registry::global().reset();
  VirtualDisk disk(cluster_from({1000, 1000, 1000, 1000}),
                   std::make_shared<MirroringScheme>(2));
  const auto data = payload(64);
  for (std::uint64_t b = 0; b < 100; ++b) {
    disk.try_write(b, data).value_or_throw();
  }
  disk.fail_device(2);
  const std::uint64_t rebuilt = disk.rebuild();
  EXPECT_GT(rebuilt, 0u);

  const metrics::Snapshot snap = metrics::Registry::global().snapshot();
  EXPECT_EQ(counter_value(snap, "rds_migration_fragments_rebuilt_total"),
            rebuilt);
}

TEST(MetricsIntegration, PoolPublishesVolumeAndDeviceGauges) {
  metrics::Registry::global().reset();
  StoragePool pool(cluster_from({2000, 2000, 2000}));
  VirtualDisk& a = *pool.create_volume("a", std::make_shared<MirroringScheme>(2));
  (void)pool.create_volume("b", std::make_shared<MirroringScheme>(3));
  const auto data = payload(64);
  for (std::uint64_t b = 0; b < 20; ++b) a.try_write(b, data).value_or_throw();

  const metrics::Snapshot snap = metrics::Registry::global().snapshot();
  EXPECT_EQ(counter_value(snap, "rds_pool_volumes_created_total"), 2u);
  const metrics::Sample* volumes = snap.find("rds_pool_volumes");
  ASSERT_NE(volumes, nullptr);
  EXPECT_EQ(volumes->gauge_value, 2);
  const metrics::Sample* devices = snap.find("rds_pool_devices");
  ASSERT_NE(devices, nullptr);
  EXPECT_EQ(devices->gauge_value, 3);
}

}  // namespace
}  // namespace rds
