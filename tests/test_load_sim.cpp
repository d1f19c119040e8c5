// The FCFS load simulator: trace generation (Poisson thinning), queueing
// arithmetic, policy separation at skew, and the live-disk overload that
// resolves replicas through VirtualDisk::try_copy_locations.
#include "src/sim/load_sim.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/core/redundant_share.hpp"
#include "src/storage/virtual_disk.hpp"

namespace rds {
namespace {

ClusterConfig make_pool() {
  return ClusterConfig(
      {{1, 4000, ""}, {2, 2000, ""}, {3, 2000, ""}, {4, 1000, ""}});
}

/// Always copy 0 -- what a naive client does; lives here to prove the
/// selector seam accepts out-of-tree policies.
class PrimaryOnlySelector final : public ReplicaSelector {
 public:
  [[nodiscard]] std::size_t select(std::span<const std::size_t> /*replicas*/,
                                   const QueueView& /*queues*/,
                                   Xoshiro256& /*rng*/) override {
    return 0;
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "primary-only";
  }
};

ServiceModel fixed(double seek_us, double us_per_block) {
  ServiceModel m;
  m.seek_us = seek_us;
  m.us_per_block = us_per_block;
  m.shape = ServiceModel::Shape::kDeterministic;
  return m;
}

TEST(ServiceModelTest, ShapesPreserveTheMean) {
  Xoshiro256 rng(3);
  for (const ServiceModel::Shape shape :
       {ServiceModel::Shape::kDeterministic,
        ServiceModel::Shape::kExponential,
        ServiceModel::Shape::kLognormal}) {
    ServiceModel m = fixed(100.0, 10.0);
    m.shape = shape;
    double sum = 0.0;
    constexpr int kN = 200'000;
    for (int i = 0; i < kN; ++i) {
      const double s = m.sample_us(rng);
      ASSERT_GT(s, 0.0);
      sum += s;
    }
    EXPECT_NEAR(sum / kN, 110.0, 2.0) << "shape " << static_cast<int>(shape);
  }
}

TEST(LoadSim, TraceGeneration) {
  const ZipfGenerator zipf =
      ZipfGenerator::try_make(1000, 0.9).value_or_throw();
  Xoshiro256 rng(5);
  const auto trace = make_trace(zipf, 5000, /*rate=*/0.01, rng);
  ASSERT_EQ(trace.size(), 5000u);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GE(trace[i].arrival_us, trace[i - 1].arrival_us);
    EXPECT_LT(trace[i].ball, 1000u);
  }
  // Mean interarrival ~ 1/rate (rate_factor == 1 for plain Zipf).
  EXPECT_NEAR(trace.back().arrival_us / 5000.0, 100.0, 10.0);
}

TEST(LoadSim, ThinningFollowsTheRateFactor) {
  // Diurnal modulation: rate_factor = 1 + 0.8 sin(2pi t / period), so the
  // first half-period must receive ~(1 + 2*0.8/pi) / (1 - 2*0.8/pi) times
  // the arrivals of the second.
  const DiurnalGenerator diurnal(100, 0.0, /*amplitude=*/0.8,
                                 /*period_us=*/1e6);
  Xoshiro256 rng(29);
  const auto trace = make_trace(diurnal, 40'000, /*rate=*/0.02, rng);
  std::uint64_t first_half = 0;
  std::uint64_t second_half = 0;
  for (const Request& r : trace) {
    const double phase = std::fmod(r.arrival_us, 1e6);
    (phase < 5e5 ? first_half : second_half) += 1;
  }
  const double expected_ratio = (1.0 + 1.6 / 3.141592653589793) /
                                (1.0 - 1.6 / 3.141592653589793);
  EXPECT_NEAR(static_cast<double>(first_half) /
                  static_cast<double>(second_half),
              expected_ratio, 0.25);
}

TEST(LoadSim, SingleRequestLatencyIsServiceTime) {
  const ClusterConfig pool = make_pool();
  const RedundantShare strategy(pool, 2);
  const BlockMap map(strategy, 10);
  const std::vector<Request> trace{{0.0, 3}};
  const ServiceModel model = fixed(100.0, 10.0);
  PrimaryOnlySelector selector;
  Xoshiro256 rng(1);
  const LoadResult r =
      simulate_load(pool, map, trace,
                    std::span<const ServiceModel>(&model, 1), selector, rng);
  EXPECT_DOUBLE_EQ(r.mean_response_us, 110.0);
  EXPECT_DOUBLE_EQ(r.makespan_us, 110.0);
}

TEST(LoadSim, QueueingDelaysShowUp) {
  // Two simultaneous requests to the same ball via primary-only: the
  // second waits for the first.
  const ClusterConfig pool = make_pool();
  const RedundantShare strategy(pool, 2);
  const BlockMap map(strategy, 10);
  const std::vector<Request> trace{{0.0, 3}, {0.0, 3}};
  const ServiceModel model = fixed(50.0, 0.0);
  PrimaryOnlySelector selector;
  Xoshiro256 rng(1);
  const LoadResult r =
      simulate_load(pool, map, trace,
                    std::span<const ServiceModel>(&model, 1), selector, rng);
  EXPECT_DOUBLE_EQ(r.max_response_us, 100.0);
  EXPECT_DOUBLE_EQ(r.mean_response_us, 75.0);
}

TEST(LoadSim, LeastLoadedSpreadsReplicas) {
  // Same two simultaneous requests, but least-loaded picks distinct
  // replicas: both finish in one service time.
  const ClusterConfig pool = make_pool();
  const RedundantShare strategy(pool, 2);
  const BlockMap map(strategy, 10);
  const std::vector<Request> trace{{0.0, 3}, {0.0, 3}};
  const ServiceModel model = fixed(50.0, 0.0);
  const auto selector = make_replica_selector(SelectorKind::kLeastLoaded);
  Xoshiro256 rng(1);
  const LoadResult r =
      simulate_load(pool, map, trace,
                    std::span<const ServiceModel>(&model, 1), *selector, rng);
  EXPECT_DOUBLE_EQ(r.max_response_us, 50.0);
}

TEST(LoadSim, UtilizationTracksCapacityUnderFairPlacement) {
  const ClusterConfig pool = make_pool();
  const RedundantShare strategy(pool, 2);
  const BlockMap map(strategy, 20'000);
  const UniformGenerator uniform(20'000);
  Xoshiro256 rng(9);
  const auto trace = make_trace(uniform, 100'000, /*rate=*/0.005, rng);
  const ServiceModel model = fixed(20.0, 5.0);
  const auto selector = make_replica_selector(SelectorKind::kRoundRobin);
  const LoadResult r =
      simulate_load(pool, map, trace,
                    std::span<const ServiceModel>(&model, 1), *selector, rng);
  // Requests per device proportional to capacity: 4000:2000:2000:1000.
  const double total_requests = 100'000.0;
  EXPECT_NEAR(static_cast<double>(r.devices[0].requests) / total_requests,
              4.0 / 9.0, 0.02);
  EXPECT_NEAR(static_cast<double>(r.devices[3].requests) / total_requests,
              1.0 / 9.0, 0.02);
  // Quantiles are ordered by construction.
  EXPECT_LE(r.p50_response_us, r.p99_response_us);
  EXPECT_LE(r.p99_response_us, r.p999_response_us);
  EXPECT_LE(r.p999_response_us, r.max_response_us * 1.03);
}

TEST(LoadSim, PowerOfTwoBeatsRandomAtSkew) {
  // The acceptance invariant behind BENCH_latency.json, at test scale:
  // Zipf-0.9 on a heterogeneous pool, identical trace, p2c's p99 strictly
  // below random's.
  const ClusterConfig pool = make_pool();
  const RedundantShare strategy(pool, 2);
  const BlockMap map(strategy, 5'000);
  const ZipfGenerator zipf =
      ZipfGenerator::try_make(5'000, 0.9).value_or_throw();
  Xoshiro256 trace_rng(42);
  // util ~ 0.7 at fair split: enough queueing for the policies to separate.
  const auto trace = make_trace(zipf, 60'000, /*rate=*/0.126, trace_rng);
  std::vector<ServiceModel> models;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const double scale = 4000.0 / static_cast<double>(pool[i].capacity);
    models.push_back(fixed(10.0 * scale, 2.5 * scale));
  }

  const auto run = [&](SelectorKind kind) {
    Xoshiro256 rng(7);
    const auto selector = make_replica_selector(kind);
    return simulate_load(pool, map, trace, models, *selector, rng);
  };
  const LoadResult random = run(SelectorKind::kRandom);
  const LoadResult p2c = run(SelectorKind::kPowerOfTwo);
  EXPECT_LT(p2c.p99_response_us, random.p99_response_us);
  EXPECT_LE(p2c.max_utilization(), random.max_utilization() + 1e-9);
}

TEST(LoadSim, RunsAreDeterministicGivenSeeds) {
  // The property the machine-independent ratchet rule rests on.
  const ClusterConfig pool = make_pool();
  const RedundantShare strategy(pool, 2);
  const BlockMap map(strategy, 1'000);
  const ZipfGenerator zipf =
      ZipfGenerator::try_make(1'000, 0.9).value_or_throw();
  std::vector<ServiceModel> models(1);
  models[0].shape = ServiceModel::Shape::kExponential;

  const auto run = [&] {
    Xoshiro256 trace_rng(4242);
    const auto trace = make_trace(zipf, 20'000, /*rate=*/0.05, trace_rng);
    Xoshiro256 rng(7);
    const auto selector = make_replica_selector(SelectorKind::kPowerOfTwo);
    return simulate_load(pool, map, trace, models, *selector, rng);
  };
  const LoadResult a = run();
  const LoadResult b = run();
  EXPECT_DOUBLE_EQ(a.p50_response_us, b.p50_response_us);
  EXPECT_DOUBLE_EQ(a.p99_response_us, b.p99_response_us);
  EXPECT_DOUBLE_EQ(a.p999_response_us, b.p999_response_us);
  EXPECT_DOUBLE_EQ(a.makespan_us, b.makespan_us);
}

TEST(LoadSim, VirtualDiskOverloadMatchesBlockMapRun) {
  // The live-disk path resolves every request through try_copy_locations;
  // against a quiescent disk it must reproduce the materialized-map run
  // exactly.
  VirtualDisk disk(make_pool(), std::make_shared<MirroringScheme>(2));
  const auto epoch = disk.placement_snapshot();
  const BlockMap map(*epoch->strategy, 2'000);

  const ZipfGenerator zipf =
      ZipfGenerator::try_make(2'000, 0.9).value_or_throw();
  Xoshiro256 trace_rng(11);
  const auto trace = make_trace(zipf, 30'000, /*rate=*/0.04, trace_rng);
  const ServiceModel model = fixed(20.0, 5.0);

  const auto run = [&](auto&&... target) {
    Xoshiro256 rng(7);
    const auto selector = make_replica_selector(SelectorKind::kLeastLoaded);
    return simulate_load(target..., trace,
                         std::span<const ServiceModel>(&model, 1), *selector,
                         rng);
  };
  const LoadResult via_map = run(epoch->config, map);
  const LoadResult via_disk = run(disk);
  EXPECT_DOUBLE_EQ(via_map.p99_response_us, via_disk.p99_response_us);
  EXPECT_DOUBLE_EQ(via_map.makespan_us, via_disk.makespan_us);
  ASSERT_EQ(via_map.devices.size(), via_disk.devices.size());
  for (std::size_t i = 0; i < via_map.devices.size(); ++i) {
    EXPECT_EQ(via_map.devices[i].requests, via_disk.devices[i].requests);
  }
}

TEST(LoadSim, DegradedDevicesReceiveNoReadsWhileAlternativesExist) {
  const ClusterConfig pool = make_pool();
  const RedundantShare strategy(pool, 2);
  const BlockMap map(strategy, 20'000);
  const UniformGenerator uniform(20'000);
  Xoshiro256 rng(9);
  const auto trace = make_trace(uniform, 50'000, /*rate=*/0.005, rng);
  const ServiceModel model = fixed(20.0, 5.0);
  // Mark the largest device degraded: with k = 2 nearly every ball keeps a
  // healthy copy elsewhere, so device 0 serves (almost) nothing while the
  // survivors pick up its share.
  const std::vector<std::uint8_t> degraded{1, 0, 0, 0};
  for (const SelectorKind kind : all_selector_kinds()) {
    const auto selector = make_replica_selector(kind);
    Xoshiro256 run_rng(11);
    const LoadResult r = simulate_load(
        pool, map, trace, std::span<const ServiceModel>(&model, 1),
        *selector, run_rng, degraded);
    const double fallback_share =
        static_cast<double>(r.devices[0].requests) /
        static_cast<double>(trace.size());
    // Only balls with BOTH copies on device 0 may fall back (impossible
    // under replicated placement to distinct devices): expect zero.
    EXPECT_EQ(r.devices[0].requests, 0u) << to_string(kind);
    EXPECT_LT(fallback_share, 0.001) << to_string(kind);
  }
}

TEST(LoadSim, WhollyDegradedFleetStillServes) {
  // Graceful fallback: when every copy is degraded the read goes through
  // anyway (a rebuilding device still answers, slowly); the run must not
  // drop or deadlock.
  const ClusterConfig pool = make_pool();
  const RedundantShare strategy(pool, 2);
  const BlockMap map(strategy, 100);
  const std::vector<Request> trace{{0.0, 1}, {10.0, 2}, {20.0, 3}};
  const ServiceModel model = fixed(50.0, 0.0);
  const std::vector<std::uint8_t> degraded{1, 1, 1, 1};
  const auto selector = make_replica_selector(SelectorKind::kPowerOfTwo);
  Xoshiro256 rng(5);
  const LoadResult r = simulate_load(
      pool, map, trace, std::span<const ServiceModel>(&model, 1), *selector,
      rng, degraded);
  std::uint64_t served = 0;
  for (const DeviceLoad& d : r.devices) served += d.requests;
  EXPECT_EQ(served, trace.size());
}

TEST(LoadSim, DegradedMaskValidatesItsLength) {
  const ClusterConfig pool = make_pool();
  const RedundantShare strategy(pool, 2);
  const BlockMap map(strategy, 10);
  const std::vector<Request> trace{{0.0, 1}};
  const ServiceModel model = fixed(10.0, 0.0);
  PrimaryOnlySelector selector;
  Xoshiro256 rng(1);
  const std::vector<std::uint8_t> wrong{1, 0};  // pool has 4 devices
  EXPECT_THROW(
      (void)simulate_load(pool, map, trace,
                          std::span<const ServiceModel>(&model, 1), selector,
                          rng, wrong),
      std::invalid_argument);
}

TEST(LoadSim, Validation) {
  const ClusterConfig pool = make_pool();
  const RedundantShare strategy(pool, 2);
  const BlockMap map(strategy, 10);
  const ZipfGenerator zipf = ZipfGenerator::try_make(10, 0.9).value_or_throw();
  Xoshiro256 rng(1);
  EXPECT_THROW((void)make_trace(zipf, 10, 0.0, rng), std::invalid_argument);
  EXPECT_THROW((void)make_trace(zipf, 10, -1.0, rng),
               std::invalid_argument);

  PrimaryOnlySelector selector;
  const std::vector<Request> unsorted{{5.0, 1}, {1.0, 2}};
  const ServiceModel model;
  EXPECT_THROW(
      (void)simulate_load(pool, map, unsorted,
                          std::span<const ServiceModel>(&model, 1), selector,
                          rng),
      std::invalid_argument);
  const std::vector<Request> ok{{0.0, 1}};
  EXPECT_THROW((void)simulate_load(pool, map, ok, {}, selector, rng),
               std::invalid_argument);
  const std::vector<ServiceModel> two(2);
  EXPECT_THROW((void)simulate_load(pool, map, ok, two, selector, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace rds
