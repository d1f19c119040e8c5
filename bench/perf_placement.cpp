// Placement-latency microbenchmarks (Section 3 prose: LinMirror /
// k-replication run in O(n); Section 3.3 trades memory for speed: O(k log n)
// in FastRedundantShare).
//
// Measures ns/placement across cluster sizes and replication degrees for
// Redundant Share, its Section 3.3 variant, and the single-copy
// substrates, plus strategy (re)construction cost -- the other side of the
// trade (tables are rebuilt per committed topology change).  The
// bm_factory_* rows construct through make_replication_strategy, i.e. the
// exact path a VirtualDisk reshape takes; the perf ratchet's headline
// speedup check (fast-redundant-share vs redundant-share,
// docs/benchmarks.md) reads those rows.
#include <benchmark/benchmark.h>

#include <memory>
#include <numeric>
#include <vector>

#include "bench/perf_main.hpp"
#include "src/core/fast_redundant_share.hpp"
#include "src/core/redundant_share.hpp"
#include "src/placement/batch_placer.hpp"
#include "src/placement/consistent_hashing.hpp"
#include "src/placement/rendezvous.hpp"
#include "src/placement/share.hpp"
#include "src/placement/sieve.hpp"
#include "src/placement/strategy_factory.hpp"
#include "src/placement/trivial_replication.hpp"
#include "src/placement/weighted_dht.hpp"
#include "src/util/random.hpp"

namespace {

using namespace rds;

ClusterConfig make_cluster(std::size_t n) {
  Xoshiro256 rng(n * 1234567);
  std::vector<Device> devices;
  devices.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    devices.push_back({i, 500 + rng.next_below(2000), ""});
  }
  return ClusterConfig(std::move(devices));
}

template <typename Strategy>
void bm_replicated(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<unsigned>(state.range(1));
  const ClusterConfig config = make_cluster(n);
  const Strategy strategy(config, k);
  std::vector<DeviceId> out(k);
  std::uint64_t address = 0;
  for (auto _ : state) {
    strategy.place(address++, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

template <typename Strategy>
void bm_single(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ClusterConfig config = make_cluster(n);
  const Strategy strategy(config);
  std::uint64_t address = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(strategy.place(address++));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// Factory-path placement: the strategy is built by make_replication_strategy
// exactly as a VirtualDisk reshape and rds_cli do, so these rows measure
// what a live system actually serves (virtual dispatch included).
void bm_factory_replicated(benchmark::State& state, PlacementKind kind) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<unsigned>(state.range(1));
  const ClusterConfig config = make_cluster(n);
  const std::unique_ptr<ReplicationStrategy> strategy =
      make_replication_strategy(kind, config, k);
  std::vector<DeviceId> out(k);
  std::uint64_t address = 0;
  for (auto _ : state) {
    strategy->place(address++, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// place_many through the factory product: the batch entry point BatchPlacer
// chunks feed (amortized span check, no per-address virtual dispatch).
void bm_factory_place_many(benchmark::State& state, PlacementKind kind) {
  constexpr std::size_t kBatch = 4096;
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<unsigned>(state.range(1));
  const ClusterConfig config = make_cluster(n);
  const std::unique_ptr<ReplicationStrategy> strategy =
      make_replication_strategy(kind, config, k);
  std::vector<std::uint64_t> addresses(kBatch);
  std::iota(addresses.begin(), addresses.end(), std::uint64_t{0});
  std::vector<DeviceId> out(kBatch * k);
  for (auto _ : state) {
    strategy->place_many(addresses, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kBatch));
}

template <typename Strategy>
void bm_construction(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<unsigned>(state.range(1));
  const ClusterConfig config = make_cluster(n);
  for (auto _ : state) {
    const Strategy strategy(config, k);
    benchmark::DoNotOptimize(&strategy);
  }
}

// Batch placement through the BatchPlacer worker pool: one 64k-address
// batch per iteration, swept over the pool size.  Throughput (items/s)
// against the threads=1 row is the multithreaded speedup; on a single
// hardware core the rows collapse to the same rate minus hand-off overhead.
template <typename Strategy>
void bm_batch_place(benchmark::State& state) {
  constexpr std::size_t kBatch = 65536;
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<unsigned>(state.range(1));
  const auto threads = static_cast<unsigned>(state.range(2));
  const ClusterConfig config = make_cluster(n);
  const Strategy strategy(config, k);
  BatchPlacer placer(threads);
  std::vector<std::uint64_t> addresses(kBatch);
  std::iota(addresses.begin(), addresses.end(), std::uint64_t{0});
  std::vector<DeviceId> out(kBatch * k);
  for (auto _ : state) {
    placer.place(strategy, addresses, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kBatch));
}

void replicated_args(benchmark::internal::Benchmark* b) {
  for (const std::int64_t n : {10, 100, 1000}) {
    for (const std::int64_t k : {2, 4}) {
      b->Args({n, k});
    }
  }
}

void batch_args(benchmark::internal::Benchmark* b) {
  for (const std::int64_t threads : {1, 2, 4, 8}) {
    b->Args({1000, 2, threads});
  }
  b->UseRealTime();  // wall clock: the pool's threads do the work
}

}  // namespace

BENCHMARK_TEMPLATE(bm_replicated, RedundantShare)->Apply(replicated_args);
BENCHMARK_TEMPLATE(bm_replicated, FastRedundantShare)->Apply(replicated_args);
BENCHMARK_TEMPLATE(bm_replicated, TrivialReplication)->Apply(replicated_args);

BENCHMARK_TEMPLATE(bm_single, WeightedRendezvous)
    ->Arg(10)
    ->Arg(100)
    ->Arg(1000);
BENCHMARK_TEMPLATE(bm_single, ConsistentHashing)->Arg(10)->Arg(100)->Arg(1000);
BENCHMARK_TEMPLATE(bm_single, Share)->Arg(10)->Arg(100)->Arg(1000);
BENCHMARK_TEMPLATE(bm_single, Sieve)->Arg(10)->Arg(100)->Arg(1000);
BENCHMARK_TEMPLATE(bm_single, WeightedDht)->Arg(10)->Arg(100)->Arg(1000);

BENCHMARK_TEMPLATE(bm_batch_place, FastRedundantShare)->Apply(batch_args);
BENCHMARK_TEMPLATE(bm_batch_place, RedundantShare)->Args({1000, 2, 4})
    ->UseRealTime();

// The ratchet's headline pair: exact law through the factory at the
// ROADMAP reference point n=1000, k=4 (plus the other kinds for context).
BENCHMARK_CAPTURE(bm_factory_replicated, redundant_share,
                  PlacementKind::kRedundantShare)
    ->Args({1000, 4});
BENCHMARK_CAPTURE(bm_factory_replicated, fast_redundant_share,
                  PlacementKind::kFastRedundantShare)
    ->Args({1000, 4});
BENCHMARK_CAPTURE(bm_factory_place_many, redundant_share,
                  PlacementKind::kRedundantShare)
    ->Args({1000, 4});
BENCHMARK_CAPTURE(bm_factory_place_many, fast_redundant_share,
                  PlacementKind::kFastRedundantShare)
    ->Args({1000, 4});

// Construction cost is the price of the fast lookups: O(k n) tables for
// the fast variant.  Swept over n so the trade-off of Section 3.3 is
// visible in one JSON.
BENCHMARK_TEMPLATE(bm_construction, RedundantShare)
    ->Args({100, 4})
    ->Args({1000, 4});
BENCHMARK_TEMPLATE(bm_construction, FastRedundantShare)
    ->Args({100, 4})
    ->Args({1000, 4});

int main(int argc, char** argv) { return rds::bench::perf_main(argc, argv); }
