// The SLO benchmark behind BENCH_latency.json: replica-selection policies
// under Zipf-0.9 read traffic on a heterogeneous pool.
//
// Two kinds of numbers come out of every row:
//
//  * items_per_second -- simulator throughput (machine-dependent, covered
//    by the ratchet's noise tolerance like every other perf row);
//  * the SLO counters p50_us / p99_us / p999_us / max_util -- outputs of
//    the queueing MODEL, not of the clock.  The trace, the service draws
//    and the selector's randomness are all seeded, so these are
//    bit-reproducible on any machine, which is what lets CI enforce a
//    policy ordering ("power-of-two beats random at p99") as a
//    machine-independent perf_ratchet rule instead of a flaky wall-clock
//    comparison (docs/benchmarks.md).
#include <benchmark/benchmark.h>

#include <string>

#include "bench/perf_main.hpp"
#include "src/placement/strategy_factory.hpp"
#include "src/sim/load_sim.hpp"
#include "src/sim/replica_selector.hpp"
#include "src/sim/workload.hpp"

namespace {

using namespace rds;

constexpr std::uint64_t kBalls = 20'000;
constexpr std::uint64_t kRequests = 200'000;
// ~70% mean utilization under a fair placement: enough queueing for the
// policies to separate, short of saturation.
constexpr double kRatePerUs = 0.085;

ClusterConfig pool() {
  std::vector<Device> devices;
  const std::uint64_t caps[] = {8000, 8000, 4000, 4000, 2000, 2000, 2000,
                                2000};
  for (std::size_t i = 0; i < 8; ++i) {
    devices.push_back({i, caps[i], "disk-" + std::to_string(i)});
  }
  return ClusterConfig(std::move(devices));
}

std::vector<ServiceModel> service_models(const ClusterConfig& config) {
  // Device speed scales with capacity, service times exponential around it.
  std::vector<ServiceModel> models;
  for (const Device& d : config.devices()) {
    const double scale = 8000.0 / static_cast<double>(d.capacity);
    ServiceModel m;
    m.seek_us = 20.0 * scale;
    m.us_per_block = 5.0 * scale;
    m.shape = ServiceModel::Shape::kExponential;
    models.push_back(m);
  }
  return models;
}

void bm_loadsim(benchmark::State& state, SelectorKind kind) {
  const ClusterConfig config = pool();
  const auto strategy =
      make_replication_strategy(PlacementKind::kRedundantShare, config, 2);
  const BlockMap map(*strategy, kBalls);
  const std::vector<ServiceModel> models = service_models(config);
  const auto workload = try_make_workload("zipf:0.9", kBalls).value_or_throw();
  Xoshiro256 trace_rng(4242);
  const auto trace = make_trace(*workload, kRequests, kRatePerUs, trace_rng);

  LoadResult last;
  for (auto _ : state) {
    // Fresh, identically-seeded selector and RNG every iteration: the SLO
    // counters are pure functions of (trace, models, policy, seed).
    Xoshiro256 rng(7);
    const auto selector = make_replica_selector(kind);
    last = simulate_load(config, map, trace, models, *selector, rng);
    benchmark::DoNotOptimize(last.p99_response_us);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRequests));
  state.counters["p50_us"] = last.p50_response_us;
  state.counters["p99_us"] = last.p99_response_us;
  state.counters["p999_us"] = last.p999_response_us;
  state.counters["max_util"] = last.max_utilization();
}

void bm_make_trace(benchmark::State& state, const std::string& spec) {
  const auto workload = try_make_workload(spec, kBalls).value_or_throw();
  for (auto _ : state) {
    Xoshiro256 rng(11);
    benchmark::DoNotOptimize(
        make_trace(*workload, kRequests, kRatePerUs, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRequests));
}

}  // namespace

int main(int argc, char** argv) {
  // Explicit registration so row names carry the workload and the policy's
  // canonical spelling: bm_loadsim/zipf09/<policy> -- the names the
  // committed latency rules key on.
  for (const SelectorKind kind : rds::all_selector_kinds()) {
    const std::string name =
        "bm_loadsim/zipf09/" + std::string(rds::to_string(kind));
    benchmark::RegisterBenchmark(
        name.c_str(),
        [kind](benchmark::State& state) { bm_loadsim(state, kind); });
  }
  for (const std::string spec :
       {"uniform", "zipf:0.9", "flash-crowd:0.9", "diurnal:0.9",
        "hotspot-shift:0.9"}) {
    std::string label = spec;
    for (char& c : label) {
      if (c == ':' || c == ',') c = '_';
    }
    const std::string name = "bm_make_trace/" + label;
    benchmark::RegisterBenchmark(
        name.c_str(),
        [spec](benchmark::State& state) { bm_make_trace(state, spec); });
  }
  return rds::bench::perf_main(argc, argv);
}
