// Extension experiment: the read-path SLO table.
//
// The paper's fairness definition includes requests ("x% of the capacity
// gets x% of the data and the requests"), but which of a ball's k copies a
// client reads is outside the placement function -- it is the replica
// selection policy.  This table replays the same Zipf-0.9 trace against a
// capacity-fair Redundant Share placement under every selection policy and
// reports the SLO quantiles (p50/p99/p999) plus the utilization spread:
// queue-aware policies (least-loaded, power-of-two-choices) hold the tail
// latency an order of magnitude below oblivious ones at the same offered
// load.  A second sweep holds the policy fixed (p2c) and varies the
// workload shape.  FCFS queueing simulation throughout
// (src/sim/load_sim.hpp); the machine-gated numbers live in
// BENCH_latency.json via bench/perf_latency.
#include <iostream>
#include <string>

#include "bench/bench_common.hpp"
#include "src/placement/strategy_factory.hpp"
#include "src/sim/load_sim.hpp"
#include "src/sim/replica_selector.hpp"
#include "src/sim/workload.hpp"

namespace {

using namespace rds;
using namespace rds::bench;

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
  // Transfer speed proportional to capacity: an 8T disk is 4x as fast as a
  // 2T disk (same generation-scaling the paper's scenario implies).
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

constexpr std::uint64_t kBalls = 50'000;
constexpr std::uint64_t kRequests = 300'000;
// Aggregate service capacity ~8 disks; rate chosen for ~70% mean load
// under fair placement, which pushes an unbalanced pick's slowest devices
// into saturation.
constexpr double kRatePerUs = 0.085;

void print_row(const std::string& label, const LoadResult& r) {
  std::cout << cell(label, 24) << cell(r.p50_response_us, 12, 1)
            << cell(r.p99_response_us, 12, 1)
            << cell(r.p999_response_us, 12, 1)
            << cell(100.0 * r.max_utilization(), 12, 1);
  double min_util = 1.0;
  for (const DeviceLoad& d : r.devices) {
    min_util = std::min(min_util, d.utilization);
  }
  std::cout << cell(100.0 * min_util, 12, 1) << '\n';
}

void table_header(const std::string& first) {
  std::cout << cell(first, 24) << cell("p50 us", 12) << cell("p99 us", 12)
            << cell("p999 us", 12) << cell("max util%", 12)
            << cell("min util%", 12) << '\n';
}

}  // namespace

int main() {
  header("Extension: read-path SLO under FCFS queueing");
  std::cout << "pool: 2x8T (fast), 2x4T, 4x2T (slow); device speed scales"
            << " with size\nplacement: redundant-share k=2, "
            << kRequests << " requests at " << kRatePerUs << "/us\n\n";

  const ClusterConfig config = pool();
  const auto strategy =
      make_replication_strategy(PlacementKind::kRedundantShare, config, 2);
  const BlockMap map(*strategy, kBalls);
  const std::vector<ServiceModel> models = service_models(config);

  std::cout << "selection policy sweep (workload zipf:0.9):\n";
  table_header("policy");
  const auto workload = try_make_workload("zipf:0.9", kBalls).value_or_throw();
  for (const SelectorKind kind : all_selector_kinds()) {
    Xoshiro256 rng(4242);  // same trace and service draws for every policy
    const auto trace = make_trace(*workload, kRequests, kRatePerUs, rng);
    const auto selector = make_replica_selector(kind);
    print_row(std::string(to_string(kind)),
              simulate_load(config, map, trace, models, *selector, rng));
  }

  std::cout << "\nworkload sweep (policy power-of-two):\n";
  table_header("workload");
  for (const std::string_view spec :
       {std::string_view("uniform"), std::string_view("zipf:0.9"),
        std::string_view("flash-crowd:0.9"), std::string_view("diurnal:0.9"),
        std::string_view("hotspot-shift:0.9")}) {
    Xoshiro256 rng(4242);
    const auto shaped = try_make_workload(spec, kBalls).value_or_throw();
    const auto trace = make_trace(*shaped, kRequests, kRatePerUs, rng);
    const auto selector = make_replica_selector(SelectorKind::kPowerOfTwo);
    print_row(std::string(spec),
              simulate_load(config, map, trace, models, *selector, rng));
  }

  std::cout << "\nexpected: queue-aware policies (least-loaded, p2c) keep"
            << " p99/p999 far below\nrandom and round-robin at the same"
            << " offered load; water-filling sits between\n(speed-aware but"
            << " blind to queue state)\n";
  return 0;
}
