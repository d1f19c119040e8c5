#include "src/sim/load_sim.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <unordered_map>

#include "src/metrics/registry.hpp"
#include "src/storage/virtual_disk.hpp"
#include "src/util/gauge_guard.hpp"

namespace rds {

double LoadResult::max_utilization() const {
  double worst = 0.0;
  for (const DeviceLoad& d : devices) worst = std::max(worst, d.utilization);
  return worst;
}

double ServiceModel::sample_us(Xoshiro256& rng) const {
  const double mean = mean_us();
  switch (shape) {
    case Shape::kDeterministic:
      return mean;
    case Shape::kExponential:
      // Inverse transform; log1p(-u) is exact near u = 0.
      return -mean * std::log1p(-rng.next_unit());
    case Shape::kLognormal: {
      // Box-Muller standard normal; the -sigma^2/2 shift keeps the mean at
      // mean_us() for every sigma.
      const double u1 = 1.0 - rng.next_unit();  // (0, 1]
      const double u2 = rng.next_unit();
      constexpr double kTwoPi = 6.283185307179586;
      const double z =
          std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
      return mean * std::exp(sigma * z - sigma * sigma / 2.0);
    }
  }
  return mean;
}

std::vector<Request> make_trace(const WorkloadGenerator& workload,
                                std::uint64_t count, double rate_per_us,
                                Xoshiro256& rng) {
  if (!(rate_per_us > 0.0) || std::isinf(rate_per_us)) {
    throw std::invalid_argument("make_trace: rate must be positive and "
                                "finite");
  }
  const double max_factor = workload.max_rate_factor();
  if (!(max_factor > 0.0) || std::isinf(max_factor)) {
    throw std::invalid_argument("make_trace: workload max_rate_factor must "
                                "be positive and finite");
  }
  // Lewis & Shedler thinning: candidate arrivals from a homogeneous Poisson
  // process at the majorant rate, kept with probability rate(t)/majorant.
  const double majorant = rate_per_us * max_factor;
  std::vector<Request> trace;
  trace.reserve(count);
  double t = 0.0;
  while (trace.size() < count) {
    t += -std::log1p(-rng.next_unit()) / majorant;
    if (rng.next_unit() * max_factor < workload.rate_factor(t)) {
      trace.push_back({t, workload.sample(rng, t)});
    }
  }
  return trace;
}

namespace {

/// The simulator's queue state as selectors see it: backlog is how much
/// service time device `dev` still owes ahead of a request arriving `now`.
class FreeAtQueueView final : public QueueView {
 public:
  FreeAtQueueView(const std::vector<double>& free_at,
                  std::span<const ServiceModel> models,
                  std::span<const std::uint8_t> degraded)
      : free_at_(free_at), models_(models), degraded_(degraded) {}

  void set_now(double now_us) noexcept { now_us_ = now_us; }

  [[nodiscard]] double backlog_us(std::size_t dev) const override {
    return std::max(0.0, free_at_[dev] - now_us_);
  }
  [[nodiscard]] double mean_service_us(std::size_t dev) const override {
    return (models_.size() == 1 ? models_[0] : models_[dev]).mean_us();
  }
  [[nodiscard]] std::size_t device_count() const override {
    return free_at_.size();
  }
  [[nodiscard]] bool available(std::size_t dev) const override {
    return degraded_.empty() || degraded_[dev] == 0;
  }

 private:
  const std::vector<double>& free_at_;
  std::span<const ServiceModel> models_;
  std::span<const std::uint8_t> degraded_;  ///< empty = all healthy
  double now_us_ = 0.0;
};

/// Shared FCFS replay loop.  `resolve` fills the canonical device indices
/// of a ball's copies (false = this request cannot be resolved and is
/// dropped -- the live-disk path uses that for replicas outside the entry
/// snapshot).
LoadResult run_simulation(
    const ClusterConfig& config, std::span<const Request> trace,
    std::span<const ServiceModel> models, ReplicaSelector& selector,
    Xoshiro256& rng, std::span<const std::uint8_t> degraded,
    const std::function<bool(std::uint64_t, std::vector<std::size_t>&)>&
        resolve) {
  if (models.empty()) {
    throw std::invalid_argument("simulate_load: no service model");
  }
  if (models.size() != 1 && models.size() != config.size()) {
    throw std::invalid_argument("simulate_load: models size mismatch");
  }
  if (!degraded.empty() && degraded.size() != config.size()) {
    throw std::invalid_argument("simulate_load: degraded size mismatch");
  }

  std::vector<double> free_at(config.size(), 0.0);
  FreeAtQueueView queues(free_at, models, degraded);

  LoadResult result;
  result.devices.resize(config.size());
  for (std::size_t i = 0; i < config.size(); ++i) {
    result.devices[i].uid = config[i].uid;
  }

  // This run's response times in ns: ~3% relative quantile error, O(1)
  // memory in the trace length.  The sum and max are kept exactly beside
  // it.
  metrics::LatencyHistogram responses;
  double response_sum_us = 0.0;
  // Registry instruments so live runs surface the simulated device behavior
  // next to the storage/placement metrics (docs/metrics.md).
  metrics::Registry& reg = metrics::Registry::global();
  metrics::Counter& requests_total =
      reg.counter("rds_loadsim_requests_total");
  metrics::Counter& dropped_total =
      reg.counter("rds_loadsim_requests_dropped_total");
  metrics::Counter& degraded_served_total =
      reg.counter("rds_loadsim_degraded_served_total");
  metrics::LatencyHistogram& response_latency_ns =
      reg.histogram("rds_loadsim_response_latency_ns");
  metrics::LatencyHistogram& queue_wait_ns =
      reg.histogram("rds_loadsim_queue_wait_ns");
  metrics::Gauge& inflight = reg.gauge("rds_loadsim_inflight");
  metrics::Gauge& queue_depth_peak =
      reg.gauge("rds_loadsim_queue_depth_peak");

  std::vector<std::size_t> replicas;
  double last_arrival = 0.0;
  for (const Request& r : trace) {
    if (r.arrival_us < last_arrival) {
      throw std::invalid_argument("simulate_load: trace not sorted");
    }
    last_arrival = r.arrival_us;
    // One logical request in flight from resolve through service
    // accounting; the guard keeps the gauge balanced on every exit path.
    const metrics::GaugeGuard in_flight_guard(inflight);
    if (!resolve(r.ball, replicas)) {
      dropped_total.inc();
      continue;
    }

    queues.set_now(r.arrival_us);
    const std::size_t chosen = selector.select(replicas, queues, rng);
    const std::size_t dev = replicas[chosen];
    // All copies degraded and the selector fell back: count it, still serve.
    if (!degraded.empty() && degraded[dev] != 0) degraded_served_total.inc();
    const ServiceModel& model = models.size() == 1 ? models[0] : models[dev];

    const double service_us = model.sample_us(rng);
    const double start = std::max(r.arrival_us, free_at[dev]);
    const double finish = start + service_us;
    free_at[dev] = finish;

    result.devices[dev].requests += 1;
    result.devices[dev].busy_us += service_us;
    const double response_us = finish - r.arrival_us;
    const auto response_ns = static_cast<std::uint64_t>(response_us * 1000.0);
    responses.record(response_ns);
    response_sum_us += response_us;
    result.max_response_us = std::max(result.max_response_us, response_us);
    result.makespan_us = std::max(result.makespan_us, finish);

    requests_total.inc();
    response_latency_ns.record(response_ns);
    const double wait_us = start - r.arrival_us;
    queue_wait_ns.record(static_cast<std::uint64_t>(wait_us * 1000.0));
    // FCFS backlog expressed in requests: how many mean service times fit
    // into the wait this arrival experienced.
    queue_depth_peak.set_max(
        static_cast<std::int64_t>(std::ceil(wait_us / model.mean_us())));
  }

  if (responses.count() > 0) {
    const metrics::HistogramData data = responses.snapshot();
    result.mean_response_us =
        response_sum_us / static_cast<double>(data.count);
    // A quantile is its bucket's upper bound, which can lie above every
    // sample; the exact max caps it.
    const auto quantile_us = [&](double q) {
      return std::min(data.quantile(q) / 1000.0, result.max_response_us);
    };
    result.p50_response_us = quantile_us(0.50);
    result.p99_response_us = quantile_us(0.99);
    result.p999_response_us = quantile_us(0.999);
  }
  if (result.makespan_us > 0.0) {
    for (DeviceLoad& d : result.devices) {
      d.utilization = d.busy_us / result.makespan_us;
    }
  }
  return result;
}

}  // namespace

LoadResult simulate_load(const ClusterConfig& config, const BlockMap& map,
                         std::span<const Request> trace,
                         std::span<const ServiceModel> models,
                         ReplicaSelector& selector, Xoshiro256& rng) {
  return simulate_load(config, map, trace, models, selector, rng, {});
}

LoadResult simulate_load(const ClusterConfig& config, const BlockMap& map,
                         std::span<const Request> trace,
                         std::span<const ServiceModel> models,
                         ReplicaSelector& selector, Xoshiro256& rng,
                         std::span<const std::uint8_t> degraded) {
  std::unordered_map<DeviceId, std::size_t> index_of;
  for (std::size_t i = 0; i < config.size(); ++i) {
    index_of.emplace(config[i].uid, i);
  }
  const unsigned k = map.replication();
  const auto resolve = [&](std::uint64_t ball,
                           std::vector<std::size_t>& out) {
    const std::span<const DeviceId> copies = map.copies(ball);
    out.resize(k);
    for (unsigned c = 0; c < k; ++c) out[c] = index_of.at(copies[c]);
    return true;
  };
  return run_simulation(config, trace, models, selector, rng, degraded,
                        resolve);
}

LoadResult simulate_load(const VirtualDisk& disk,
                         std::span<const Request> trace,
                         std::span<const ServiceModel> models,
                         ReplicaSelector& selector, Xoshiro256& rng) {
  return simulate_load(disk, trace, models, selector, rng, {});
}

LoadResult simulate_load(const VirtualDisk& disk,
                         std::span<const Request> trace,
                         std::span<const ServiceModel> models,
                         ReplicaSelector& selector, Xoshiro256& rng,
                         std::span<const std::uint8_t> degraded) {
  // The device table (and models indexing) is fixed at entry; each request
  // still resolves its copies through one live epoch read, so the run
  // exercises the same lookup path a real read does.
  const std::shared_ptr<const PlacementEpoch> entry =
      disk.placement_snapshot();
  std::unordered_map<DeviceId, std::size_t> index_of;
  for (std::size_t i = 0; i < entry->config.size(); ++i) {
    index_of.emplace(entry->config[i].uid, i);
  }

  std::vector<DeviceId> copies(entry->strategy->replication());
  const auto resolve = [&](std::uint64_t ball,
                           std::vector<std::size_t>& out) {
    Result<std::uint64_t> placed = disk.try_copy_locations(ball, copies);
    if (!placed.ok()) {
      // A live swap changed the replication degree between requests:
      // re-size to the current epoch and retry once.
      copies.resize(disk.placement_snapshot()->strategy->replication());
      placed = disk.try_copy_locations(ball, copies);
      if (!placed.ok()) return false;
    }
    out.clear();
    out.reserve(copies.size());
    for (const DeviceId uid : copies) {
      const auto it = index_of.find(uid);
      if (it == index_of.end()) return false;  // device unknown at entry
      out.push_back(it->second);
    }
    return true;
  };
  return run_simulation(entry->config, trace, models, selector, rng,
                        degraded, resolve);
}

}  // namespace rds
