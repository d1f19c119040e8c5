// Request-load fairness on a mixed-generation datacenter pool.
//
// Storage fairness is only half the story: the paper's fairness notion also
// covers *requests* ("every storage device with x% of the capacity gets x%
// of the data and the requests").  This example stores a dataset across
// three device generations and replays a skewed (Zipf) read workload,
// showing that per-device request load tracks capacity share -- including
// for the hottest blocks, because placement is hash-random rather than
// correlated with block popularity.  Replica locations come from
// VirtualDisk::try_copy_locations (one epoch-consistent read per block),
// and the serving copy is picked by a ReplicaSelector from the factory, the
// same read path rds_cli loadsim exercises.
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <map>
#include <vector>

#include "src/sim/block_map.hpp"
#include "src/sim/replica_selector.hpp"
#include "src/sim/workload.hpp"
#include "src/storage/redundancy_scheme.hpp"
#include "src/storage/virtual_disk.hpp"

namespace {

/// The example replays against a bare placement (no queueing), so the
/// selector sees idle devices of equal speed.
class IdleQueues final : public rds::QueueView {
 public:
  explicit IdleQueues(std::size_t devices) : devices_(devices) {}
  [[nodiscard]] double backlog_us(std::size_t) const override { return 0.0; }
  [[nodiscard]] double mean_service_us(std::size_t) const override {
    return 1.0;
  }
  [[nodiscard]] std::size_t device_count() const override { return devices_; }

 private:
  std::size_t devices_;
};

}  // namespace

int main() {
  using namespace rds;

  // Three generations: 2 x 8T, 4 x 4T, 6 x 2T.
  std::vector<Device> devices;
  DeviceId uid = 1;
  for (int i = 0; i < 2; ++i) devices.push_back({uid++, 8000, "gen3"});
  for (int i = 0; i < 4; ++i) devices.push_back({uid++, 4000, "gen2"});
  for (int i = 0; i < 6; ++i) devices.push_back({uid++, 2000, "gen1"});
  const ClusterConfig pool(std::move(devices));

  constexpr unsigned kK = 3;
  VirtualDisk disk(pool, std::make_shared<MirroringScheme>(kK));
  const auto epoch = disk.placement_snapshot();

  // Storage share: materialize the same placement the disk serves from.
  constexpr std::uint64_t kBlocks = 100'000;
  const BlockMap map(*epoch->strategy, kBlocks);

  std::map<DeviceId, std::size_t> index_of;
  for (std::size_t i = 0; i < pool.size(); ++i) index_of[pool[i].uid] = i;

  // Zipf-skewed reads: block 0 is the hottest.  Each read resolves its k
  // copy locations through the disk's lock-free epoch API and a round-robin
  // selector spreads the hits over them.
  constexpr std::uint64_t kRequests = 2'000'000;
  const auto workload =
      try_make_workload("zipf:0.99", kBlocks).value_or_throw();
  const auto selector =
      try_make_replica_selector("round-robin").value_or_throw();
  const IdleQueues queues(pool.size());
  Xoshiro256 rng(2026);
  std::vector<DeviceId> copies(kK);
  std::vector<std::size_t> replicas(kK);
  std::map<DeviceId, std::uint64_t> request_load;
  for (std::uint64_t r = 0; r < kRequests; ++r) {
    const std::uint64_t block = workload->sample(rng, /*now_us=*/0.0);
    disk.try_copy_locations(block, copies).value_or_throw();
    for (unsigned c = 0; c < kK; ++c) replicas[c] = index_of.at(copies[c]);
    const std::size_t chosen = selector->select(replicas, queues, rng);
    request_load[copies[chosen]] += 1;
  }

  std::cout << std::fixed << std::setprecision(2);
  std::cout << "requests: " << kRequests << " (zipf 0.99 over " << kBlocks
            << " blocks), replicas " << kK << "\n\n";
  std::cout << "  device   gen    capacity   storage%    requests%   fair%\n";
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const Device& d = pool[i];
    const double storage = 100.0 *
                           static_cast<double>(map.count_on(d.uid)) /
                           static_cast<double>(map.total_copies());
    const double requests = 100.0 *
                            static_cast<double>(request_load[d.uid]) /
                            static_cast<double>(kRequests);
    const double fair = 100.0 * pool.relative_capacity(i);
    std::cout << "  " << std::setw(6) << d.uid << "   " << d.name
              << std::setw(10) << d.capacity << std::setw(11) << storage
              << std::setw(12) << requests << std::setw(9) << fair << '\n';
  }
  std::cout << "\n(storage% and requests% both track fair% -- heterogeneous"
            << " devices,\n fair data AND request distribution, as Section 1"
            << " promises)\n";
  return 0;
}
