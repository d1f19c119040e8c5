#include "src/sim/block_map.hpp"

#include <algorithm>
#include <numeric>

#include "src/placement/batch_placer.hpp"

namespace rds {

BlockMap::BlockMap(const ReplicationStrategy& strategy,
                   std::uint64_t ball_count, std::uint64_t base_address)
    : balls_(ball_count), k_(strategy.replication()) {
  entries_.resize(balls_ * k_);
  addresses_.resize(balls_);
  for (std::uint64_t b = 0; b < balls_; ++b) {
    addresses_[b] = base_address + b;
    strategy.place(addresses_[b], {entries_.data() + b * k_, k_});
  }
}

BlockMap::BlockMap(const ReplicationStrategy& strategy,
                   std::span<const std::uint64_t> addresses)
    : balls_(addresses.size()), k_(strategy.replication()) {
  entries_.resize(balls_ * k_);
  addresses_.assign(addresses.begin(), addresses.end());
  for (std::uint64_t b = 0; b < balls_; ++b) {
    strategy.place(addresses_[b], {entries_.data() + b * k_, k_});
  }
}

BlockMap::BlockMap(const ReplicationStrategy& strategy,
                   std::uint64_t ball_count, BatchPlacer& placer)
    : balls_(ball_count), k_(strategy.replication()) {
  entries_.resize(balls_ * k_);
  addresses_.resize(balls_);
  std::iota(addresses_.begin(), addresses_.end(), std::uint64_t{0});
  placer.place(strategy, addresses_, entries_);
}

std::unordered_map<DeviceId, std::uint64_t> BlockMap::device_counts() const {
  std::unordered_map<DeviceId, std::uint64_t> counts;
  for (const DeviceId uid : entries_) ++counts[uid];
  return counts;
}

std::uint64_t BlockMap::count_on(DeviceId uid) const {
  return static_cast<std::uint64_t>(std::ranges::count(entries_, uid));
}

bool BlockMap::redundancy_holds() const {
  std::vector<DeviceId> group;
  for (std::uint64_t b = 0; b < balls_; ++b) {
    const auto c = copies(b);
    group.assign(c.begin(), c.end());
    std::ranges::sort(group);
    if (std::ranges::adjacent_find(group) != group.end()) return false;
  }
  return true;
}

}  // namespace rds
