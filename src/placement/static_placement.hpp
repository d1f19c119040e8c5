// Static (pattern) placement baseline.
//
// This is the kind of strategy the paper's introduction argues *against*:
// perfectly fine for a fixed homogeneous array, but unfair on heterogeneous
// capacities and catastrophically non-adaptive (a device change reshuffles
// nearly all data).  It exists to quantify exactly that in the adaptivity
// benchmarks and the churn simulator.
#pragma once

#include <cstdint>
#include <vector>

#include "src/placement/strategy.hpp"

namespace rds {

/// RAID-style striping with replication: copy j of ball a sits on device
/// (a*k + j) mod n.  Fair only for homogeneous devices; adapting to a new
/// device count relocates almost everything.
class RoundRobinStriping final : public ReplicationStrategy {
 public:
  RoundRobinStriping(const ClusterConfig& config, unsigned k);

  void place(std::uint64_t address, std::span<DeviceId> out) const override;
  using ReplicationStrategy::place;
  [[nodiscard]] unsigned replication() const override { return k_; }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t device_count() const override {
    return uids_.size();
  }

 private:
  std::vector<DeviceId> uids_;
  unsigned k_;
};

}  // namespace rds
