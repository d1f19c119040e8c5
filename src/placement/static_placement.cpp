#include "src/placement/static_placement.hpp"

#include <stdexcept>

namespace rds {

RoundRobinStriping::RoundRobinStriping(const ClusterConfig& config, unsigned k)
    : k_(k) {
  if (k == 0) throw std::invalid_argument("RoundRobinStriping: k == 0");
  if (config.size() < k) {
    throw std::invalid_argument("RoundRobinStriping: fewer devices than k");
  }
  uids_.reserve(config.size());
  for (const Device& d : config.devices()) uids_.push_back(d.uid);
}

void RoundRobinStriping::place(std::uint64_t address,
                               std::span<DeviceId> out) const {
  check_out_span(out, k_);
  const std::size_t n = uids_.size();
  const std::size_t base = static_cast<std::size_t>(
      (address % n) * static_cast<std::uint64_t>(k_) % n);
  for (unsigned j = 0; j < k_; ++j) {
    out[j] = uids_[(base + j) % n];
  }
}

std::string RoundRobinStriping::name() const { return "round-robin-striping"; }

}  // namespace rds
