#include "src/cluster/cluster_config.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "src/util/checked_math.hpp"

namespace rds {

ClusterConfig::ClusterConfig(std::vector<Device> devices) {
  install(std::move(devices));
}

void ClusterConfig::install(std::vector<Device> devices) {
  std::ranges::sort(devices, [](const Device& a, const Device& b) {
    if (a.capacity != b.capacity) return a.capacity > b.capacity;
    return a.uid < b.uid;
  });

  std::unordered_set<DeviceId> seen;
  seen.reserve(devices.size());
  for (const Device& d : devices) {
    if (d.capacity == 0) {
      throw std::invalid_argument("ClusterConfig: device with zero capacity");
    }
    if (d.uid == kNoDevice) {
      throw std::invalid_argument("ClusterConfig: reserved device uid");
    }
    if (!seen.insert(d.uid).second) {
      throw std::invalid_argument("ClusterConfig: duplicate device uid");
    }
  }

  std::vector<std::uint64_t> suffix(devices.size() + 1, 0);
  for (std::size_t i = devices.size(); i-- > 0;) {
    suffix[i] =
        checked_add(suffix[i + 1], devices[i].capacity).value_or_throw();
  }
  devices_ = std::move(devices);
  suffix_ = std::move(suffix);
  total_capacity_ = suffix_[0];
  ++version_;
}

Result<bool> ClusterConfig::try_capacity_efficient(unsigned k) const {
  if (k == 0) {
    return Error{ErrorCode::kInvalidArgument,
                 "try_capacity_efficient: k == 0"};
  }
  if (devices_.empty()) return false;
  // devices_ is sorted by descending capacity, so b_max is devices_[0].
  Result<std::uint64_t> demand = checked_mul(devices_[0].capacity, k);
  if (!demand.ok()) return demand.error();
  return demand.value() <= total_capacity_;
}

double ClusterConfig::relative_capacity(std::size_t i) const noexcept {
  if (total_capacity_ == 0) return 0.0;
  return static_cast<double>(devices_[i].capacity) /
         static_cast<double>(total_capacity_);
}

std::optional<std::size_t> ClusterConfig::index_of(DeviceId uid) const {
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (devices_[i].uid == uid) return i;
  }
  return std::nullopt;
}

void ClusterConfig::add_device(const Device& d) {
  if (contains(d.uid)) {
    throw std::invalid_argument("add_device: duplicate uid");
  }
  std::vector<Device> devices = devices_;
  devices.push_back(d);
  install(std::move(devices));
}

void ClusterConfig::remove_device(DeviceId uid) {
  const auto idx = index_of(uid);
  if (!idx) throw std::out_of_range("remove_device: unknown uid");
  std::vector<Device> devices = devices_;
  devices.erase(devices.begin() + static_cast<std::ptrdiff_t>(*idx));
  install(std::move(devices));
}

void ClusterConfig::resize_device(DeviceId uid, std::uint64_t new_capacity) {
  const auto idx = index_of(uid);
  if (!idx) throw std::out_of_range("resize_device: unknown uid");
  std::vector<Device> devices = devices_;
  devices[*idx].capacity = new_capacity;
  install(std::move(devices));
}

std::vector<double> ClusterConfig::capacities() const {
  std::vector<double> out;
  out.reserve(devices_.size());
  for (const Device& d : devices_) out.push_back(static_cast<double>(d.capacity));
  return out;
}

}  // namespace rds
