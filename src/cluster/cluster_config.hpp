// The set of storage devices currently in the system.
//
// A ClusterConfig is a *value*: placement strategies are constructed from a
// snapshot and never observe concurrent mutation.  Devices are kept sorted by
// capacity, descending (ties broken by uid) -- the canonical order the
// Redundant Share algorithms iterate in.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/cluster/device.hpp"
#include "src/core/result.hpp"

namespace rds {

class ClusterConfig {
 public:
  ClusterConfig() = default;

  /// Builds a configuration from an arbitrary device list.
  /// Throws std::invalid_argument on duplicate uids or zero capacities.
  explicit ClusterConfig(std::vector<Device> devices);

  /// Devices in canonical order (capacity descending, uid ascending).
  [[nodiscard]] std::span<const Device> devices() const noexcept {
    return devices_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return devices_.size(); }
  [[nodiscard]] bool empty() const noexcept { return devices_.empty(); }
  [[nodiscard]] const Device& operator[](std::size_t i) const noexcept {
    return devices_[i];
  }

  /// Sum of all device capacities (the paper's B).
  [[nodiscard]] std::uint64_t total_capacity() const noexcept {
    return total_capacity_;
  }

  /// Suffix capacity sum B_i = sum_{j >= i} b_j; B_n = 0.
  [[nodiscard]] std::uint64_t suffix_capacity(std::size_t i) const noexcept {
    return suffix_[i];
  }

  /// Relative capacity c_i = b_i / B of the device at canonical index i.
  [[nodiscard]] double relative_capacity(std::size_t i) const noexcept;

  /// Lemma 2.1 feasibility on exact byte counts: k copies of every block
  /// can be spread over distinct devices iff k * b_max <= B.  Exact
  /// counterpart of the double-based capacity_efficient() in
  /// src/core/capacity.hpp.  kInvalidArgument if k == 0 or the demand
  /// k * b_max overflows uint64.
  [[nodiscard]] Result<bool> try_capacity_efficient(unsigned k) const;

  /// Canonical index of a device, if present.
  [[nodiscard]] std::optional<std::size_t> index_of(DeviceId uid) const;

  [[nodiscard]] bool contains(DeviceId uid) const { return index_of(uid).has_value(); }

  /// Monotone counter bumped by every mutation; lets cached structures
  /// detect staleness.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  // The three edits leave the configuration unchanged when they throw.

  /// Adds a device.  Throws on duplicate uid or zero capacity.
  void add_device(const Device& d);

  /// Removes a device.  Throws std::out_of_range if absent.
  void remove_device(DeviceId uid);

  /// Changes a device's capacity.  Throws if absent or new capacity is zero.
  void resize_device(DeviceId uid, std::uint64_t new_capacity);

  /// Device capacities in canonical order, as doubles (strategy input).
  [[nodiscard]] std::vector<double> capacities() const;

  friend bool operator==(const ClusterConfig& a, const ClusterConfig& b) {
    return a.devices_ == b.devices_;
  }

 private:
  /// Sorts and validates `devices`, then installs them with their sums;
  /// throws before changing anything.
  void install(std::vector<Device> devices);

  std::vector<Device> devices_;
  std::vector<std::uint64_t> suffix_;  // size()+1 entries
  std::uint64_t total_capacity_ = 0;
  std::uint64_t version_ = 0;
};

}  // namespace rds
