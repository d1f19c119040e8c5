// BlockMap: the materialized assignment of m balls (x k copies) to devices.
//
// The paper's experiments all reduce to questions about this table: how many
// copies does each bin hold (fairness), and how many entries change between
// two configurations (adaptivity).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/cluster/device.hpp"
#include "src/placement/strategy.hpp"

namespace rds {

class BatchPlacer;

class BlockMap {
 public:
  BlockMap() = default;

  /// Materializes the placement of balls 0..m-1 (addresses `base`..`base+m-1`)
  /// under `strategy`.
  BlockMap(const ReplicationStrategy& strategy, std::uint64_t ball_count,
           std::uint64_t base_address = 0);

  /// Materializes the placement of an explicit address list.
  BlockMap(const ReplicationStrategy& strategy,
           std::span<const std::uint64_t> addresses);

  /// Materializes balls 0..m-1 through `placer`'s worker pool; the table
  /// is identical to the sequential constructor's.
  BlockMap(const ReplicationStrategy& strategy, std::uint64_t ball_count,
           BatchPlacer& placer);

  [[nodiscard]] std::uint64_t ball_count() const noexcept { return balls_; }
  [[nodiscard]] unsigned replication() const noexcept { return k_; }
  [[nodiscard]] std::uint64_t total_copies() const noexcept {
    return balls_ * k_;
  }

  /// Devices of ball i's copies, copy index order.
  [[nodiscard]] std::span<const DeviceId> copies(std::uint64_t ball) const {
    return {entries_.data() + ball * k_, k_};
  }

  /// Address of ball i.
  [[nodiscard]] std::uint64_t address(std::uint64_t ball) const {
    return addresses_[ball];
  }

  /// Number of copies stored per device.
  [[nodiscard]] std::unordered_map<DeviceId, std::uint64_t> device_counts()
      const;

  /// Copies stored on one device.
  [[nodiscard]] std::uint64_t count_on(DeviceId uid) const;

  /// True iff every ball's copies are pairwise distinct (the redundancy
  /// invariant).
  [[nodiscard]] bool redundancy_holds() const;

 private:
  std::vector<DeviceId> entries_;  // balls_ * k_ entries, row-major
  std::vector<std::uint64_t> addresses_;
  std::uint64_t balls_ = 0;
  unsigned k_ = 0;
};

}  // namespace rds
