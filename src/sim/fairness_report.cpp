#include "src/sim/fairness_report.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <stdexcept>

#include "src/core/fast_redundant_share.hpp"
#include "src/core/redundant_share.hpp"
#include "src/storage/virtual_disk.hpp"

namespace rds {

FairnessReport fairness_report(const VirtualDisk& disk,
                               std::uint64_t ball_count) {
  // One epoch read pins strategy and config together; everything below is
  // derived from that pair, never from the live (swappable) disk state.
  const std::shared_ptr<const PlacementEpoch> epoch =
      disk.placement_snapshot();
  const BlockMap map(*epoch->strategy, ball_count);
  return fairness_report(epoch->config,
                         usable_capacities(*epoch->strategy, epoch->config),
                         map);
}

std::vector<double> usable_capacities(const ReplicationStrategy& strategy,
                                      const ClusterConfig& config) {
  if (const auto* rs = dynamic_cast<const RedundantShare*>(&strategy)) {
    const std::span<const double> a = rs->adjusted_capacities();
    return {a.begin(), a.end()};
  }
  if (const auto* fast =
          dynamic_cast<const FastRedundantShare*>(&strategy)) {
    return fast->tables().caps;
  }
  std::vector<double> caps;
  caps.reserve(config.size());
  for (std::size_t i = 0; i < config.size(); ++i) {
    caps.push_back(static_cast<double>(config[i].capacity));
  }
  return caps;
}

FairnessReport fairness_report(const ClusterConfig& config,
                               std::span<const double> adjusted,
                               const BlockMap& map) {
  if (adjusted.size() != config.size()) {
    throw std::invalid_argument("fairness_report: adjusted size mismatch");
  }
  double usable_total = 0.0;
  for (const double a : adjusted) usable_total += a;
  if (usable_total <= 0.0) {
    throw std::invalid_argument("fairness_report: zero usable capacity");
  }

  const auto counts = map.device_counts();
  const double total_copies = static_cast<double>(map.total_copies());

  FairnessReport report;
  double sq_sum = 0.0;
  for (std::size_t i = 0; i < config.size(); ++i) {
    DeviceUsage u;
    u.uid = config[i].uid;
    u.capacity = config[i].capacity;
    u.usable_capacity = adjusted[i];
    const auto it = counts.find(u.uid);
    u.copies = it == counts.end() ? 0 : it->second;
    u.fill_percent = 100.0 * static_cast<double>(u.copies) /
                     static_cast<double>(u.capacity);
    u.fair_copies = total_copies * adjusted[i] / usable_total;
    u.deviation = u.fair_copies > 0.0
                      ? (static_cast<double>(u.copies) - u.fair_copies) /
                            u.fair_copies
                      : 0.0;
    report.max_abs_deviation =
        std::max(report.max_abs_deviation, std::abs(u.deviation));
    sq_sum += u.deviation * u.deviation;
    report.devices.push_back(u);
  }
  report.rms_deviation =
      std::sqrt(sq_sum / static_cast<double>(config.size()));
  return report;
}

void FairnessReport::print(std::ostream& os, const std::string& title) const {
  os << title << '\n';
  os << "  " << std::setw(8) << "device" << std::setw(12) << "capacity"
     << std::setw(12) << "usable" << std::setw(12) << "copies"
     << std::setw(10) << "fill%" << std::setw(12) << "fair"
     << std::setw(10) << "dev%" << '\n';
  const auto old_flags = os.flags();
  os << std::fixed;
  for (const DeviceUsage& u : devices) {
    os << "  " << std::setw(8) << u.uid << std::setw(12) << u.capacity
       << std::setw(12) << std::setprecision(0) << u.usable_capacity
       << std::setw(12) << u.copies << std::setw(10) << std::setprecision(2)
       << u.fill_percent << std::setw(12) << std::setprecision(0)
       << u.fair_copies << std::setw(10) << std::setprecision(3)
       << 100.0 * u.deviation << '\n';
  }
  os << "  max |deviation| = " << std::setprecision(4)
     << 100.0 * max_abs_deviation << "%, rms = " << 100.0 * rms_deviation
     << "%\n";
  os.flags(old_flags);
}

}  // namespace rds
