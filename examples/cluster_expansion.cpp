// Growing and shrinking a storage cluster.
//
// The operational story the paper's introduction motivates: a pool built
// from whatever disks were cheap at the time, expanded twice, then the
// oldest disks retired.  At every step the placement stays fair and only
// the necessary fraction of the data moves -- compare with RAID-style
// striping, which would reshuffle nearly everything.
#include <cstdint>
#include <iomanip>
#include <iostream>

#include "src/placement/strategy_factory.hpp"
#include "src/sim/block_map.hpp"
#include "src/sim/movement.hpp"

namespace {

using namespace rds;

constexpr unsigned kK = 2;
constexpr std::uint64_t kBalls = 200'000;

MovementReport transition(PlacementKind kind, const ClusterConfig& before,
                          const ClusterConfig& after) {
  const auto sb = make_replication_strategy(kind, before, kK);
  const auto sa = make_replication_strategy(kind, after, kK);
  return diff_placements(BlockMap(*sb, kBalls), BlockMap(*sa, kBalls));
}

void report_step(const std::string& what, const ClusterConfig& before,
                 const ClusterConfig& after) {
  const MovementReport rs =
      transition(PlacementKind::kRedundantShare, before, after);
  const MovementReport fast =
      transition(PlacementKind::kFastRedundantShare, before, after);
  const MovementReport stripe =
      transition(PlacementKind::kRoundRobin, before, after);

  std::cout << std::fixed << std::setprecision(1);
  std::cout << what << ":\n"
            << "  redundant-share      moved "
            << 100.0 * rs.moved_set_fraction()
            << "% of all copies (minimum possible: "
            << 100.0 * static_cast<double>(rs.optimal_moves) /
                   static_cast<double>(rs.total_copies)
            << "%)\n"
            << "  fast-redundant-share moved "
            << 100.0 * fast.moved_set_fraction()
            << "% (same law, O(k log n) lookups; coupling costs adaptivity)\n"
            << "  raid-striping        moved "
            << 100.0 * stripe.moved_set_fraction() << "%\n";
}

}  // namespace

int main() {
  using namespace rds;

  // Year one: four 1 TB disks.
  ClusterConfig pool({{1, 1000, "y1-a"},
                      {2, 1000, "y1-b"},
                      {3, 1000, "y1-c"},
                      {4, 1000, "y1-d"}});

  // Year two: two 2 TB disks join.
  ClusterConfig expanded = pool;
  expanded.add_device({5, 2000, "y2-a"});
  expanded.add_device({6, 2000, "y2-b"});
  report_step("add two 2T disks", pool, expanded);

  // Year three: a 4 TB disk joins.
  ClusterConfig bigger = expanded;
  bigger.add_device({7, 4000, "y3-a"});
  report_step("add one 4T disk", expanded, bigger);

  // Year four: retire the four original 1 TB disks.
  ClusterConfig retired = bigger;
  for (const DeviceId uid : {1, 2, 3, 4}) retired.remove_device(uid);
  report_step("retire the four 1T disks", bigger, retired);

  // Final fairness check.
  const auto final_strategy =
      make_replication_strategy(PlacementKind::kRedundantShare, retired, kK);
  const BlockMap map(*final_strategy, kBalls);
  std::cout << "\nfinal pool utilization (copies per 1000 capacity):\n";
  for (const Device& d : retired.devices()) {
    std::cout << "  " << d.name << ": "
              << 1000.0 * static_cast<double>(map.count_on(d.uid)) /
                     static_cast<double>(d.capacity)
              << '\n';
  }
  std::cout << "\n(equal numbers = fair: every disk fills at the same rate)\n";
  return 0;
}
