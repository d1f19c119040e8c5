#include "src/sim/movement.hpp"

#include <gtest/gtest.h>

#include "src/core/redundant_share.hpp"
#include "src/sim/scenario.hpp"

namespace rds {
namespace {

/// Fixed-table strategy for precise movement accounting.
class TableStrategy final : public ReplicationStrategy {
 public:
  TableStrategy(std::vector<std::vector<DeviceId>> table, unsigned k)
      : table_(std::move(table)), k_(k) {}
  void place(std::uint64_t a, std::span<DeviceId> out) const override {
    const auto& row = table_.at(a);
    std::copy(row.begin(), row.end(), out.begin());
  }
  [[nodiscard]] unsigned replication() const override { return k_; }
  [[nodiscard]] std::string name() const override { return "table"; }
  [[nodiscard]] std::size_t device_count() const override { return 0; }

 private:
  std::vector<std::vector<DeviceId>> table_;
  unsigned k_;
};

TEST(Movement, IdenticalMapsMoveNothing) {
  const TableStrategy s({{1, 2}, {2, 3}, {3, 1}}, 2);
  const BlockMap a(s, 3), b(s, 3);
  const MovementReport r = diff_placements(a, b);
  EXPECT_EQ(r.moved_set, 0u);
  EXPECT_EQ(r.moved_indexed, 0u);
  EXPECT_EQ(r.optimal_moves, 0u);
  EXPECT_EQ(r.total_copies, 6u);
  EXPECT_EQ(r.moved_set_fraction(), 0.0);
}

TEST(Movement, SwappedCopiesCountIndexedNotSet) {
  // Ball 0's copies swap devices: no data moves for mirrors (set), but both
  // fragments move for erasure codes (indexed).
  const TableStrategy before({{1, 2}}, 2);
  const TableStrategy after({{2, 1}}, 2);
  const MovementReport r =
      diff_placements(BlockMap(before, 1), BlockMap(after, 1));
  EXPECT_EQ(r.moved_set, 0u);
  EXPECT_EQ(r.moved_indexed, 2u);
  EXPECT_EQ(r.optimal_moves, 0u);
}

TEST(Movement, SimpleMoveCounts) {
  const TableStrategy before({{1, 2}, {1, 3}}, 2);
  const TableStrategy after({{1, 2}, {1, 4}}, 2);
  const MovementReport r =
      diff_placements(BlockMap(before, 2), BlockMap(after, 2));
  EXPECT_EQ(r.moved_set, 1u);      // device 4 newly holds ball 1
  EXPECT_EQ(r.moved_indexed, 1u);  // slot 1 of ball 1 changed
  EXPECT_EQ(r.optimal_moves, 1u);  // device 4 gained one copy
  EXPECT_DOUBLE_EQ(r.competitive_set(), 1.0);
}

TEST(Movement, OptimalMovesIsDistributionDelta) {
  // Two balls trade places between devices: per-device counts unchanged,
  // optimal lower bound 0, but real movement happened.
  const TableStrategy before({{1, 2}, {3, 4}}, 2);
  const TableStrategy after({{3, 2}, {1, 4}}, 2);
  const MovementReport r =
      diff_placements(BlockMap(before, 2), BlockMap(after, 2));
  EXPECT_EQ(r.moved_set, 2u);
  EXPECT_EQ(r.optimal_moves, 0u);
  EXPECT_EQ(r.competitive_set(), 0.0);  // defined as 0 when optimal is 0
}

TEST(Movement, MismatchedMapsRejected) {
  const TableStrategy s2({{1, 2}}, 2);
  const TableStrategy s3({{1, 2, 3}}, 3);
  const BlockMap a(s2, 1);
  const BlockMap b(s3, 1);
  EXPECT_THROW((void)diff_placements(a, b), std::invalid_argument);

  const TableStrategy s8(std::vector<std::vector<DeviceId>>(8, {1, 2}), 2);
  const BlockMap c(s8, 1, /*base=*/0);
  const BlockMap d(s8, 1, /*base=*/7);
  EXPECT_THROW((void)diff_placements(c, d), std::invalid_argument);
}

TEST(Movement, ReplacedPerUsedMatchesPaperMetric) {
  const TableStrategy before({{1, 2}, {1, 3}, {2, 3}}, 2);
  const TableStrategy after({{1, 9}, {1, 9}, {2, 3}}, 2);
  const BlockMap mb(before, 3), ma(after, 3);
  const MovementReport r = diff_placements(mb, ma);
  // Device 9 holds 2 copies after; 2 copies moved -> ratio 1.
  EXPECT_EQ(r.moved_set, 2u);
  EXPECT_DOUBLE_EQ(replaced_per_used(r, mb, ma, 9), 1.0);
  // Device 3 still holds one copy after -> the after-count is used.
  EXPECT_DOUBLE_EQ(replaced_per_used(r, mb, ma, 3), 2.0);
  EXPECT_EQ(replaced_per_used(r, mb, ma, 777), 0.0);
}

TEST(Movement, ReplacedPerUsedForDrainedDevice) {
  // A device fully drained in `after` falls back to its before-count.
  const TableStrategy before({{1, 3}, {2, 3}}, 2);
  const TableStrategy after({{1, 9}, {2, 9}}, 2);
  const BlockMap mb(before, 2), ma(after, 2);
  const MovementReport r = diff_placements(mb, ma);
  EXPECT_EQ(r.moved_set, 2u);
  EXPECT_DOUBLE_EQ(replaced_per_used(r, mb, ma, 3), 1.0);
}

TEST(Movement, EndToEndWithRedundantShare) {
  const ClusterConfig before = paper_heterogeneous_base();
  const EditResult edit =
      apply_edit(before, EditKind::kAddBiggest, 50, 100'000);
  const RedundantShare sb(before, 2);
  const RedundantShare sa(edit.config, 2);
  const BlockMap mb(sb, 20'000), ma(sa, 20'000);
  const MovementReport r = diff_placements(mb, ma);
  EXPECT_GT(r.moved_set, 0u);
  EXPECT_LE(r.moved_set, r.moved_indexed);
  EXPECT_GE(r.moved_set, r.optimal_moves / 2);  // sanity: same order
}

TEST(Movement, AddBiggestMovesBoundedFraction) {
  // Adding one 1.3M disk to a 6.8M cluster should migrate roughly its fair
  // share (1.3/8.1 ~ 16%) of the fragments and certainly not the whole
  // dataset.  Per-slot (erasure) semantics: a fragment moves iff its
  // copy-index home changes.
  const ClusterConfig before = paper_heterogeneous_base();
  const EditResult edit =
      apply_edit(before, EditKind::kAddBiggest, 50, 100'000);
  const RedundantShare sb(before, 2);
  const RedundantShare sa(edit.config, 2);
  const MovementReport r =
      diff_placements(BlockMap(sb, 20'000), BlockMap(sa, 20'000));
  const double moved_fraction = static_cast<double>(r.moved_indexed) /
                                static_cast<double>(r.total_copies);
  EXPECT_GT(moved_fraction, 0.10);
  EXPECT_LT(moved_fraction, 0.45);
}

}  // namespace
}  // namespace rds
