// Reshaping: every edit migrates toward its new topology and finishes
// inside the call that starts it, or is refused before anything moves.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "src/metrics/registry.hpp"
#include "src/storage/snapshot.hpp"
#include "src/storage/storage_pool.hpp"
#include "src/storage/virtual_disk.hpp"
#include "src/util/random.hpp"

namespace rds {
namespace {

ClusterConfig pool() {
  return ClusterConfig({{1, 3000, ""},
                        {2, 2500, ""},
                        {3, 2000, ""},
                        {4, 1500, ""},
                        {5, 1000, ""}});
}

Bytes payload(std::uint64_t block) {
  Bytes b(48);
  Xoshiro256 rng(block * 97 + 3);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng());
  return b;
}

// Copy-index homes of `block` before (the disk's committed epoch) and after
// (a strategy built for `next`) a reshape toward `next`.
struct Homes {
  std::vector<DeviceId> before;
  std::vector<DeviceId> after;
  [[nodiscard]] bool moves(unsigned j) const { return before[j] != after[j]; }
  [[nodiscard]] bool any_moves() const { return before != after; }
};

class HomeOracle {
 public:
  HomeOracle(const VirtualDisk& disk, const ClusterConfig& next)
      : before_(disk.placement_snapshot()),
        after_(make_replication_strategy(disk.placement_kind(), next,
                                         disk.scheme().fragment_count())) {}
  [[nodiscard]] Homes homes(std::uint64_t block) const {
    return {before_->strategy->place(block), after_->place(block)};
  }

 private:
  std::shared_ptr<const PlacementEpoch> before_;
  std::unique_ptr<ReplicationStrategy> after_;
};

// Redundant Share placements so far, process-wide.
std::uint64_t placements() {
  const metrics::Snapshot snap = metrics::Registry::global().snapshot();
  const metrics::Sample* s =
      snap.find("rds_placements_total", {{"strategy", "redundant-share"}});
  return s == nullptr ? 0 : s->counter_value;
}

// An edit drains its moving blocks in batches before it returns: it moves
// exactly the fragments whose home changes, places each block once per
// strategy and commits the new topology.
TEST(Reshape, StepwiseDrainCommitsNewTopology) {
  VirtualDisk disk(pool(), std::make_shared<MirroringScheme>(2));
  for (std::uint64_t b = 0; b < 500; ++b) {
    disk.try_write(b, payload(b)).value_or_throw();
  }

  const Device added{9, 4000, "new"};
  ClusterConfig next = disk.config();
  next.add_device(added);
  // Only the blocks with a fragment whose home changes are queued.
  const HomeOracle oracle(disk, next);
  std::size_t moving_blocks = 0;
  std::uint64_t moving_fragments = 0;
  for (std::uint64_t b = 0; b < 500; ++b) {
    const Homes h = oracle.homes(b);
    if (h.any_moves()) ++moving_blocks;
    for (unsigned j = 0; j < 2; ++j) moving_fragments += h.moves(j) ? 1 : 0;
  }
  EXPECT_GT(moving_blocks, 0u);
  EXPECT_LT(moving_blocks, 500u);
  const std::uint64_t placed_before = placements();
  disk.try_add_device(added).value_or_throw();
  EXPECT_EQ(disk.stats().fragments_moved, moving_fragments);
  // One pass placed each block once per strategy; the moves reuse the homes
  // it computed and place nothing.
  EXPECT_EQ(placements() - placed_before, 2u * 500u);
  EXPECT_TRUE(disk.config().contains(9));
  EXPECT_GT(disk.used_on(9), 0u);
  for (std::uint64_t b = 0; b < 500; ++b) {
    EXPECT_EQ(disk.try_read(b).value_or_throw(), payload(b));
  }
  EXPECT_TRUE(disk.scrub().clean());
}

TEST(Reshape, EmptyPoolCommitsImmediately) {
  VirtualDisk disk(pool(), std::make_shared<MirroringScheme>(2));
  const std::uint64_t epoch = disk.placement_snapshot()->epoch;
  disk.try_add_device({9, 2500, ""}).value_or_throw();
  EXPECT_EQ(disk.stats().fragments_moved, 0u);
  EXPECT_TRUE(disk.config().contains(9));
  EXPECT_EQ(disk.placement_snapshot()->epoch, epoch + 1);
}

// An edit reads only the fragments that move.  Block A's moving copy is
// corrupt: it is detected once and rebuilt from an intact copy.  Block B's
// corrupt copy stays put, so the edit never reads it: the rot is scrub()'s
// to find and repair()'s to fix, as it is for reads.
TEST(Reshape, EditVerifiesOnlyMovingFragments) {
  VirtualDisk disk(pool(), std::make_shared<MirroringScheme>(3));
  for (std::uint64_t b = 0; b < 300; ++b) {
    disk.try_write(b, payload(b)).value_or_throw();
  }
  const Device added{9, 4000, "new"};
  ClusterConfig next = disk.config();
  next.add_device(added);
  const HomeOracle oracle(disk, next);

  std::optional<std::pair<std::uint64_t, unsigned>> a;  // moving copy
  std::optional<std::pair<std::uint64_t, unsigned>> b;  // copy that stays
  for (std::uint64_t blk = 0; blk < 300 && !(a && b); ++blk) {
    const Homes h = oracle.homes(blk);
    if (!h.any_moves()) continue;
    for (unsigned j = 0; j < 3; ++j) {
      if (!a && h.moves(j)) {
        a.emplace(blk, j);
        break;
      }
      if (a && !h.moves(j)) {
        b.emplace(blk, j);
        break;
      }
    }
  }
  ASSERT_TRUE(a && b);
  ASSERT_TRUE(disk.corrupt_fragment(a->first, a->second));
  ASSERT_TRUE(disk.corrupt_fragment(b->first, b->second));

  disk.try_add_device(added).value_or_throw();
  EXPECT_EQ(disk.stats().checksum_failures, 1u);
  EXPECT_EQ(disk.stats().fragments_rebuilt, 1u);
  EXPECT_EQ(disk.try_read(a->first).value_or_throw(), payload(a->first));
  EXPECT_EQ(disk.try_read(b->first).value_or_throw(), payload(b->first));

  const VirtualDisk::ScrubReport report = disk.scrub();
  EXPECT_EQ(report.degraded_blocks, 1u);  // block B
  EXPECT_EQ(report.unreadable_blocks, 0u);
  EXPECT_EQ(disk.repair(), 1u);
  EXPECT_TRUE(disk.scrub().clean());
}

// A rebuild that moves two fragments of one RS(4+2) block, one of them off
// the failed device, while a fragment that stays is corrupt: exactly four
// intact fragments are left, so the lost one is rebuilt only if every peer
// is gathered before the other moving fragment leaves its old home.  That
// fragment precedes the lost one in copy-index order, so a reshape that
// moved fragments in order and gathered peers late would have erased it.
TEST(Reshape, RebuildGathersPeersBeforeMoving) {
  std::vector<Device> devices;
  for (DeviceId uid = 1; uid <= 9; ++uid) {
    devices.push_back({uid, 1000 + 250 * uid, ""});
  }
  VirtualDisk disk(ClusterConfig(std::move(devices)),
                   std::make_shared<ReedSolomonScheme>(4, 2));
  for (std::uint64_t b = 0; b < 400; ++b) {
    disk.try_write(b, payload(b)).value_or_throw();
  }
  const DeviceId failed = 4;
  ClusterConfig next = disk.config();
  next.remove_device(failed);
  const HomeOracle oracle(disk, next);

  std::optional<std::uint64_t> block;
  unsigned stays = 0;
  for (std::uint64_t blk = 0; blk < 400 && !block; ++blk) {
    const Homes h = oracle.homes(blk);
    bool moves_first = false;  // a fragment moves ahead of the lost one
    bool on_failed = false;
    std::optional<unsigned> still;
    for (unsigned j = 0; j < 6; ++j) {
      if (h.before[j] == failed) {
        on_failed = true;
      } else if (h.moves(j) && !on_failed) {
        moves_first = true;
      }
      if (!h.moves(j) && !still) still = j;
    }
    if (on_failed && moves_first && still) {
      block = blk;
      stays = *still;
    }
  }
  ASSERT_TRUE(block.has_value());
  ASSERT_TRUE(disk.corrupt_fragment(*block, stays));

  disk.fail_device(failed);
  EXPECT_GT(disk.rebuild(), 0u);
  EXPECT_FALSE(disk.config().contains(failed));
  EXPECT_EQ(disk.try_read(*block).value_or_throw(), payload(*block));
  for (std::uint64_t b = 0; b < 400; ++b) {
    ASSERT_EQ(disk.try_read(b).value_or_throw(), payload(b)) << b;
  }
  EXPECT_EQ(disk.repair(), 1u);  // the corrupt fragment that stayed
  EXPECT_TRUE(disk.scrub().clean());
}

// A step toward a full target -- a device another volume of the pool has
// filled -- is refused before any fragment moves: the volume keeps its
// strategy, its epoch and every block, and no device's occupancy changes.
// Once the other volume is dropped, the same edit goes through.
TEST(Reshape, StepToFullTargetTouchesNothing) {
  StoragePool shared(pool());
  VirtualDisk& disk =
      *shared.create_volume("a", std::make_shared<MirroringScheme>(2));
  for (std::uint64_t b = 0; b < 500; ++b) {
    disk.try_write(b, payload(b)).value_or_throw();
  }
  // One-copy blocks until the first whose home is full.
  VirtualDisk& filler =
      *shared.create_volume("b", std::make_shared<MirroringScheme>(1));
  std::optional<DeviceId> full;
  std::uint64_t filled = 0;
  for (; !full; ++filled) {
    std::vector<DeviceId> home(1);
    ASSERT_TRUE(filler.try_copy_locations(filled, home).ok());
    const Result<void> written = filler.try_write(filled, payload(filled));
    if (!written.ok()) {
      ASSERT_EQ(written.code(), ErrorCode::kIoError);
      full = home[0];
    }
  }
  const ClusterConfig before = disk.config();
  const std::uint64_t epoch = disk.placement_snapshot()->epoch;
  std::unordered_map<DeviceId, std::uint64_t> used;
  for (const Device& d : before.devices()) used[d.uid] = disk.used_on(d.uid);
  EXPECT_EQ(used[*full], before[*before.index_of(*full)].capacity);

  const Result<void> refused =
      shared.try_set_volume_strategy("a", PlacementKind::kFastRedundantShare);
  ASSERT_EQ(refused.code(), ErrorCode::kIoError);
  EXPECT_NE(refused.error().message.find("has no room"), std::string::npos)
      << refused.error().message;
  EXPECT_EQ(disk.placement_kind(), PlacementKind::kRedundantShare);
  EXPECT_EQ(disk.placement_snapshot()->epoch, epoch);
  EXPECT_EQ(disk.stats().fragments_moved, 0u);
  EXPECT_TRUE(disk.config() == before);
  for (const Device& d : before.devices()) {
    EXPECT_EQ(disk.used_on(d.uid), used[d.uid]) << d.uid;
  }
  const VirtualDisk::ScrubReport report = disk.scrub();
  EXPECT_EQ(report.degraded_blocks, 0u);
  EXPECT_EQ(report.unreadable_blocks, 0u);
  for (std::uint64_t b = 0; b < 500; ++b) {
    ASSERT_EQ(disk.try_read(b).value_or_throw(), payload(b)) << b;
  }

  // The same step once the other volume's fragments are gone.
  ASSERT_TRUE(shared.drop_volume("b"));
  shared.try_set_volume_strategy("a", PlacementKind::kFastRedundantShare)
      .value_or_throw();
  EXPECT_EQ(disk.placement_kind(), PlacementKind::kFastRedundantShare);
  EXPECT_GT(disk.stats().fragments_moved, 0u);
  EXPECT_GT(disk.used_on(*full), 0u);
  EXPECT_TRUE(disk.scrub().clean());
  for (std::uint64_t b = 0; b < 500; ++b) {
    ASSERT_EQ(disk.try_read(b).value_or_throw(), payload(b)) << b;
  }
}

// An edit whose new homes cannot take the plan -- the biggest device of a
// pool 80 % full removed -- is refused before any fragment moves.
TEST(Reshape, EditWithoutRoomTouchesNothing) {
  VirtualDisk disk(pool(), std::make_shared<MirroringScheme>(2));
  for (std::uint64_t b = 0; b < 4000; ++b) {
    disk.try_write(b, payload(b)).value_or_throw();
  }
  const ClusterConfig before = disk.config();
  const std::uint64_t epoch = disk.placement_snapshot()->epoch;
  std::unordered_map<DeviceId, std::uint64_t> used;
  for (const Device& d : before.devices()) used[d.uid] = disk.used_on(d.uid);

  const Result<void> removed = disk.try_remove_device(1);
  ASSERT_EQ(removed.code(), ErrorCode::kIoError);
  EXPECT_NE(removed.error().message.find("has no room"), std::string::npos);

  EXPECT_TRUE(disk.config() == before);
  EXPECT_EQ(disk.placement_snapshot()->epoch, epoch);
  EXPECT_EQ(disk.stats().fragments_moved, 0u);
  for (const Device& d : before.devices()) {
    EXPECT_EQ(disk.used_on(d.uid), used[d.uid]) << d.uid;
  }
  for (std::uint64_t b = 0; b < 4000; ++b) {
    ASSERT_EQ(disk.try_read(b).value_or_throw(), payload(b)) << b;
  }
  EXPECT_TRUE(disk.scrub().clean());
}

// Fails `failed` under `scheme`, with some blocks left below
// min_fragments(), and rebuilds.  The rebuild finishes: the lost blocks
// stay unrecoverable, every other block is restored, and the disk takes
// edits and snapshots again.
void rebuild_past_lost_blocks(ClusterConfig config,
                              const std::shared_ptr<RedundancyScheme>& scheme,
                              const std::vector<DeviceId>& failed) {
  VirtualDisk disk(std::move(config), scheme);
  const unsigned k = scheme->fragment_count();
  const std::shared_ptr<const PlacementEpoch> epoch = disk.placement_snapshot();
  std::set<std::uint64_t> lost;
  for (std::uint64_t b = 0; b < 500; ++b) {
    disk.try_write(b, payload(b)).value_or_throw();
    unsigned left = k;
    for (const DeviceId home : epoch->strategy->place(b)) {
      if (std::ranges::find(failed, home) != failed.end()) --left;
    }
    if (left < scheme->min_fragments()) lost.insert(b);
  }
  ASSERT_FALSE(lost.empty());
  ASSERT_LT(lost.size(), 500u);

  for (const DeviceId uid : failed) disk.fail_device(uid);
  EXPECT_GT(disk.rebuild(), 0u);
  for (const DeviceId uid : failed) EXPECT_FALSE(disk.config().contains(uid));
  for (std::uint64_t b = 0; b < 500; ++b) {
    if (lost.contains(b)) {
      EXPECT_EQ(disk.try_read(b).code(), ErrorCode::kUnrecoverable) << b;
    } else {
      ASSERT_EQ(disk.try_read(b).value_or_throw(), payload(b)) << b;
    }
  }
  const VirtualDisk::ScrubReport report = disk.scrub();
  EXPECT_EQ(report.unreadable_blocks, lost.size());
  EXPECT_EQ(report.degraded_blocks, 0u);

  EXPECT_TRUE(disk.try_add_device({99, 3000, "new"}).ok());
  std::stringstream saved;
  EXPECT_NO_THROW(Snapshot::save_disk(disk, saved));
}

TEST(Reshape, RebuildFinishesPastAnUnrecoverableBlock) {
  {
    SCOPED_TRACE("mirror(2)");
    rebuild_past_lost_blocks(pool(), std::make_shared<MirroringScheme>(2),
                             {1, 2});
  }
  {
    SCOPED_TRACE("reed-solomon(3+2)");
    std::vector<Device> devices;
    for (DeviceId uid = 1; uid <= 9; ++uid) {
      devices.push_back({uid, 1000 + 250 * uid, ""});
    }
    rebuild_past_lost_blocks(ClusterConfig(std::move(devices)),
                             std::make_shared<ReedSolomonScheme>(3, 2),
                             {7, 8, 9});
  }
}

// A resize sizes the stores to the config it installs: a grown device
// takes fragments past its old capacity, and a shrink that would leave a
// device holding more than its new capacity is refused before anything
// moves.
TEST(Reshape, ApplyConfigResizesStores) {
  {
    ClusterConfig config({{1, 1000, ""}, {2, 1000, ""}, {3, 1000, ""},
                          {4, 1000, ""}});
    VirtualDisk disk(config, std::make_shared<MirroringScheme>(2));
    for (std::uint64_t b = 0; b < 1500; ++b) {
      disk.try_write(b, payload(b)).value_or_throw();
    }
    disk.try_resize_device(3, 5000).value_or_throw();
    EXPECT_GT(disk.used_on(3), 1000u);
    for (std::uint64_t b = 1500; b < 1700; ++b) {
      disk.try_write(b, payload(b)).value_or_throw();
    }
    for (std::uint64_t b = 0; b < 1700; ++b) {
      ASSERT_EQ(disk.try_read(b).value_or_throw(), payload(b)) << b;
    }
    EXPECT_TRUE(disk.scrub().clean());
  }
  {
    // Three copies on three devices: every device keeps one copy of every
    // block whatever its capacity, so device 3 cannot shrink below 500.
    ClusterConfig config({{1, 1000, ""}, {2, 1000, ""}, {3, 1000, ""}});
    VirtualDisk disk(config, std::make_shared<MirroringScheme>(3));
    for (std::uint64_t b = 0; b < 500; ++b) {
      disk.try_write(b, payload(b)).value_or_throw();
    }
    const std::uint64_t epoch = disk.placement_snapshot()->epoch;
    const Result<void> shrunk = disk.try_resize_device(3, 400);
    ASSERT_EQ(shrunk.code(), ErrorCode::kIoError);
    EXPECT_NE(shrunk.error().message.find("device 3"), std::string::npos)
        << shrunk.error().message;
    EXPECT_TRUE(disk.config() == config);
    EXPECT_EQ(disk.placement_snapshot()->epoch, epoch);
    EXPECT_EQ(disk.stats().fragments_moved, 0u);
    for (DeviceId uid = 1; uid <= 3; ++uid) {
      EXPECT_EQ(disk.used_on(uid), 500u) << uid;
    }
    EXPECT_TRUE(disk.scrub().clean());
  }
}

// A full device that a block's fragment i leaves while its fragment j
// arrives takes the arrival: the plan counts the block's own departures,
// and the reshape erases every moving fragment before it writes any.
// j < i, so a reshape that moved fragments in order would find the device
// full.
TEST(Reshape, StepFreesRoomBeforeWriting) {
  ClusterConfig next = pool();
  next.add_device({9, 4000, "new"});
  StoragePool shared(pool());
  VirtualDisk& disk =
      *shared.create_volume("a", std::make_shared<MirroringScheme>(3));
  const HomeOracle oracle(disk, next);
  std::optional<std::pair<std::uint64_t, DeviceId>> pass;  // block, device
  unsigned moving = 0;  // the block's fragments whose home changes
  for (std::uint64_t blk = 0; blk < 1000 && !pass; ++blk) {
    const Homes h = oracle.homes(blk);
    for (unsigned i = 0; i < 3; ++i) {
      for (unsigned j = 0; j < i; ++j) {
        if (h.moves(i) && h.moves(j) && h.before[i] == h.after[j]) {
          pass.emplace(blk, h.before[i]);
          moving = 0;
          for (unsigned m = 0; m < 3; ++m) moving += h.moves(m) ? 1 : 0;
        }
      }
    }
  }
  ASSERT_TRUE(pass.has_value());
  const auto [block, device] = *pass;
  disk.try_write(block, payload(block)).value_or_throw();
  // Volume "b" -- reshaped after "a" -- fills the device with one-copy
  // blocks placed there.
  VirtualDisk& filler =
      *shared.create_volume("b", std::make_shared<MirroringScheme>(1));
  const std::uint64_t capacity = pool()[*pool().index_of(device)].capacity;
  std::vector<DeviceId> home(1);
  for (std::uint64_t b = 0; disk.used_on(device) < capacity; ++b) {
    ASSERT_TRUE(filler.try_copy_locations(b, home).ok());
    if (home[0] == device) filler.try_write(b, payload(b)).value_or_throw();
  }

  shared.try_add_device({9, 4000, "new"}).value_or_throw();
  EXPECT_EQ(disk.stats().fragments_moved, moving);
  EXPECT_EQ(disk.try_read(block).value_or_throw(), payload(block));
  EXPECT_TRUE(disk.scrub().clean());
  EXPECT_TRUE(filler.scrub().clean());
}

}  // namespace
}  // namespace rds
