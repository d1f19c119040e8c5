// Randomized end-to-end failure injection: a VirtualDisk under a random
// sequence of writes, reads, device additions, graceful removals, crashes
// and rebuilds, checked for integrity after every step.  Parameterized over
// redundancy schemes and placement backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "src/storage/erasure/evenodd.hpp"
#include "src/storage/erasure/rdp.hpp"
#include "src/storage/virtual_disk.hpp"
#include "src/util/random.hpp"
#include "tests/clusters.hpp"

namespace rds {
namespace {

enum class SchemeKind { kMirror3, kRs32, kEvenOdd3, kRdp5 };

struct IntegrationCase {
  SchemeKind scheme;
  PlacementKind placement;
  std::uint64_t seed;
};

std::shared_ptr<RedundancyScheme> make_scheme(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kMirror3: return std::make_shared<MirroringScheme>(3);
    case SchemeKind::kRs32: return std::make_shared<ReedSolomonScheme>(3, 2);
    case SchemeKind::kEvenOdd3: return std::make_shared<EvenOddScheme>(3);
    case SchemeKind::kRdp5: return std::make_shared<RdpScheme>(5);
  }
  throw std::logic_error("unknown scheme");
}

std::string scheme_tag(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kMirror3: return "mirror3";
    case SchemeKind::kRs32: return "rs3p2";
    case SchemeKind::kEvenOdd3: return "evenodd3";
    case SchemeKind::kRdp5: return "rdp5";
  }
  return "?";
}

class VirtualDiskFuzz : public ::testing::TestWithParam<IntegrationCase> {};

TEST_P(VirtualDiskFuzz, RandomOperationSequenceKeepsIntegrity) {
  const IntegrationCase c = GetParam();
  Xoshiro256 rng(c.seed);

  // Start with 8 heterogeneous devices -- comfortably above any scheme's
  // fragment count so removals stay legal.
  std::vector<Device> devices;
  for (DeviceId uid = 0; uid < 8; ++uid) {
    devices.push_back({uid, 2000 + 500 * uid, test::numbered("d", uid)});
  }
  VirtualDisk disk(ClusterConfig(std::move(devices)), make_scheme(c.scheme),
                   c.placement);
  const unsigned k = disk.scheme().fragment_count();

  DeviceId next_uid = 100;
  std::map<std::uint64_t, Bytes> oracle;  // what each block must contain
  std::uint64_t next_block = 0;

  const auto verify_all = [&](const std::string& when) {
    for (const auto& [block, content] : oracle) {
      ASSERT_EQ(disk.try_read(block).value_or_throw(), content)
          << when << ": block " << block << " corrupted";
    }
  };

  for (int step = 0; step < 120; ++step) {
    const std::uint64_t dice = rng.next_below(100);
    if (dice < 55) {
      // Write a new block or overwrite an existing one.
      const bool overwrite = !oracle.empty() && rng.next_below(3) == 0;
      const std::uint64_t block =
          overwrite ? rng.next_below(next_block) : next_block++;
      Bytes content(24 + rng.next_below(200));
      for (auto& b : content) b = static_cast<std::uint8_t>(rng());
      disk.try_write(block, content).value_or_throw();
      oracle[block] = std::move(content);
    } else if (dice < 70) {
      // Spot-check a random block.
      if (!oracle.empty()) {
        const auto it = std::next(
            oracle.begin(),
            static_cast<std::ptrdiff_t>(rng.next_below(oracle.size())));
        ASSERT_EQ(disk.try_read(it->first).value_or_throw(), it->second);
      }
    } else if (dice < 80) {
      disk.try_add_device({next_uid++, 1500 + rng.next_below(4000), "added"})
          .value_or_throw();
      verify_all("after add");
    } else if (dice < 90) {
      // Graceful removal (keep enough devices for k distinct fragments,
      // with one to spare so a later crash stays recoverable).
      if (disk.config().size() > k + 1) {
        const std::size_t idx = rng.next_below(disk.config().size());
        disk.try_remove_device(disk.config()[idx].uid).value_or_throw();
        verify_all("after remove");
      }
    } else {
      // Crash + rebuild, if redundancy allows losing one more device.
      if (disk.config().size() > k) {
        const std::size_t idx = rng.next_below(disk.config().size());
        disk.fail_device(disk.config()[idx].uid);
        verify_all("degraded");
        disk.rebuild();
        verify_all("after rebuild");
      }
    }
  }
  verify_all("final");
  const VirtualDisk::ScrubReport scrub = disk.scrub();
  EXPECT_TRUE(scrub.clean()) << "unreadable=" << scrub.unreadable_blocks
                             << " degraded=" << scrub.degraded_blocks
                             << " misplaced=" << scrub.misplaced_fragments;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VirtualDiskFuzz,
    ::testing::Values(
        IntegrationCase{SchemeKind::kMirror3, PlacementKind::kRedundantShare,
                        1},
        IntegrationCase{SchemeKind::kMirror3,
                        PlacementKind::kFastRedundantShare, 2},
        IntegrationCase{SchemeKind::kRs32, PlacementKind::kRedundantShare, 3},
        IntegrationCase{SchemeKind::kRs32, PlacementKind::kFastRedundantShare,
                        4},
        IntegrationCase{SchemeKind::kEvenOdd3,
                        PlacementKind::kRedundantShare, 5},
        IntegrationCase{SchemeKind::kMirror3, PlacementKind::kTrivial, 6},
        IntegrationCase{SchemeKind::kRs32, PlacementKind::kRedundantShare,
                        7},
        IntegrationCase{SchemeKind::kRdp5, PlacementKind::kRedundantShare, 8},
        IntegrationCase{SchemeKind::kRdp5, PlacementKind::kFastRedundantShare,
                        9},
        IntegrationCase{SchemeKind::kMirror3, PlacementKind::kTrivialRing,
                        10},
        IntegrationCase{SchemeKind::kRs32, PlacementKind::kRoundRobin, 11}),
    [](const ::testing::TestParamInfo<IntegrationCase>& info) {
      // Test names allow only [A-Za-z0-9_].
      std::string placement(to_string(info.param.placement));
      std::ranges::replace(placement, '-', '_');
      return scheme_tag(info.param.scheme) + "_" + placement + "_seed" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace rds
