// The factory is the only place a strategy is built from a kind tag; these
// tests pin the contract every consumer (VirtualDisk, rds_cli, benches)
// relies on: every kind constructs, parameters are validated, names round
// trip, and the factory product is placement-identical to direct
// construction.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "src/core/fast_redundant_share.hpp"
#include "src/core/redundant_share.hpp"
#include "src/placement/strategy_factory.hpp"

namespace rds {
namespace {

ClusterConfig make_cluster() {
  return ClusterConfig(
      {{1, 500, "a"}, {2, 700, "b"}, {3, 900, "c"}, {4, 1100, "d"}});
}

constexpr PlacementKind kAllKinds[] = {
    PlacementKind::kRedundantShare,
    PlacementKind::kFastRedundantShare,
    PlacementKind::kTrivial,
    PlacementKind::kRoundRobin,
    PlacementKind::kTrivialRing,
};

TEST(StrategyFactory, ConstructsEveryKind) {
  const ClusterConfig config = make_cluster();
  for (const PlacementKind kind : kAllKinds) {
    const auto strategy = make_replication_strategy(kind, config, 2);
    ASSERT_NE(strategy, nullptr) << to_string(kind);
    EXPECT_EQ(strategy->replication(), 2u) << to_string(kind);
    EXPECT_EQ(strategy->device_count(), config.size()) << to_string(kind);
    const std::vector<DeviceId> copies = strategy->place(42);
    ASSERT_EQ(copies.size(), 2u);
    EXPECT_NE(copies[0], copies[1]) << to_string(kind);
  }
}

TEST(StrategyFactory, ProductMatchesDirectConstruction) {
  const ClusterConfig config = make_cluster();
  const RedundantShare direct(config, 3);
  const auto made = make_replication_strategy(PlacementKind::kRedundantShare,
                                              config, 3);
  for (std::uint64_t address = 0; address < 1000; ++address) {
    EXPECT_EQ(made->place(address), direct.place(address)) << address;
  }
}

TEST(StrategyFactory, RejectsBadParameters) {
  const ClusterConfig config = make_cluster();
  for (const PlacementKind kind : kAllKinds) {
    EXPECT_THROW(make_replication_strategy(kind, config, 0),
                 std::invalid_argument)
        << to_string(kind);
    EXPECT_THROW(make_replication_strategy(kind, config, 5),
                 std::invalid_argument)
        << to_string(kind);
  }
}

TEST(StrategyFactory, FastProductMatchesDirectConstruction) {
  const ClusterConfig config = make_cluster();
  const FastRedundantShare direct(config, 3);
  const auto made =
      make_replication_strategy(PlacementKind::kFastRedundantShare, config, 3);
  for (std::uint64_t address = 0; address < 1000; ++address) {
    EXPECT_EQ(made->place(address), direct.place(address)) << address;
  }
}

TEST(StrategyFactory, RejectsOutOfRangeKind) {
  EXPECT_THROW(make_replication_strategy(static_cast<PlacementKind>(99),
                                         make_cluster(), 2),
               std::logic_error);
}

TEST(StrategyFactory, UnknownKindErrorEnumeratesValidNames) {
  // Operators hit this through rds_cli --strategy; the message must list
  // every kind so a typo is self-diagnosing.
  try {
    (void)make_replication_strategy(static_cast<PlacementKind>(99),
                                    make_cluster(), 2);
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    const std::string message = e.what();
    for (const PlacementKind kind : kAllKinds) {
      EXPECT_NE(message.find(to_string(kind)), std::string::npos)
          << "missing `" << to_string(kind) << "` in: " << message;
    }
  }
}

TEST(StrategyFactory, AllPlacementKindsCoversEveryKind) {
  const auto kinds = all_placement_kinds();
  EXPECT_EQ(kinds.size(), std::size(kAllKinds));
  for (const PlacementKind kind : kAllKinds) {
    EXPECT_NE(std::find(kinds.begin(), kinds.end(), kind), kinds.end())
        << to_string(kind);
  }
}

TEST(StrategyFactory, PlacementKindNamesListsEveryCanonicalName) {
  const std::string names = placement_kind_names();
  for (const PlacementKind kind : kAllKinds) {
    EXPECT_NE(names.find(to_string(kind)), std::string::npos)
        << "missing `" << to_string(kind) << "` in: " << names;
  }
}

TEST(StrategyFactory, NamesRoundTrip) {
  for (const PlacementKind kind : kAllKinds) {
    const auto parsed = parse_placement_kind(to_string(kind));
    ASSERT_TRUE(parsed.has_value()) << to_string(kind);
    EXPECT_EQ(*parsed, kind);
  }
}

TEST(StrategyFactory, ParsesShortAliases) {
  EXPECT_EQ(parse_placement_kind("rs"), PlacementKind::kRedundantShare);
  EXPECT_EQ(parse_placement_kind("fast"),
            PlacementKind::kFastRedundantShare);
  EXPECT_EQ(parse_placement_kind("rr"), PlacementKind::kRoundRobin);
  EXPECT_EQ(parse_placement_kind("trivial"), PlacementKind::kTrivial);
  EXPECT_EQ(parse_placement_kind("ring"), PlacementKind::kTrivialRing);
  EXPECT_EQ(parse_placement_kind("trivial-ring"),
            PlacementKind::kTrivialRing);
  EXPECT_FALSE(parse_placement_kind("bogus").has_value());
  EXPECT_FALSE(parse_placement_kind("").has_value());
}

}  // namespace
}  // namespace rds
