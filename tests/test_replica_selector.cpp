// ReplicaSelector policies and their factory: positional contracts,
// queue-state invariants under adversarial backlogs, and the enumerated
// unknown-name errors (mirrors test_strategy_factory).
#include "src/sim/replica_selector.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace rds {
namespace {

/// Hand-built queue state: the adversarial inputs the simulator would
/// never produce in such pure form.
class FakeQueues final : public QueueView {
 public:
  explicit FakeQueues(std::vector<double> backlog,
                      std::vector<double> mean_service = {})
      : backlog_(std::move(backlog)), mean_(std::move(mean_service)) {}

  [[nodiscard]] double backlog_us(std::size_t dev) const override {
    return backlog_[dev];
  }
  [[nodiscard]] double mean_service_us(std::size_t dev) const override {
    return mean_.empty() ? 1.0 : mean_[dev];
  }
  [[nodiscard]] std::size_t device_count() const override {
    return backlog_.size();
  }

 private:
  std::vector<double> backlog_;
  std::vector<double> mean_;
};

TEST(SelectorFactory, EveryKindConstructsWithMatchingName) {
  for (const SelectorKind kind : all_selector_kinds()) {
    const auto by_kind = make_replica_selector(kind);
    ASSERT_NE(by_kind, nullptr);
    EXPECT_EQ(by_kind->name(), to_string(kind));
    // The canonical spelling round-trips through the string factory.
    const auto by_name =
        try_make_replica_selector(std::string_view(to_string(kind)))
            .value_or_throw();
    ASSERT_NE(by_name, nullptr);
    EXPECT_EQ(by_name->name(), to_string(kind));
  }
}

TEST(SelectorFactory, AliasesResolve) {
  EXPECT_EQ(try_make_replica_selector("rr").value_or_throw()->name(),
            "round-robin");
  EXPECT_EQ(try_make_replica_selector("ll").value_or_throw()->name(),
            "least-loaded");
  EXPECT_EQ(try_make_replica_selector("p2c").value_or_throw()->name(),
            "power-of-two");
  EXPECT_EQ(try_make_replica_selector("wf").value_or_throw()->name(),
            "water-filling");
}

TEST(SelectorFactory, UnknownNameEnumeratesAllSpellings) {
  const Result<std::unique_ptr<ReplicaSelector>> r =
      try_make_replica_selector("fastest");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kInvalidArgument);
  const std::string& message = r.error().message;
  EXPECT_NE(message.find("fastest"), std::string::npos);
  for (const SelectorKind kind : all_selector_kinds()) {
    EXPECT_NE(message.find(std::string(to_string(kind))), std::string::npos)
        << "missing " << to_string(kind);
  }
  EXPECT_NE(message.find("p2c"), std::string::npos);  // aliases listed too
}

TEST(RoundRobin, CyclesOverPositions) {
  RoundRobinSelector selector;
  const FakeQueues queues({0.0, 0.0, 0.0});
  Xoshiro256 rng(1);
  const std::vector<std::size_t> replicas{2, 0, 1};
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(selector.select(replicas, queues, rng), 0u);
    EXPECT_EQ(selector.select(replicas, queues, rng), 1u);
    EXPECT_EQ(selector.select(replicas, queues, rng), 2u);
  }
}

TEST(Random, CoversAllPositionsRoughlyEvenly) {
  RandomSelector selector;
  const FakeQueues queues({0.0, 0.0, 0.0, 0.0});
  Xoshiro256 rng(7);
  const std::vector<std::size_t> replicas{0, 1, 2, 3};
  std::vector<int> counts(4, 0);
  constexpr int kN = 40'000;
  for (int i = 0; i < kN; ++i) {
    const std::size_t pick = selector.select(replicas, queues, rng);
    ASSERT_LT(pick, replicas.size());
    ++counts[pick];
  }
  for (const int c : counts) EXPECT_NEAR(c, kN / 4, 400);
}

TEST(LeastLoaded, PicksArgminBacklog) {
  LeastLoadedSelector selector;
  Xoshiro256 rng(3);
  // Replica positions deliberately unordered vs device indices.
  const std::vector<std::size_t> replicas{3, 0, 2};
  const FakeQueues queues({50.0, 999.0, 10.0, 70.0});
  // Backlogs seen: dev3=70, dev0=50, dev2=10 -> position 2.
  EXPECT_EQ(selector.select(replicas, queues, rng), 2u);
}

TEST(LeastLoaded, TiesBreakTowardLowestCopyIndex) {
  LeastLoadedSelector selector;
  Xoshiro256 rng(3);
  const std::vector<std::size_t> replicas{1, 2, 3};
  const FakeQueues queues({0.0, 5.0, 5.0, 5.0});
  EXPECT_EQ(selector.select(replicas, queues, rng), 0u);
}

TEST(PowerOfTwo, SingleReplicaIsTheOnlyChoice) {
  PowerOfTwoSelector selector;
  Xoshiro256 rng(5);
  const std::vector<std::size_t> replicas{4};
  const FakeQueues queues({0, 0, 0, 0, 9000.0});
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(selector.select(replicas, queues, rng), 0u);
  }
}

TEST(PowerOfTwo, TwoReplicasDegeneratesToLeastLoaded) {
  // With k = 2 the two distinct probes ARE the two replicas, so the pick
  // must be deterministic: always the smaller backlog.
  PowerOfTwoSelector selector;
  Xoshiro256 rng(5);
  const std::vector<std::size_t> replicas{0, 1};
  const FakeQueues queues({5000.0, 1.0});
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(selector.select(replicas, queues, rng), 1u);
  }
}

TEST(PowerOfTwo, NeverPicksTheUniqueWorstReplica) {
  // Both probes are distinct, so the strict maximum can only be returned
  // if it beats the other probe -- impossible.  Adversarial state: one
  // device drowning, the rest idle.
  PowerOfTwoSelector selector;
  Xoshiro256 rng(9);
  const std::vector<std::size_t> replicas{0, 1, 2, 3};
  const FakeQueues queues({0.0, 1e9, 2.0, 1.0});
  for (int i = 0; i < 5000; ++i) {
    EXPECT_NE(selector.select(replicas, queues, rng), 1u);
  }
}

TEST(WaterFilling, PrefersFasterDeviceAtEqualLevels) {
  WaterFillingSelector selector;
  Xoshiro256 rng(13);
  const std::vector<std::size_t> replicas{0, 1};
  // Backlogs are adversarially inverted: water-filling must IGNORE them
  // (it balances its own assignments, not the observed queues).
  const FakeQueues queues({0.0, 1e9}, {10.0, 2.0});
  EXPECT_EQ(selector.select(replicas, queues, rng), 1u);
  EXPECT_DOUBLE_EQ(selector.assigned_us(1), 2.0);
  EXPECT_DOUBLE_EQ(selector.assigned_us(0), 0.0);
}

TEST(WaterFilling, AssignmentsEqualizeAcrossSpeeds) {
  // Device 0 serves in 1us, device 1 in 3us.  Water-filling keeps the
  // assigned-work levels equal, so request counts settle at ~3:1.
  WaterFillingSelector selector;
  Xoshiro256 rng(13);
  const std::vector<std::size_t> replicas{0, 1};
  const FakeQueues queues({0.0, 0.0}, {1.0, 3.0});
  int fast = 0;
  constexpr int kN = 400;
  for (int i = 0; i < kN; ++i) {
    if (selector.select(replicas, queues, rng) == 0) ++fast;
  }
  EXPECT_NEAR(fast, 300, 4);
  EXPECT_NEAR(selector.assigned_us(0), selector.assigned_us(1), 3.0);
}

/// FakeQueues plus a per-device degraded mask (the shape the durability
/// simulator feeds through QueueView::available()).
class DegradedQueues final : public QueueView {
 public:
  DegradedQueues(std::vector<double> backlog, std::vector<bool> degraded)
      : backlog_(std::move(backlog)), degraded_(std::move(degraded)) {}

  [[nodiscard]] double backlog_us(std::size_t dev) const override {
    return backlog_[dev];
  }
  [[nodiscard]] double mean_service_us(std::size_t) const override {
    return 1.0;
  }
  [[nodiscard]] std::size_t device_count() const override {
    return backlog_.size();
  }
  [[nodiscard]] bool available(std::size_t dev) const override {
    return !degraded_[dev];
  }

 private:
  std::vector<double> backlog_;
  std::vector<bool> degraded_;
};

TEST(Degraded, BaseQueueViewDefaultsToAvailable) {
  const FakeQueues queues({0.0, 0.0});
  EXPECT_TRUE(queues.available(0));
  EXPECT_TRUE(queues.available(1));
}

TEST(Degraded, NoPolicyPicksADegradedReplicaWhileHealthyExist) {
  // Device 1 is degraded AND has the most attractive queue -- every policy
  // must still route around it.
  const std::vector<std::size_t> replicas{0, 1, 2, 3};
  const DegradedQueues queues({50.0, 0.0, 70.0, 90.0},
                              {false, true, false, false});
  for (const SelectorKind kind : all_selector_kinds()) {
    const auto selector = make_replica_selector(kind);
    Xoshiro256 rng(17);
    for (int i = 0; i < 2000; ++i) {
      const std::size_t pick = selector->select(replicas, queues, rng);
      ASSERT_LT(pick, replicas.size());
      EXPECT_NE(replicas[pick], 1u)
          << selector->name() << " routed to a degraded device";
    }
  }
}

TEST(Degraded, AllDegradedFallsBackToFullSet) {
  // A wholly-degraded replica set must still serve (graceful degradation,
  // not an error): each policy falls back to its normal rule.
  const std::vector<std::size_t> replicas{0, 1, 2};
  const DegradedQueues queues({30.0, 5.0, 90.0}, {true, true, true});
  for (const SelectorKind kind : all_selector_kinds()) {
    const auto selector = make_replica_selector(kind);
    Xoshiro256 rng(23);
    for (int i = 0; i < 100; ++i) {
      ASSERT_LT(selector->select(replicas, queues, rng), replicas.size())
          << selector->name();
    }
  }
  // Least-loaded specifically still picks the argmin of the full set.
  LeastLoadedSelector least;
  Xoshiro256 rng(23);
  EXPECT_EQ(least.select(replicas, queues, rng), 1u);
}

TEST(Degraded, RoundRobinCyclesOverHealthySubset) {
  RoundRobinSelector selector;
  Xoshiro256 rng(1);
  const std::vector<std::size_t> replicas{0, 1, 2, 3};
  const DegradedQueues queues({0, 0, 0, 0}, {false, true, false, true});
  // Positions 1 and 3 are skipped; the cursor keeps advancing.
  EXPECT_EQ(selector.select(replicas, queues, rng), 0u);
  EXPECT_EQ(selector.select(replicas, queues, rng), 2u);
  EXPECT_EQ(selector.select(replicas, queues, rng), 0u);
  EXPECT_EQ(selector.select(replicas, queues, rng), 2u);
}

TEST(Degraded, PowerOfTwoWithOneHealthyReturnsIt) {
  PowerOfTwoSelector selector;
  Xoshiro256 rng(5);
  const std::vector<std::size_t> replicas{0, 1, 2};
  // Only device 2 is healthy, and it has the WORST backlog: still the pick.
  const DegradedQueues queues({0.0, 1.0, 9000.0}, {true, true, false});
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(selector.select(replicas, queues, rng), 2u);
  }
}

}  // namespace
}  // namespace rds
