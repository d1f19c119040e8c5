// MigrationExecutor: parallel plan execution with bounded in-flight moves,
// retry-with-backoff under injected faults, and cooperative cancellation.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <vector>

#include "src/core/fast_redundant_share.hpp"
#include "src/storage/migration.hpp"
#include "src/storage/migration_executor.hpp"
#include "tests/clusters.hpp"

namespace rds {
namespace {

using Stores = std::unordered_map<DeviceId, std::shared_ptr<DeviceStore>>;

constexpr unsigned kK = 2;

ClusterConfig pool(std::size_t n) {
  std::vector<Device> devices;
  for (DeviceId uid = 0; uid < n; ++uid) {
    devices.push_back({uid, 10'000, test::numbered("d", uid)});
  }
  return ClusterConfig(std::move(devices));
}

std::vector<std::uint8_t> payload_for(std::uint64_t block,
                                      std::uint32_t fragment) {
  return {static_cast<std::uint8_t>(block), static_cast<std::uint8_t>(
                                                block >> 8),
          static_cast<std::uint8_t>(fragment)};
}

/// Stores for `config` devices, populated per `strategy`'s placement of
/// blocks 0..count-1, plus the plan to move everything to `next`.
struct Fixture {
  Stores stores;
  MigrationPlan plan;
  std::vector<std::uint64_t> blocks;
};

Fixture make_fixture(std::size_t devices_before, std::size_t devices_after,
                     std::uint64_t block_count) {
  Fixture f;
  const ClusterConfig before = pool(devices_before);
  const ClusterConfig after = pool(devices_after);
  for (const Device& d : after.devices()) {
    f.stores.emplace(d.uid, std::make_shared<DeviceStore>(d));
  }
  const FastRedundantShare sb(before, kK);
  const FastRedundantShare sa(after, kK);
  std::vector<DeviceId> copies(kK);
  for (std::uint64_t block = 0; block < block_count; ++block) {
    f.blocks.push_back(block);
    sb.place(block, copies);
    for (std::uint32_t frag = 0; frag < kK; ++frag) {
      f.stores.at(copies[frag])
          ->write({block, frag, 0}, payload_for(block, frag));
    }
  }
  f.plan = plan_migration(sb, sa, f.blocks);
  return f;
}

/// Every fragment of every block sits exactly where `strategy` places it.
void expect_placed_per(const FastRedundantShare& strategy, const Fixture& f) {
  std::vector<DeviceId> copies(kK);
  for (const std::uint64_t block : f.blocks) {
    strategy.place(block, copies);
    for (std::uint32_t frag = 0; frag < kK; ++frag) {
      const FragmentKey key{block, frag, 0};
      EXPECT_EQ(f.stores.at(copies[frag])->read(key),
                payload_for(block, frag))
          << "block " << block << " fragment " << frag;
      for (const auto& [uid, store] : f.stores) {
        if (uid != copies[frag]) {
          EXPECT_FALSE(store->contains(key))
              << "stray copy of block " << block << " on device " << uid;
        }
      }
    }
  }
}

TEST(MigrationExecutor, ExecutesAWholePlanInParallel) {
  Fixture f = make_fixture(4, 6, 400);
  ASSERT_FALSE(f.plan.moves.empty());
  MigrationExecutorOptions opts;
  opts.max_in_flight = 4;
  MigrationExecutor executor(f.stores, 0, opts);
  const Result<MigrationReport> r = executor.execute(f.plan);
  ASSERT_TRUE(r.ok()) << r.error().message;
  const MigrationReport& report = r.value();
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.moves_executed, f.plan.moves.size());
  EXPECT_EQ(report.moves_failed, 0u);
  EXPECT_EQ(report.moves_remaining, 0u);
  EXPECT_FALSE(report.cancelled);
  expect_placed_per(FastRedundantShare(pool(6), kK), f);
}

TEST(MigrationExecutor, SkipsAbsentSourceFragments) {
  Fixture f = make_fixture(4, 6, 100);
  ASSERT_GE(f.plan.moves.size(), 2u);
  // Trim the first two planned fragments out from under the executor.
  for (std::size_t i = 0; i < 2; ++i) {
    const FragmentMove& m = f.plan.moves[i];
    ASSERT_TRUE(f.stores.at(m.from)->erase({m.block, m.fragment, 0}));
  }
  MigrationExecutor executor(f.stores);
  const Result<MigrationReport> r = executor.execute(f.plan);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().moves_skipped, 2u);
  EXPECT_EQ(r.value().moves_executed, f.plan.moves.size() - 2);
}

/// Fails every move's first `fail_attempts` tries; thread-safe.
class TransientFaults : public FaultInjector {
 public:
  explicit TransientFaults(unsigned fail_attempts)
      : fail_attempts_(fail_attempts) {}
  bool should_fail(const FragmentMove&, unsigned attempt) override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return attempt < fail_attempts_;
  }
  [[nodiscard]] std::uint64_t calls() const {
    return calls_.load(std::memory_order_relaxed);
  }

 private:
  unsigned fail_attempts_;
  std::atomic<std::uint64_t> calls_{0};
};

TEST(MigrationExecutor, RetriesThroughTransientFaults) {
  Fixture f = make_fixture(4, 5, 60);
  TransientFaults faults(2);  // attempts 0 and 1 fail, attempt 2 succeeds
  MigrationExecutorOptions opts;
  opts.max_in_flight = 3;
  opts.max_attempts = 4;
  opts.backoff_base = std::chrono::microseconds(1);
  opts.faults = &faults;
  MigrationExecutor executor(f.stores, 0, opts);
  const Result<MigrationReport> r = executor.execute(f.plan);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().complete());
  EXPECT_EQ(r.value().moves_executed, f.plan.moves.size());
  // Exactly two retries per move, every one counted.
  EXPECT_EQ(r.value().retries, 2 * f.plan.moves.size());
  expect_placed_per(FastRedundantShare(pool(5), kK), f);
}

TEST(MigrationExecutor, ReportsMovesThatExhaustTheirAttempts) {
  Fixture f = make_fixture(4, 5, 40);
  TransientFaults faults(1000);  // permanent
  MigrationExecutorOptions opts;
  opts.max_attempts = 3;
  opts.backoff_base = std::chrono::microseconds(1);
  opts.faults = &faults;
  MigrationExecutor executor(f.stores, 0, opts);
  const Result<MigrationReport> r = executor.execute(f.plan);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().complete());
  EXPECT_EQ(r.value().moves_failed, f.plan.moves.size());
  EXPECT_EQ(r.value().moves_executed, 0u);
  EXPECT_EQ(r.value().retries, 2 * f.plan.moves.size());
}

/// Cancels the shared token after the N-th attempt check; thread-safe.
class CancelAfter : public FaultInjector {
 public:
  CancelAfter(CancellationToken token, std::uint64_t after)
      : token_(std::move(token)), after_(after) {}
  bool should_fail(const FragmentMove&, unsigned) override {
    if (calls_.fetch_add(1, std::memory_order_relaxed) + 1 >= after_) {
      token_.cancel();
    }
    return false;
  }

 private:
  CancellationToken token_;
  std::uint64_t after_;
  std::atomic<std::uint64_t> calls_{0};
};

TEST(MigrationExecutor, CancellationStopsWithPartialProgress) {
  Fixture f = make_fixture(4, 6, 300);
  ASSERT_GT(f.plan.moves.size(), 20u);
  CancellationToken token;
  CancelAfter faults(token, 10);
  MigrationExecutorOptions opts;
  opts.max_in_flight = 2;
  opts.faults = &faults;
  MigrationExecutor executor(f.stores, 0, opts);
  const Result<MigrationReport> r = executor.execute(f.plan, token);
  ASSERT_TRUE(r.ok());
  const MigrationReport& report = r.value();
  EXPECT_TRUE(report.cancelled);
  EXPECT_FALSE(report.complete());
  EXPECT_LT(report.moves_executed, f.plan.moves.size());
  EXPECT_GT(report.moves_remaining, 0u);
  // Conservation: every planned move is accounted for exactly once.
  EXPECT_EQ(report.moves_executed + report.moves_skipped +
                report.moves_failed + report.moves_remaining,
            f.plan.moves.size());
}

TEST(MigrationExecutor, AlreadyCancelledTokenExecutesNothing) {
  Fixture f = make_fixture(4, 6, 50);
  CancellationToken token;
  token.cancel();
  MigrationExecutor executor(f.stores);
  const Result<MigrationReport> r = executor.execute(f.plan, token);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().cancelled);
  EXPECT_EQ(r.value().moves_executed, 0u);
  EXPECT_EQ(r.value().moves_remaining, f.plan.moves.size());
}

TEST(MigrationExecutor, RejectsInvalidOptionsAndForeignDevices) {
  Fixture f = make_fixture(4, 6, 10);
  {
    MigrationExecutorOptions opts;
    opts.max_in_flight = 0;
    MigrationExecutor executor(f.stores, 0, opts);
    EXPECT_EQ(executor.execute(f.plan).code(), ErrorCode::kInvalidArgument);
  }
  {
    MigrationExecutorOptions opts;
    opts.max_attempts = 0;
    MigrationExecutor executor(f.stores, 0, opts);
    EXPECT_EQ(executor.execute(f.plan).code(), ErrorCode::kInvalidArgument);
  }
  {
    MigrationExecutor executor(f.stores);
    MigrationPlan foreign;
    foreign.moves.push_back({0, 0, 0, 999});
    EXPECT_EQ(executor.execute(foreign).code(),
              ErrorCode::kInvalidArgument);
  }
  EXPECT_THROW(MigrationExecutor({{0, nullptr}}), std::invalid_argument);
}

TEST(MigrationExecutor, EmptyPlanIsANoOp) {
  Fixture f = make_fixture(3, 3, 20);
  MigrationExecutor executor(f.stores);
  const Result<MigrationReport> r = executor.execute(MigrationPlan{});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().complete());
  EXPECT_EQ(r.value().moves_executed, 0u);
}

}  // namespace
}  // namespace rds
