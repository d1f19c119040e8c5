// Thread-safety of the strategies: construction produces an immutable
// value, so any number of threads may call place() concurrently.  These
// tests hammer shared strategy instances from several threads and check
// that every thread observes identical, valid placements.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/core/fast_redundant_share.hpp"
#include "src/core/redundant_share.hpp"
#include "src/placement/rendezvous.hpp"

namespace rds {
namespace {

ClusterConfig make_pool() {
  std::vector<Device> devices;
  for (DeviceId uid = 0; uid < 16; ++uid) {
    devices.push_back({uid, 1000 + 250 * uid, ""});
  }
  return ClusterConfig(std::move(devices));
}

template <typename Strategy>
void hammer_replicated(const Strategy& strategy, unsigned k) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kBallsPerThread = 20'000;

  // Reference placements computed single-threaded.
  std::vector<DeviceId> reference(kBallsPerThread * k);
  for (std::uint64_t a = 0; a < kBallsPerThread; ++a) {
    strategy.place(a, {reference.data() + a * k, k});
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&strategy, &reference, &mismatches, k] {
      std::vector<DeviceId> out(k);
      for (std::uint64_t a = 0; a < kBallsPerThread; ++a) {
        strategy.place(a, out);
        for (unsigned j = 0; j < k; ++j) {
          if (out[j] != reference[a * k + j]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(Concurrency, RedundantShareIsShareable) {
  const RedundantShare s(make_pool(), 3);
  hammer_replicated(s, 3);
}

TEST(Concurrency, FastRedundantShareIsShareable) {
  const FastRedundantShare s(make_pool(), 3);
  hammer_replicated(s, 3);
}

TEST(Concurrency, SingleStrategyIsShareable) {
  const WeightedRendezvous s(make_pool());
  constexpr int kThreads = 4;
  std::vector<DeviceId> reference(20'000);
  for (std::uint64_t a = 0; a < reference.size(); ++a) {
    reference[a] = s.place(a);
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t a = 0; a < reference.size(); ++a) {
        if (s.place(a) != reference[a]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace rds
