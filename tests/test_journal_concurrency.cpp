// Journal under concurrency: parallel appenders get contiguous LSNs, and a
// journal fed by concurrent admin threads replays to the live state.  Runs
// under TSan in CI (the suite name matches the concurrency filter).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "src/journal/journal.hpp"
#include "src/journal/record.hpp"
#include "src/journal/recovery.hpp"
#include "src/util/random.hpp"

namespace rds::journal {
namespace {

Bytes payload(std::uint64_t block) {
  Bytes b(32);
  Xoshiro256 rng(block + 977);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng());
  return b;
}

TEST(JournalConcurrency, ParallelAppendersGetContiguousLsns) {
  std::stringstream wal;
  JournalWriter writer(wal);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;

  std::vector<std::vector<Lsn>> seen(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto lsn = writer.append(
            make_resize_device(static_cast<DeviceId>(t + 1),
                               1000 + static_cast<std::uint64_t>(i)));
        ASSERT_TRUE(lsn.ok()) << lsn.error().message;
        seen[t].push_back(lsn.value());
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(writer.last_lsn(),
            static_cast<Lsn>(kThreads) * kPerThread);
  // Each thread saw its own LSNs strictly increasing.
  for (const auto& lsns : seen) {
    for (std::size_t i = 1; i < lsns.size(); ++i) {
      EXPECT_LT(lsns[i - 1], lsns[i]);
    }
  }
  // The stream itself is a gap-free, fully parseable journal: the reader
  // enforces LSN contiguity frame by frame.
  JournalReader reader(wal);
  std::uint64_t frames = 0;
  for (;;) {
    auto next = reader.next();
    ASSERT_TRUE(next.ok()) << next.error().message;
    if (!next.value()) break;
    ++frames;
  }
  EXPECT_EQ(frames, static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(JournalConcurrency, ConcurrentAdminAndIoReplaysToLiveTopology) {
  ClusterConfig config({{1, 4000, "a"}, {2, 4000, "b"}, {3, 4000, "c"}});
  VirtualDisk disk(std::move(config), std::make_shared<MirroringScheme>(2));
  for (std::uint64_t b = 0; b < 16; ++b) {
    disk.try_write(b, payload(b)).value_or_throw();
  }

  std::stringstream ckpt;
  write_checkpoint(disk, 0, ckpt);
  std::stringstream wal;
  auto writer = std::make_shared<JournalWriter>(wal);
  disk.set_journal(writer);

  // Admin threads mutate topology (journaled) while an I/O thread hammers
  // reads and writes (not journaled -- the journal is a topology/content
  // commit log, and block I/O rides the same internal lock).
  constexpr int kAdmins = 3;
  std::vector<std::thread> threads;
  threads.reserve(kAdmins + 1);
  for (int t = 0; t < kAdmins; ++t) {
    threads.emplace_back([&, t] {
      const auto uid = static_cast<DeviceId>(100 + t);
      disk.try_add_device({uid, 3000, "late-" + std::to_string(t)})
          .value_or_throw();
      disk.try_resize_device(uid, 3500).value_or_throw();
    });
  }
  threads.emplace_back([&] {
    for (std::uint64_t b = 0; b < 64; ++b) {
      disk.try_write(1000 + b, payload(b)).value_or_throw();
      (void)disk.try_read(1000 + (b % 16)).value_or_throw();
    }
  });
  for (auto& th : threads) th.join();
  EXPECT_EQ(writer->last_lsn(), 2u * kAdmins);

  auto recovered = Recovery::recover_disk(ckpt, &wal);
  ASSERT_TRUE(recovered.ok()) << recovered.error().message;
  VirtualDisk& twin = recovered.value().disk;
  EXPECT_EQ(recovered.value().report.records_applied, 2u * kAdmins);
  EXPECT_FALSE(recovered.value().report.tail_corrupt);

  // The replayed topology matches the live disk exactly (commit order is
  // journal order, whatever interleaving the scheduler picked)...
  EXPECT_TRUE(twin.config() == disk.config());
  // ...and the checkpoint-era data is intact under the final topology.
  for (std::uint64_t b = 0; b < 16; ++b) {
    EXPECT_EQ(twin.try_read(b).value_or_throw(), payload(b));
  }
  EXPECT_TRUE(twin.scrub().clean());
}

TEST(JournalConcurrency, AppendFailureIsStickyAcrossThreads) {
  std::stringstream wal;
  JournalWriter writer(wal);
  wal.setstate(std::ios::badbit);

  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        auto lsn = writer.append(make_rebuild());
        EXPECT_FALSE(lsn.ok());
        EXPECT_EQ(lsn.error().code, ErrorCode::kIoError);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(writer.healthy());
  EXPECT_EQ(writer.last_lsn(), 0u);  // nothing was ever assigned
}

}  // namespace
}  // namespace rds::journal
