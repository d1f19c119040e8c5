// Bit-rot detection and repair: corrupt fragments are detected by checksum
// on the read path (treated as missing, reconstructed from peers) and
// restored in place by repair().
#include <gtest/gtest.h>

#include "src/storage/erasure/evenodd.hpp"
#include "src/storage/virtual_disk.hpp"
#include "src/util/random.hpp"

namespace rds {
namespace {

ClusterConfig pool() {
  return ClusterConfig({{1, 2000, ""},
                        {2, 2000, ""},
                        {3, 2000, ""},
                        {4, 2000, ""},
                        {5, 2000, ""},
                        {6, 2000, ""}});
}

Bytes payload(std::uint64_t block) {
  Bytes b(96);
  Xoshiro256 rng(block * 31 + 7);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng());
  return b;
}

TEST(Corruption, MirrorReadsAroundCorruptCopy) {
  VirtualDisk disk(pool(), std::make_shared<MirroringScheme>(2));
  disk.try_write(5, payload(5)).value_or_throw();
  ASSERT_TRUE(disk.corrupt_fragment(5, 0));
  EXPECT_EQ(disk.try_read(5).value_or_throw(),
            payload(5));  // the healthy mirror serves
  EXPECT_EQ(disk.stats().checksum_failures, 1u);
  EXPECT_EQ(disk.stats().degraded_reads, 1u);
}

TEST(Corruption, ErasureReadsAroundCorruptFragment) {
  VirtualDisk disk(pool(), std::make_shared<ReedSolomonScheme>(4, 2));
  for (std::uint64_t b = 0; b < 50; ++b) {
    disk.try_write(b, payload(b)).value_or_throw();
  }
  ASSERT_TRUE(disk.corrupt_fragment(7, 2));
  ASSERT_TRUE(disk.corrupt_fragment(7, 5));
  // The read verifies fragments 0..4 and decodes from 0, 1, 3, 4: parity
  // fragment 5 is never reached, so only fragment 2's rot is seen.
  EXPECT_EQ(disk.try_read(7).value_or_throw(), payload(7));
  EXPECT_EQ(disk.stats().checksum_failures, 1u);
  EXPECT_EQ(disk.stats().degraded_reads, 1u);
  // Scrub checks every fragment and finds both.
  const VirtualDisk::ScrubReport report = disk.scrub();
  EXPECT_EQ(report.degraded_blocks, 1u);
  EXPECT_EQ(report.unreadable_blocks, 0u);
  EXPECT_EQ(disk.stats().checksum_failures, 3u);
}

TEST(Corruption, ErasureReadsAroundTwoCorruptDataFragments) {
  VirtualDisk disk(pool(), std::make_shared<ReedSolomonScheme>(4, 2));
  for (std::uint64_t b = 0; b < 50; ++b) {
    disk.try_write(b, payload(b)).value_or_throw();
  }
  ASSERT_TRUE(disk.corrupt_fragment(7, 2));
  ASSERT_TRUE(disk.corrupt_fragment(7, 3));
  // Both are data fragments the read needs: it reaches on into both
  // parity fragments and solves.
  EXPECT_EQ(disk.try_read(7).value_or_throw(), payload(7));
  EXPECT_EQ(disk.stats().checksum_failures, 2u);
  EXPECT_EQ(disk.stats().degraded_reads, 1u);
}

TEST(Corruption, MirrorFallsBackPastCorruptAndFailedCopies) {
  VirtualDisk disk(pool(), std::make_shared<MirroringScheme>(3));
  disk.try_write(5, payload(5)).value_or_throw();
  std::vector<DeviceId> homes(3);
  (void)disk.try_copy_locations(5, homes).value_or_throw();
  ASSERT_TRUE(disk.corrupt_fragment(5, 0));
  disk.fail_device(homes[1]);
  EXPECT_EQ(disk.try_read(5).value_or_throw(), payload(5));  // copy 2
  EXPECT_EQ(disk.stats().checksum_failures, 1u);
  EXPECT_EQ(disk.stats().degraded_reads, 1u);
}

TEST(Corruption, ReadSkipsRotThatScrubFinds) {
  VirtualDisk disk(pool(), std::make_shared<MirroringScheme>(3));
  disk.try_write(5, payload(5)).value_or_throw();
  ASSERT_TRUE(disk.corrupt_fragment(5, 2));
  // Copy 0 is intact, so the read stops there and never sees copy 2.
  EXPECT_EQ(disk.try_read(5).value_or_throw(), payload(5));
  EXPECT_EQ(disk.stats().checksum_failures, 0u);
  EXPECT_EQ(disk.stats().degraded_reads, 0u);
  const VirtualDisk::ScrubReport report = disk.scrub();
  EXPECT_EQ(report.degraded_blocks, 1u);
  EXPECT_EQ(disk.stats().checksum_failures, 1u);
}

TEST(Corruption, TooManyCorruptFragmentsIsUnrecoverable) {
  VirtualDisk disk(pool(), std::make_shared<ReedSolomonScheme>(4, 2));
  disk.try_write(1, payload(1)).value_or_throw();
  for (unsigned j = 0; j < 3; ++j) {
    ASSERT_TRUE(disk.corrupt_fragment(1, j));
  }
  EXPECT_EQ(disk.try_read(1).code(), ErrorCode::kUnrecoverable);
}

TEST(Corruption, ScrubDetectsBitRot) {
  VirtualDisk disk(pool(), std::make_shared<MirroringScheme>(3));
  for (std::uint64_t b = 0; b < 20; ++b) {
    disk.try_write(b, payload(b)).value_or_throw();
  }
  EXPECT_TRUE(disk.scrub().clean());
  disk.corrupt_fragment(3, 1);
  const VirtualDisk::ScrubReport report = disk.scrub();
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.degraded_blocks, 1u);
  EXPECT_EQ(report.unreadable_blocks, 0u);
}

TEST(Corruption, RepairRestoresFragmentsInPlace) {
  VirtualDisk disk(pool(), std::make_shared<ReedSolomonScheme>(3, 2));
  for (std::uint64_t b = 0; b < 30; ++b) {
    disk.try_write(b, payload(b)).value_or_throw();
  }
  disk.corrupt_fragment(4, 0);
  disk.corrupt_fragment(9, 3);
  disk.corrupt_fragment(9, 4);
  EXPECT_FALSE(disk.scrub().clean());

  const std::uint64_t repaired = disk.repair();
  EXPECT_EQ(repaired, 3u);
  EXPECT_TRUE(disk.scrub().clean());
  for (std::uint64_t b = 0; b < 30; ++b) {
    EXPECT_EQ(disk.try_read(b).value_or_throw(), payload(b));
  }
  // Reads after repair are no longer degraded.
  const std::uint64_t degraded = disk.stats().degraded_reads;
  (void)disk.try_read(4).value_or_throw();
  EXPECT_EQ(disk.stats().degraded_reads, degraded);
}

TEST(Corruption, RepairWithEvenOdd) {
  VirtualDisk disk(pool(), std::make_shared<EvenOddScheme>(3));  // 5 frags
  for (std::uint64_t b = 0; b < 20; ++b) {
    disk.try_write(b, payload(b)).value_or_throw();
  }
  disk.corrupt_fragment(2, 4);  // the diagonal parity column
  disk.corrupt_fragment(2, 1);
  EXPECT_EQ(disk.repair(), 2u);
  EXPECT_TRUE(disk.scrub().clean());
  EXPECT_EQ(disk.try_read(2).value_or_throw(), payload(2));
}

TEST(Corruption, CorruptUnknownTargetsReturnFalse) {
  VirtualDisk disk(pool(), std::make_shared<MirroringScheme>(2));
  EXPECT_FALSE(disk.corrupt_fragment(99, 0));  // never written
  disk.try_write(1, payload(1)).value_or_throw();
  EXPECT_FALSE(disk.corrupt_fragment(1, 5));  // fragment index out of range
}

TEST(Corruption, OverwriteClearsCorruption) {
  VirtualDisk disk(pool(), std::make_shared<MirroringScheme>(2));
  disk.try_write(1, payload(1)).value_or_throw();
  disk.corrupt_fragment(1, 0);
  // Fresh content, fresh checksums.
  disk.try_write(1, payload(2)).value_or_throw();
  EXPECT_EQ(disk.try_read(1).value_or_throw(), payload(2));
  EXPECT_TRUE(disk.scrub().clean());
}

}  // namespace
}  // namespace rds
