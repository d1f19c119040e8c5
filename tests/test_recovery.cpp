// Checkpoint + journal replay reconstructs disks, pools and file stores
// (src/journal/recovery.hpp).
#include "src/journal/recovery.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/journal/journal.hpp"
#include "src/journal/record.hpp"
#include "src/storage/snapshot.hpp"
#include "src/util/random.hpp"

namespace rds::journal {
namespace {

ClusterConfig base_config() {
  return ClusterConfig({{1, 3000, "a"},
                        {2, 2500, "b"},
                        {3, 2000, "c"},
                        {4, 1500, "d"},
                        {5, 1000, "e"},
                        {6, 1000, "f"}});
}

Bytes payload(std::uint64_t block, std::uint64_t salt) {
  Bytes b(80);
  Xoshiro256 rng(block * 17 + salt);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng());
  return b;
}

// Byte i is i * 31 + salt: the contents the committed files under
// tests/data were written with.
Bytes pattern(std::size_t size, std::uint8_t salt) {
  Bytes b(size);
  for (std::size_t i = 0; i < size; ++i) {
    b[i] = static_cast<std::uint8_t>(i * 31 + salt);
  }
  return b;
}

TEST(CheckpointHeader, RoundTrip) {
  VirtualDisk disk(base_config(), std::make_shared<MirroringScheme>(2));
  std::stringstream stream;
  write_checkpoint(disk, 17, stream);
  auto watermark = read_checkpoint_header(stream);
  ASSERT_TRUE(watermark.ok()) << watermark.error().message;
  EXPECT_EQ(watermark.value(), 17u);
  // The rest of the stream is a loadable snapshot.
  EXPECT_TRUE(Snapshot::load_disk(stream).config() == disk.config());
}

TEST(CheckpointHeader, RejectsBadMagicTruncationAndCrc) {
  std::stringstream empty;
  EXPECT_EQ(read_checkpoint_header(empty).error().code,
            ErrorCode::kCorruption);

  std::stringstream wrong("WRONGMAGxxxxxxxxxxxx");
  auto foreign = read_checkpoint_header(wrong);
  EXPECT_EQ(foreign.error().code, ErrorCode::kCorruption);
  EXPECT_EQ(foreign.error().message, "checkpoint header: bad magic");

  VirtualDisk disk(base_config(), std::make_shared<MirroringScheme>(2));
  std::stringstream full;
  write_checkpoint(disk, 3, full);
  const std::string bytes = full.str();

  // Another version of the same format is named, not just refused.
  std::stringstream other_version("RDSCKPT2" + bytes.substr(8));
  auto versioned = read_checkpoint_header(other_version);
  EXPECT_EQ(versioned.error().code, ErrorCode::kCorruption);
  EXPECT_EQ(versioned.error().message,
            "checkpoint header: RDSCKPT2 is format version 2; this build "
            "reads only version 1 (RDSCKPT1)");

  std::stringstream truncated(bytes.substr(0, 12));
  EXPECT_EQ(read_checkpoint_header(truncated).error().code,
            ErrorCode::kCorruption);

  std::string flipped = bytes;
  flipped[10] = static_cast<char>(flipped[10] ^ 0x40);  // inside the watermark
  std::stringstream damaged(flipped);
  auto header = read_checkpoint_header(damaged);
  ASSERT_FALSE(header.ok());
  EXPECT_NE(header.error().message.find("checksum mismatch"),
            std::string::npos);
}

TEST(Recovery, DiskAdminOpsReplayToIdenticalState) {
  VirtualDisk disk(base_config(),
                   std::make_shared<ReedSolomonScheme>(3, 2));
  for (std::uint64_t b = 0; b < 60; ++b) {
    disk.try_write(b, payload(b, 1)).value_or_throw();
  }

  // Checkpoint first (watermark 0: no journaled mutation yet), then attach
  // the journal and run the full admin vocabulary.
  std::stringstream ckpt;
  write_checkpoint(disk, 0, ckpt);
  std::stringstream wal;
  auto writer = std::make_shared<JournalWriter>(wal);
  disk.set_journal(writer);

  disk.try_add_device({9, 4000, "late"}).value_or_throw();
  disk.try_resize_device(2, 3500).value_or_throw();
  disk.fail_device(5);
  EXPECT_GT(disk.rebuild(), 0u);
  disk.try_set_strategy(PlacementKind::kRoundRobin).value_or_throw();
  disk.try_set_scheme(std::make_shared<MirroringScheme>(3)).value_or_throw();
  disk.try_remove_device(9).value_or_throw();
  EXPECT_EQ(writer->last_lsn(), 7u);

  auto recovered = Recovery::recover_disk(ckpt, &wal);
  ASSERT_TRUE(recovered.ok()) << recovered.error().message;
  VirtualDisk& twin = recovered.value().disk;
  const ReplayReport& report = recovered.value().report;
  EXPECT_EQ(report.watermark, 0u);
  EXPECT_EQ(report.records_applied, 7u);
  EXPECT_EQ(report.records_skipped, 0u);
  EXPECT_EQ(report.last_applied, 7u);
  EXPECT_FALSE(report.tail_corrupt);

  EXPECT_TRUE(twin.config() == disk.config());
  EXPECT_EQ(twin.scheme().name(), disk.scheme().name());
  EXPECT_EQ(twin.placement_kind(), disk.placement_kind());
  EXPECT_EQ(twin.block_count(), disk.block_count());
  for (std::uint64_t b = 0; b < 60; ++b) {
    EXPECT_EQ(twin.try_read(b).value_or_throw(), payload(b, 1));
  }
  EXPECT_TRUE(twin.scrub().clean());
}

TEST(Recovery, WatermarkSkipsAlreadyCheckpointedRecords) {
  VirtualDisk disk(base_config(), std::make_shared<MirroringScheme>(2));
  for (std::uint64_t b = 0; b < 20; ++b) {
    disk.try_write(b, payload(b, 2)).value_or_throw();
  }
  std::stringstream wal;
  auto writer = std::make_shared<JournalWriter>(wal);
  disk.set_journal(writer);

  disk.try_add_device({9, 4000, "first"}).value_or_throw();
  disk.fail_device(5);
  // Checkpoint absorbs LSNs 1-2; the old journal keeps all records.
  std::stringstream ckpt;
  write_checkpoint(disk, writer->last_lsn(), ckpt);
  disk.rebuild();
  disk.try_resize_device(9, 5000).value_or_throw();

  auto recovered = Recovery::recover_disk(ckpt, &wal);
  ASSERT_TRUE(recovered.ok()) << recovered.error().message;
  const ReplayReport& report = recovered.value().report;
  EXPECT_EQ(report.watermark, 2u);
  EXPECT_EQ(report.records_skipped, 2u);
  EXPECT_EQ(report.records_applied, 2u);
  EXPECT_EQ(report.last_applied, 4u);
  EXPECT_TRUE(recovered.value().disk.config() == disk.config());
  EXPECT_TRUE(recovered.value().disk.scrub().clean());
}

TEST(Recovery, CheckpointRotatesAndFreshJournalContinues) {
  VirtualDisk disk(base_config(), std::make_shared<MirroringScheme>(2));
  for (std::uint64_t b = 0; b < 20; ++b) {
    disk.try_write(b, payload(b, 3)).value_or_throw();
  }
  std::stringstream wal;
  auto writer = std::make_shared<JournalWriter>(wal);
  disk.set_journal(writer);
  disk.try_add_device({9, 4000, "x"}).value_or_throw();
  disk.fail_device(3);

  std::stringstream ckpt;
  std::stringstream fresh;
  const Lsn watermark = checkpoint(disk, *writer, ckpt, fresh);
  EXPECT_EQ(watermark, 2u);
  disk.rebuild();  // LSN 3 lands in the fresh journal only

  auto recovered = Recovery::recover_disk(ckpt, &fresh);
  ASSERT_TRUE(recovered.ok()) << recovered.error().message;
  EXPECT_EQ(recovered.value().report.records_applied, 1u);
  EXPECT_EQ(recovered.value().report.records_skipped, 0u);
  EXPECT_EQ(recovered.value().report.last_applied, 3u);
  EXPECT_TRUE(recovered.value().disk.config() == disk.config());
  EXPECT_TRUE(recovered.value().disk.scrub().clean());
}

TEST(Recovery, NullJournalRestoresBareSnapshot) {
  VirtualDisk disk(base_config(), std::make_shared<MirroringScheme>(2));
  disk.try_write(1, payload(1, 4)).value_or_throw();
  std::stringstream ckpt;
  write_checkpoint(disk, 0, ckpt);
  auto recovered = Recovery::recover_disk(ckpt, nullptr);
  ASSERT_TRUE(recovered.ok()) << recovered.error().message;
  EXPECT_EQ(recovered.value().disk.try_read(1).value_or_throw(), payload(1, 4));
  EXPECT_EQ(recovered.value().report.records_applied, 0u);
}

TEST(Recovery, StrictModeTurnsTornTailIntoError) {
  VirtualDisk disk(base_config(), std::make_shared<MirroringScheme>(2));
  std::stringstream ckpt;
  write_checkpoint(disk, 0, ckpt);

  std::stringstream wal;
  JournalWriter writer(wal);
  ASSERT_TRUE(writer.append(make_fail_device(5)).ok());
  ASSERT_TRUE(writer.append(make_rebuild()).ok());
  const std::string torn = wal.str().substr(0, wal.str().size() - 3);

  {
    std::stringstream in(torn);
    auto lax = Recovery::recover_disk(ckpt, &in);
    ASSERT_TRUE(lax.ok()) << lax.error().message;
    EXPECT_TRUE(lax.value().report.tail_corrupt);
    EXPECT_EQ(lax.value().report.records_applied, 1u);
    EXPECT_NE(lax.value().report.tail_error.find("lsn=2"),
              std::string::npos);
  }
  {
    ckpt.clear();
    ckpt.seekg(0);
    std::stringstream in(torn);
    auto strict = Recovery::recover_disk(ckpt, &in, {.strict = true});
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.error().code, ErrorCode::kCorruption);
  }
}

TEST(Recovery, ApplyErrorNamesTheRecord) {
  VirtualDisk disk(base_config(), std::make_shared<MirroringScheme>(2));
  std::stringstream ckpt;
  write_checkpoint(disk, 0, ckpt);
  std::stringstream wal;
  JournalWriter writer(wal);
  ASSERT_TRUE(writer.append(make_remove_device(999)).ok());

  auto recovered = Recovery::recover_disk(ckpt, &wal);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.error().code, ErrorCode::kNotFound);
  EXPECT_NE(recovered.error().message.find("record lsn=1"),
            std::string::npos);
  EXPECT_NE(recovered.error().message.find("remove-device"),
            std::string::npos);
}

TEST(Recovery, PoolRecordAgainstDiskIsTypedError) {
  VirtualDisk disk(base_config(), std::make_shared<MirroringScheme>(2));
  std::stringstream ckpt;
  write_checkpoint(disk, 0, ckpt);
  std::stringstream wal;
  JournalWriter writer(wal);
  ASSERT_TRUE(
      writer.append(make_create_volume("v", "mirror(k=2)",
                                       PlacementKind::kRedundantShare))
          .ok());
  auto recovered = Recovery::recover_disk(ckpt, &wal);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.error().code, ErrorCode::kInvalidArgument);
  EXPECT_NE(recovered.error().message.find("pool record"), std::string::npos);
}

TEST(Recovery, PoolLifecycleReplaysToIdenticalState) {
  StoragePool pool(base_config());
  pool.create_volume("keep", std::make_shared<MirroringScheme>(2));
  for (std::uint64_t b = 0; b < 40; ++b) {
    pool.volume("keep")->try_write(b, payload(b, 6)).value_or_throw();
  }
  std::stringstream ckpt;
  write_checkpoint(pool, 0, ckpt);
  std::stringstream wal;
  auto writer = std::make_shared<JournalWriter>(wal);
  pool.set_journal(writer);

  pool.try_add_device({9, 4000, "late"}).value_or_throw();
  pool.create_volume("scratch", std::make_shared<ReedSolomonScheme>(3, 2),
                     PlacementKind::kRoundRobin);
  pool.try_resize_device(9, 5000).value_or_throw();
  pool.try_set_volume_strategy("keep", PlacementKind::kFastRedundantShare)
      .value_or_throw();
  pool.try_set_volume_scheme("keep", std::make_shared<MirroringScheme>(3))
      .value_or_throw();
  pool.fail_device(5);
  pool.rebuild();
  pool.drop_volume("scratch");

  auto recovered = Recovery::recover_pool(ckpt, &wal);
  ASSERT_TRUE(recovered.ok()) << recovered.error().message;
  StoragePool& twin = recovered.value().pool;
  EXPECT_EQ(twin.volume_count(), pool.volume_count());
  EXPECT_TRUE(twin.config() == pool.config());
  EXPECT_FALSE(twin.has_volume("scratch"));
  EXPECT_EQ(twin.volume("keep")->scheme().name(), "mirror(k=3)");
  EXPECT_EQ(twin.volume("keep")->placement_kind(),
            PlacementKind::kFastRedundantShare);
  for (std::uint64_t b = 0; b < 40; ++b) {
    EXPECT_EQ(twin.volume("keep")->try_read(b).value_or_throw(),
              payload(b, 6));
  }
  EXPECT_TRUE(twin.volume("keep")->scrub().clean());
}

// A replayed edit fails with the ErrorCode its live call returns, for a
// disk and a pool alike: resizing a failed device is kDeviceFailed.
TEST(Recovery, PoolReplayKeepsTheEditsErrorCode) {
  const ClusterConfig four(
      {{1, 1000, "a"}, {2, 1000, "b"}, {3, 1000, "c"}, {4, 1000, "d"}});
  std::stringstream wal;
  {
    JournalWriter writer(wal);
    ASSERT_TRUE(writer.append(make_fail_device(2)).ok());
    ASSERT_TRUE(writer.append(make_resize_device(2, 2000)).ok());
  }
  const std::string journal = wal.str();

  VirtualDisk disk(four, std::make_shared<MirroringScheme>(2));
  std::stringstream disk_ckpt;
  write_checkpoint(disk, 0, disk_ckpt);
  std::stringstream disk_wal(journal);
  auto disk_replay = Recovery::recover_disk(disk_ckpt, &disk_wal);
  ASSERT_FALSE(disk_replay.ok());
  EXPECT_EQ(disk_replay.error().code, ErrorCode::kDeviceFailed)
      << disk_replay.error().message;

  StoragePool pool(four);
  pool.create_volume("v", std::make_shared<MirroringScheme>(2));
  std::stringstream pool_ckpt;
  write_checkpoint(pool, 0, pool_ckpt);
  std::stringstream pool_wal(journal);
  auto pool_replay = Recovery::recover_pool(pool_ckpt, &pool_wal);
  ASSERT_FALSE(pool_replay.ok());
  EXPECT_EQ(pool_replay.error().code, ErrorCode::kDeviceFailed)
      << pool_replay.error().message;
  EXPECT_NE(pool_replay.error().message.find("lsn=2"), std::string::npos)
      << pool_replay.error().message;
}

TEST(Recovery, FileStoreMutationsReplayByteIdentical) {
  FileStore store(
      VirtualDisk(base_config(), std::make_shared<MirroringScheme>(2)), 64);
  store.put("seed", payload(1, 7));
  std::stringstream ckpt;
  write_checkpoint(store, 0, ckpt);
  std::stringstream wal;
  auto writer = std::make_shared<JournalWriter>(wal);
  store.set_journal(writer);

  // Content mutations interleaved with topology: remove frees blocks the
  // next put re-allocates, so replay must reproduce the allocator walk.
  store.put("a", payload(2, 7));
  store.put("b", payload(3, 7));
  ASSERT_TRUE(store.remove("a"));
  store.put("c", payload(4, 7));
  store.put("b", payload(5, 7));  // replace
  store.disk().try_add_device({9, 4000, "late"}).value_or_throw();
  store.disk().fail_device(5);
  store.disk().rebuild();

  auto recovered = Recovery::recover_file_store(ckpt, &wal);
  ASSERT_TRUE(recovered.ok()) << recovered.error().message;
  FileStore& twin = recovered.value().store;
  EXPECT_EQ(twin.file_count(), store.file_count());
  EXPECT_FALSE(twin.contains("a"));
  EXPECT_EQ(twin.try_get("seed").value_or_throw(),
            store.try_get("seed").value_or_throw());
  EXPECT_EQ(twin.try_get("b").value_or_throw(),
            store.try_get("b").value_or_throw());
  EXPECT_EQ(twin.try_get("c").value_or_throw(),
            store.try_get("c").value_or_throw());
  EXPECT_TRUE(twin.disk().config() == store.disk().config());
  EXPECT_TRUE(twin.disk().scrub().clean());
}

// tests/data/golden_journal.wal is the version 2 twin of the version 1
// tests/data/parent_journal.wal: on a 3-device mirror(2) FileStore with
// 64-byte blocks, it holds add device 4 (400), resize device 3 to 500, and
// puts of alpha, beta and gamma, each with its XXH64 fingerprint, which
// replay checks.  It replays over a checkpoint of that store, fresh, at
// watermark 0.
TEST(Recovery, CommittedJournalReplaysIntoFreshFileStore) {
  std::ifstream wal(RDS_TEST_DATA_DIR "/golden_journal.wal", std::ios::binary);
  ASSERT_TRUE(wal) << "missing " RDS_TEST_DATA_DIR "/golden_journal.wal";
  const FileStore fresh(VirtualDisk(ClusterConfig({{1, 300, "a"},
                                                   {2, 300, "b"},
                                                   {3, 200, "c"}}),
                                    std::make_shared<MirroringScheme>(2)),
                        64);
  std::stringstream ckpt;
  write_checkpoint(fresh, 0, ckpt);
  auto recovered =
      Recovery::recover_file_store(ckpt, &wal, RecoveryOptions{.strict = true});
  ASSERT_TRUE(recovered.ok()) << recovered.error().message;
  EXPECT_EQ(recovered.value().report.records_applied, 5u);
  EXPECT_FALSE(recovered.value().report.tail_corrupt);
  FileStore& store = recovered.value().store;

  const ClusterConfig& config = store.disk().config();
  const auto capacity = [&](DeviceId uid) -> std::uint64_t {
    const std::optional<std::size_t> i = config.index_of(uid);
    return i ? config.devices()[*i].capacity : 0;
  };
  EXPECT_EQ(capacity(4), 400u);
  EXPECT_EQ(capacity(3), 500u);
  EXPECT_EQ(store.file_count(), 3u);
  EXPECT_EQ(store.try_get("alpha").value_or_throw(), pattern(100, 1));
  EXPECT_EQ(store.try_get("beta").value_or_throw(), pattern(64, 2));
  EXPECT_EQ(store.try_get("gamma").value_or_throw(), pattern(150, 3));
  EXPECT_TRUE(store.disk().scrub().clean());
}

// A checkpoint restores a committed state only with a journal that
// continues it.  Checkpoint A (watermark 1) rotates onto journal J2 and
// checkpoint B (watermark 3) onto J3.  A with J3 would hold a and d but
// not b and c, a state that was never committed, so recovery refuses it,
// in strict and lax mode alike, and before J3 holds any record too.  A
// with J2, B with J3 and B with J2 (every record skipped) recover.
TEST(Recovery, JournalStartingPastTheWatermarkIsRefused) {
  FileStore store(
      VirtualDisk(base_config(), std::make_shared<MirroringScheme>(2)), 64);
  std::stringstream j1;
  auto writer = std::make_shared<JournalWriter>(j1);
  store.set_journal(writer);
  store.put("a", pattern(100, 1));
  std::stringstream ckpt_a;
  std::stringstream j2;
  ASSERT_EQ(checkpoint(store, *writer, ckpt_a, j2), 1u);
  store.put("b", pattern(70, 2));
  store.put("c", pattern(90, 3));
  std::stringstream ckpt_b;
  std::stringstream j3;
  ASSERT_EQ(checkpoint(store, *writer, ckpt_b, j3), 3u);
  const std::string j3_empty = j3.str();
  store.put("d", pattern(50, 4));

  const auto recover = [](const std::stringstream& ckpt,
                          const std::string& wal_bytes, bool strict) {
    std::istringstream ckpt_in(ckpt.str());
    std::istringstream wal(wal_bytes);
    return Recovery::recover_file_store(ckpt_in, &wal,
                                        RecoveryOptions{.strict = strict});
  };
  for (const bool strict : {true, false}) {
    for (const std::string& wal : {j3.str(), j3_empty}) {
      auto refused = recover(ckpt_a, wal, strict);
      ASSERT_FALSE(refused.ok()) << "strict=" << strict;
      EXPECT_EQ(refused.error().code, ErrorCode::kCorruption);
      EXPECT_EQ(refused.error().message,
                "journal starts at lsn 4 but the checkpoint's watermark is 1: "
                "records lsn=2..3 are missing");
    }
  }

  const auto expect_files = [](const FileStore& twin,
                               const std::vector<std::string>& names) {
    EXPECT_EQ(twin.file_count(), names.size());
    for (const std::string& name : names) EXPECT_TRUE(twin.contains(name));
  };
  auto a2 = recover(ckpt_a, j2.str(), true);
  ASSERT_TRUE(a2.ok()) << a2.error().message;
  EXPECT_EQ(a2.value().report.last_applied, 3u);
  expect_files(a2.value().store, {"a", "b", "c"});

  auto b3 = recover(ckpt_b, j3.str(), true);
  ASSERT_TRUE(b3.ok()) << b3.error().message;
  EXPECT_EQ(b3.value().report.last_applied, 4u);
  expect_files(b3.value().store, {"a", "b", "c", "d"});
  EXPECT_EQ(b3.value().store.try_get("d").value_or_throw(), pattern(50, 4));

  auto b2 = recover(ckpt_b, j2.str(), true);
  ASSERT_TRUE(b2.ok()) << b2.error().message;
  EXPECT_EQ(b2.value().report.records_skipped, 2u);
  EXPECT_EQ(b2.value().report.records_applied, 0u);
  EXPECT_EQ(b2.value().report.last_applied, 3u);
  expect_files(b2.value().store, {"a", "b", "c"});
}

// tests/data/golden_disk.ckpt, watermark 5: a reed-solomon(3+2) disk on
// base_config() holding blocks 0-23, block b being pattern(40 + 7b, b),
// saved with device 6 failed and fragment 0 of block 3 (on device 1)
// rotten under its recorded CRC.
TEST(Recovery, CommittedDiskCheckpointRestoresFailureAndRot) {
  std::ifstream ckpt(RDS_TEST_DATA_DIR "/golden_disk.ckpt", std::ios::binary);
  ASSERT_TRUE(ckpt) << "missing " RDS_TEST_DATA_DIR "/golden_disk.ckpt";
  auto recovered = Recovery::recover_disk(ckpt, nullptr);
  ASSERT_TRUE(recovered.ok()) << recovered.error().message;
  EXPECT_EQ(recovered.value().report.watermark, 5u);
  VirtualDisk& disk = recovered.value().disk;
  EXPECT_TRUE(disk.config() == base_config());
  EXPECT_EQ(disk.scheme().name(), "reed-solomon(3+2)");
  EXPECT_EQ(disk.placement_kind(), PlacementKind::kRedundantShare);
  EXPECT_EQ(disk.block_count(), 24u);
  for (std::uint64_t b = 0; b < 24; ++b) {
    EXPECT_EQ(disk.try_read(b).value_or_throw(),
              pattern(40 + 7 * b, static_cast<std::uint8_t>(b)))
        << "block " << b;
  }
  // The rotten fragment still fails its CRC; device 6's fragments are
  // missing, not corrupt.
  EXPECT_EQ(disk.stats().checksum_failures, 1u);
  EXPECT_FALSE(disk.scrub().clean());
  // Device 6 comes back failed: rebuild drops it.
  EXPECT_GT(disk.rebuild(), 0u);
  EXPECT_FALSE(disk.config().contains(6));
  disk.repair();
  EXPECT_TRUE(disk.scrub().clean());
}

// tests/data/golden_pool.ckpt, watermark 11: a pool on base_config() with
// volume "mirror" (mirror(k=2), redundant-share; block b is
// pattern(30 + 5b, b + 50)) and volume "evenodd" (evenodd(p=3),
// fast-redundant-share; block b is pattern(60 + 9b, b + 90)), blocks 0-15.
TEST(Recovery, CommittedPoolCheckpointRestoresEveryVolume) {
  std::ifstream ckpt(RDS_TEST_DATA_DIR "/golden_pool.ckpt", std::ios::binary);
  ASSERT_TRUE(ckpt) << "missing " RDS_TEST_DATA_DIR "/golden_pool.ckpt";
  auto recovered = Recovery::recover_pool(ckpt, nullptr);
  ASSERT_TRUE(recovered.ok()) << recovered.error().message;
  EXPECT_EQ(recovered.value().report.watermark, 11u);
  StoragePool& pool = recovered.value().pool;
  EXPECT_TRUE(pool.config() == base_config());
  ASSERT_EQ(pool.volume_count(), 2u);
  VirtualDisk& mirror = *pool.volume("mirror");
  VirtualDisk& evenodd = *pool.volume("evenodd");
  EXPECT_EQ(mirror.scheme().name(), "mirror(k=2)");
  EXPECT_EQ(mirror.placement_kind(), PlacementKind::kRedundantShare);
  EXPECT_EQ(evenodd.scheme().name(), "evenodd(p=3)");
  EXPECT_EQ(evenodd.placement_kind(), PlacementKind::kFastRedundantShare);
  for (std::uint64_t b = 0; b < 16; ++b) {
    const auto salt = static_cast<std::uint8_t>(b);
    EXPECT_EQ(mirror.try_read(b).value_or_throw(),
              pattern(30 + 5 * b, salt + 50))
        << "block " << b;
    EXPECT_EQ(evenodd.try_read(b).value_or_throw(),
              pattern(60 + 9 * b, salt + 90))
        << "block " << b;
  }
  EXPECT_EQ(mirror.block_count(), 16u);
  EXPECT_EQ(evenodd.block_count(), 16u);
  EXPECT_TRUE(mirror.scrub().clean());
  EXPECT_TRUE(evenodd.scrub().clean());
}

// tests/data/golden_files.ckpt, watermark 23: a FileStore with 64-byte
// blocks on a mirror(k=2) disk over base_config().  "alpha" (200 bytes)
// was put and removed, then "beta" (pattern(64, 2)), "gamma"
// (pattern(100, 3)) and the empty file "empty" were put, so two of
// alpha's blocks sit on the free list.
TEST(Recovery, CommittedFileStoreCheckpointRestoresEveryFile) {
  std::ifstream ckpt(RDS_TEST_DATA_DIR "/golden_files.ckpt", std::ios::binary);
  ASSERT_TRUE(ckpt) << "missing " RDS_TEST_DATA_DIR "/golden_files.ckpt";
  auto recovered = Recovery::recover_file_store(ckpt, nullptr);
  ASSERT_TRUE(recovered.ok()) << recovered.error().message;
  EXPECT_EQ(recovered.value().report.watermark, 23u);
  FileStore& store = recovered.value().store;
  EXPECT_EQ(store.block_size(), 64u);
  EXPECT_EQ(store.disk().scheme().name(), "mirror(k=2)");
  EXPECT_EQ(store.file_count(), 3u);
  EXPECT_FALSE(store.contains("alpha"));
  const auto expect_files = [&] {
    EXPECT_EQ(store.try_get("beta").value_or_throw(), pattern(64, 2));
    EXPECT_EQ(store.try_get("gamma").value_or_throw(), pattern(100, 3));
    EXPECT_EQ(store.try_get("empty").value_or_throw(), Bytes{});
  };
  expect_files();
  EXPECT_TRUE(store.disk().scrub().clean());
  // The block allocator comes back with the files: a new file takes the
  // free blocks and fresh ones without overwriting any block in use.
  store.put("delta", pattern(300, 4));
  expect_files();
  EXPECT_EQ(store.try_get("delta").value_or_throw(), pattern(300, 4));
}

TEST(Recovery, FilePutFingerprintMismatchIsCorruption) {
  FileStore store(
      VirtualDisk(base_config(), std::make_shared<MirroringScheme>(2)), 64);
  std::stringstream ckpt;
  write_checkpoint(store, 0, ckpt);

  Record forged = make_file_put("evil", payload(1, 8));
  forged.content_hash ^= 1;  // payload no longer matches its fingerprint
  std::stringstream wal;
  JournalWriter writer(wal);
  ASSERT_TRUE(writer.append(forged).ok());

  auto recovered = Recovery::recover_file_store(ckpt, &wal);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.error().code, ErrorCode::kCorruption);
  EXPECT_NE(recovered.error().message.find("fingerprint mismatch"),
            std::string::npos);
}

TEST(Recovery, CorruptCheckpointBodyIsCorruption) {
  VirtualDisk disk(base_config(), std::make_shared<MirroringScheme>(2));
  disk.try_write(1, payload(1, 9)).value_or_throw();
  std::stringstream full;
  write_checkpoint(disk, 0, full);
  const std::string bytes = full.str();
  std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
  auto recovered = Recovery::recover_disk(truncated, nullptr);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.error().code, ErrorCode::kCorruption);
  EXPECT_NE(recovered.error().message.find("checkpoint"), std::string::npos);
}

// PlacementKind values are the checkpoint's one-byte strategy tag
// (src/placement/strategy_factory.hpp): every kind must come back as
// itself, with every block readable.
TEST(Recovery, EveryPlacementKindRestoresAsItself) {
  for (const PlacementKind kind : all_placement_kinds()) {
    SCOPED_TRACE(std::string(to_string(kind)));
    VirtualDisk disk(base_config(), std::make_shared<MirroringScheme>(2),
                     kind);
    for (std::uint64_t b = 0; b < 40; ++b) {
      disk.try_write(b, payload(b, 11)).value_or_throw();
    }
    std::stringstream ckpt;
    write_checkpoint(disk, 0, ckpt);

    auto recovered = Recovery::recover_disk(ckpt, nullptr);
    ASSERT_TRUE(recovered.ok()) << recovered.error().message;
    VirtualDisk& twin = recovered.value().disk;
    EXPECT_EQ(twin.placement_kind(), kind);
    for (std::uint64_t b = 0; b < 40; ++b) {
      EXPECT_EQ(twin.try_read(b).value_or_throw(), payload(b, 11))
          << "block " << b;
    }
  }
}

// Byte 4 was the retired O(k n^2) precomputed strategy.  A checkpoint that
// carries it must fail to restore, never come back as another strategy.
TEST(Recovery, RetiredPrecomputedKindByteIsCorruption) {
  const auto checkpoint_of = [](PlacementKind kind) {
    VirtualDisk disk(base_config(), std::make_shared<MirroringScheme>(2),
                     kind);
    std::stringstream out;
    write_checkpoint(disk, 0, out);
    return out.str();
  };
  // Two empty disks differ only in the strategy byte.
  std::string bytes = checkpoint_of(PlacementKind::kTrivialRing);
  const std::string other = checkpoint_of(PlacementKind::kRedundantShare);
  ASSERT_EQ(bytes.size(), other.size());
  std::vector<std::size_t> differ;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    if (bytes[i] != other[i]) differ.push_back(i);
  }
  ASSERT_EQ(differ.size(), 1u);
  EXPECT_EQ(bytes[differ[0]], 5);
  EXPECT_EQ(other[differ[0]], 0);

  bytes[differ[0]] = 4;
  std::stringstream ckpt(bytes);
  auto recovered = Recovery::recover_disk(ckpt, nullptr);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.error().code, ErrorCode::kCorruption);
}

TEST(Recovery, RetiredPrecomputedStrategyRecordIsCorruption) {
  VirtualDisk disk(base_config(), std::make_shared<MirroringScheme>(2));
  std::stringstream ckpt;
  write_checkpoint(disk, 0, ckpt);
  Record retired = make_set_strategy("", PlacementKind::kRedundantShare);
  retired.detail = "precomputed";
  std::stringstream wal;
  JournalWriter writer(wal);
  ASSERT_TRUE(writer.append(retired).ok());

  auto recovered = Recovery::recover_disk(ckpt, &wal);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.error().code, ErrorCode::kCorruption);
  EXPECT_NE(recovered.error().message.find("unknown placement kind"),
            std::string::npos)
      << recovered.error().message;
}

}  // namespace
}  // namespace rds::journal
