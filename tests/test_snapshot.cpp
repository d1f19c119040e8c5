#include "src/storage/snapshot.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "src/storage/erasure/evenodd.hpp"
#include "src/storage/erasure/rdp.hpp"
#include "src/util/random.hpp"

namespace rds {
namespace {

ClusterConfig pool_config() {
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

// `v` as the snapshot writes it: `width` little-endian bytes.
std::string little_endian(std::uint64_t v, int width) {
  std::string out;
  for (int i = 0; i < width; ++i) {
    out.push_back(static_cast<char>(v >> (8 * i)));
  }
  return out;
}

TEST(SchemeFactory, RoundTripsEveryScheme) {
  for (const auto& name :
       {std::string("mirror(k=3)"), std::string("reed-solomon(4+2)"),
        std::string("evenodd(p=5)"), std::string("rdp(p=7)")}) {
    const auto scheme = make_scheme_from_name(name);
    EXPECT_EQ(scheme->name(), name);
  }
  EXPECT_THROW((void)make_scheme_from_name("raid0"), std::invalid_argument);
  EXPECT_THROW((void)make_scheme_from_name("mirror(k=x)"),
               std::invalid_argument);
}

TEST(Snapshot, DiskRoundTrip) {
  VirtualDisk disk(pool_config(), std::make_shared<ReedSolomonScheme>(3, 2));
  for (std::uint64_t b = 0; b < 200; ++b) {
    disk.try_write(b, payload(b, 1)).value_or_throw();
  }

  std::stringstream stream;
  Snapshot::save_disk(disk, stream);
  VirtualDisk restored = Snapshot::load_disk(stream);

  EXPECT_EQ(restored.block_count(), 200u);
  EXPECT_EQ(restored.scheme().name(), "reed-solomon(3+2)");
  EXPECT_TRUE(restored.config() == disk.config());
  for (std::uint64_t b = 0; b < 200; ++b) {
    EXPECT_EQ(restored.try_read(b).value_or_throw(), payload(b, 1));
  }
  EXPECT_TRUE(restored.scrub().clean());
  // The restored disk is fully operational: reshape and rebuild work.
  restored.try_add_device({9, 4000, "post-restore"}).value_or_throw();
  EXPECT_EQ(restored.try_read(7).value_or_throw(), payload(7, 1));
}

TEST(Snapshot, DegradedStateSurvivesRoundTrip) {
  VirtualDisk disk(pool_config(), std::make_shared<MirroringScheme>(2));
  for (std::uint64_t b = 0; b < 100; ++b) {
    disk.try_write(b, payload(b, 2)).value_or_throw();
  }
  disk.fail_device(2);

  std::stringstream stream;
  Snapshot::save_disk(disk, stream);
  VirtualDisk restored = Snapshot::load_disk(stream);

  // Still degraded after restore; rebuild heals it.
  EXPECT_FALSE(restored.scrub().clean());
  EXPECT_GT(restored.rebuild(), 0u);
  for (std::uint64_t b = 0; b < 100; ++b) {
    EXPECT_EQ(restored.try_read(b).value_or_throw(), payload(b, 2));
  }
  EXPECT_TRUE(restored.scrub().clean());
}

TEST(Snapshot, ChecksumsSurviveRoundTrip) {
  {
    VirtualDisk disk(pool_config(), std::make_shared<MirroringScheme>(3));
    disk.try_write(5, payload(5, 3)).value_or_throw();
    std::stringstream stream;
    Snapshot::save_disk(disk, stream);
    VirtualDisk restored = Snapshot::load_disk(stream);
    // Corrupt one restored fragment: the restored checksums must catch it.
    ASSERT_TRUE(restored.corrupt_fragment(5, 0));
    EXPECT_EQ(restored.try_read(5).value_or_throw(), payload(5, 3));
    EXPECT_EQ(restored.stats().checksum_failures, 1u);
  }
  {
    // A pool volume's CRCs live in the shared stores and survive with them.
    StoragePool pool(pool_config());
    pool.create_volume("a", std::make_shared<MirroringScheme>(2));
    pool.create_volume("b", std::make_shared<MirroringScheme>(3));
    pool.volume("a")->try_write(5, payload(5, 4)).value_or_throw();
    pool.volume("b")->try_write(5, payload(5, 5)).value_or_throw();
    std::stringstream stream;
    Snapshot::save_pool(pool, stream);
    StoragePool restored = Snapshot::load_pool(stream);
    VirtualDisk& second = *restored.volume("b");
    ASSERT_TRUE(second.corrupt_fragment(5, 0));
    EXPECT_EQ(second.try_read(5).value_or_throw(), payload(5, 5));
    EXPECT_EQ(second.stats().checksum_failures, 1u);
  }
  {
    // Rot inside the snapshot file: the loader keeps each stored CRC
    // rather than sealing the bytes afresh, so the read catches it.
    VirtualDisk disk(pool_config(), std::make_shared<MirroringScheme>(3));
    const Bytes data = payload(5, 3);
    disk.try_write(5, data).value_or_throw();
    std::stringstream stream;
    Snapshot::save_disk(disk, stream);
    std::string bytes = stream.str();
    // Copy 0's entry: block u64, fragment u32, volume u32, crc u32,
    // length u64, then the bytes.
    const std::string entry =
        little_endian(5, 8) + little_endian(0, 4) + little_endian(0, 4) +
        little_endian(Fragment::seal(data).crc, 4) +
        little_endian(data.size(), 8);
    const std::size_t at = bytes.find(entry);
    ASSERT_NE(at, std::string::npos);
    bytes[at + entry.size() + data.size() / 2] ^= 0x01;
    std::stringstream rotten(bytes);
    VirtualDisk restored = Snapshot::load_disk(rotten);
    EXPECT_EQ(restored.try_read(5).value_or_throw(), data);
    EXPECT_EQ(restored.stats().checksum_failures, 1u);
  }
}

TEST(Snapshot, PoolRoundTrip) {
  StoragePool pool(pool_config());
  pool.create_volume("a", std::make_shared<MirroringScheme>(2));
  pool.create_volume("b", std::make_shared<EvenOddScheme>(3));
  for (std::uint64_t blk = 0; blk < 120; ++blk) {
    pool.volume("a")->try_write(blk, payload(blk, 10)).value_or_throw();
    pool.volume("b")->try_write(blk, payload(blk, 20)).value_or_throw();
  }

  std::stringstream stream;
  Snapshot::save_pool(pool, stream);
  StoragePool restored = Snapshot::load_pool(stream);

  EXPECT_EQ(restored.volume_count(), 2u);
  for (std::uint64_t blk = 0; blk < 120; ++blk) {
    EXPECT_EQ(restored.volume("a")->try_read(blk).value_or_throw(),
              payload(blk, 10));
    EXPECT_EQ(restored.volume("b")->try_read(blk).value_or_throw(),
              payload(blk, 20));
  }
  EXPECT_TRUE(restored.volume("a")->scrub().clean());
  EXPECT_TRUE(restored.volume("b")->scrub().clean());

  // Volumes still share stores: pool-wide failure degrades both.
  restored.fail_device(1);
  EXPECT_GT(restored.rebuild(), 0u);
  EXPECT_EQ(restored.volume("a")->try_read(3).value_or_throw(), payload(3, 10));
  // New volumes get fresh ids (the counter was persisted).
  VirtualDisk& c =
      *restored.create_volume("c", std::make_shared<MirroringScheme>(2));
  EXPECT_NE(c.volume_id(), restored.volume("a")->volume_id());
  EXPECT_NE(c.volume_id(), restored.volume("b")->volume_id());
}

TEST(Snapshot, RejectsGarbage) {
  std::stringstream empty;
  EXPECT_THROW((void)Snapshot::load_disk(empty), std::runtime_error);
  std::stringstream wrong("POOLRDS1xxxxxxxxxxxxxxxx");
  EXPECT_THROW((void)Snapshot::load_disk(wrong), std::runtime_error);

  // Truncated stream: valid header, missing body.
  VirtualDisk disk(pool_config(), std::make_shared<MirroringScheme>(2));
  disk.try_write(1, payload(1, 1)).value_or_throw();
  std::stringstream stream;
  Snapshot::save_disk(disk, stream);
  const std::string full = stream.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW((void)Snapshot::load_disk(truncated), std::runtime_error);
}

// Version 2 streams kept fragment CRCs in a per-volume table, and version
// 1 streams stored FNV-1a checksums.  The loaders refuse both and say which
// version they got.
TEST(Snapshot, RejectsVersionOneStreamsNamingTheVersion) {
  const auto expect_rejected = [](std::string bytes, const std::string& kind,
                                  const auto& load) {
    for (const char version : {'1', '2'}) {
      const std::string old_magic = kind + version;
      bytes.replace(0, 8, old_magic);
      std::stringstream stream(bytes);
      try {
        load(stream);
        ADD_FAILURE() << old_magic << " stream was accepted";
      } catch (const std::runtime_error& e) {
        const std::string message = e.what();
        EXPECT_NE(message.find(old_magic), std::string::npos) << message;
        EXPECT_NE(message.find(std::string("version ") + version),
                  std::string::npos)
            << message;
      }
    }
  };

  VirtualDisk disk(pool_config(), std::make_shared<MirroringScheme>(2));
  disk.try_write(1, payload(1, 1)).value_or_throw();
  std::stringstream disk_stream;
  Snapshot::save_disk(disk, disk_stream);
  EXPECT_EQ(disk_stream.str().substr(0, 8), "RDSDISK3");
  expect_rejected(disk_stream.str(), "RDSDISK", [](std::istream& in) {
    (void)Snapshot::load_disk(in);
  });

  StoragePool pool(pool_config());
  pool.create_volume("a", std::make_shared<MirroringScheme>(2));
  std::stringstream pool_stream;
  Snapshot::save_pool(pool, pool_stream);
  EXPECT_EQ(pool_stream.str().substr(0, 8), "RDSPOOL3");
  expect_rejected(pool_stream.str(), "RDSPOOL", [](std::istream& in) {
    (void)Snapshot::load_pool(in);
  });

  const FileStore files(
      VirtualDisk(pool_config(), std::make_shared<MirroringScheme>(2)));
  std::stringstream files_stream;
  Snapshot::save_file_store(files, files_stream);
  EXPECT_EQ(files_stream.str().substr(0, 8), "RDSFSTO3");
  expect_rejected(files_stream.str(), "RDSFSTO", [](std::istream& in) {
    (void)Snapshot::load_file_store(in);
  });
}

// A length or count field is only a claim until its bytes arrive: the
// loaders read in bounded chunks and grow lists per element, so a corrupt
// claim fails as a truncated stream instead of allocating what it says.
TEST(Snapshot, CorruptLengthsFailAsTruncatedStreams) {
  const auto expect_truncated = [](const std::string& bytes,
                                   const auto& load) {
    std::stringstream stream(bytes);
    try {
      load(stream);
      ADD_FAILURE() << "stream was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
          << e.what();
    }
  };
  const std::string claim = little_endian(std::uint64_t{1} << 40, 8);

  // A fragment length that claims 1 TiB over 80 bytes of payload.
  VirtualDisk disk(pool_config(), std::make_shared<MirroringScheme>(2));
  const Bytes data = payload(1, 1);
  disk.try_write(1, data).value_or_throw();
  std::stringstream disk_stream;
  Snapshot::save_disk(disk, disk_stream);
  std::string bytes = disk_stream.str();
  const std::size_t at = bytes.find(std::string(data.begin(), data.end()));
  ASSERT_NE(at, std::string::npos);
  bytes.replace(at - 8, 8, claim);  // the u64 length before the bytes
  expect_truncated(bytes,
                   [](std::istream& in) { (void)Snapshot::load_disk(in); });

  // A FileStore free list that claims 2^40 block ids.
  const FileStore files(
      VirtualDisk(pool_config(), std::make_shared<MirroringScheme>(2)));
  std::stringstream files_stream;
  Snapshot::save_file_store(files, files_stream);
  bytes = files_stream.str();
  // Magic, block size u64 and next block u64 come before the count.
  bytes.replace(24, 8, claim);
  expect_truncated(bytes, [](std::istream& in) {
    (void)Snapshot::load_file_store(in);
  });
}

}  // namespace
}  // namespace rds
