#include "src/storage/file_store.hpp"

#include <gtest/gtest.h>

#include <string>

#include "src/util/random.hpp"

namespace rds {
namespace {

FileStore make_store(unsigned k = 2, std::size_t block_size = 64) {
  const ClusterConfig pool({{1, 4000, ""},
                            {2, 3000, ""},
                            {3, 2000, ""},
                            {4, 2000, ""},
                            {5, 1000, ""}});
  return FileStore(
      VirtualDisk(pool, std::make_shared<MirroringScheme>(k)), block_size);
}

Bytes bytes_of(const std::string& s) { return Bytes(s.begin(), s.end()); }

TEST(FileStore, PutGetRoundTrip) {
  FileStore store = make_store();
  store.put("hello.txt", bytes_of("hello, world"));
  const auto content = store.try_get("hello.txt").value_or_throw();
  ASSERT_TRUE(content.has_value());
  EXPECT_EQ(*content, bytes_of("hello, world"));
  EXPECT_TRUE(store.contains("hello.txt"));
  EXPECT_FALSE(store.try_get("absent").value_or_throw().has_value());
}

TEST(FileStore, MultiBlockFiles) {
  FileStore store = make_store(2, 16);
  Bytes big(1000);
  Xoshiro256 rng(8);
  for (auto& b : big) b = static_cast<std::uint8_t>(rng());
  store.put("big.bin", big);
  EXPECT_EQ(store.try_get("big.bin").value_or_throw(), big);
  const auto listing = store.list();
  ASSERT_EQ(listing.size(), 1u);
  EXPECT_EQ(listing[0].size, 1000u);
  EXPECT_EQ(listing[0].blocks, (1000u + 15) / 16);
}

TEST(FileStore, EmptyFile) {
  FileStore store = make_store();
  store.put("empty", {});
  const auto content = store.try_get("empty").value_or_throw();
  ASSERT_TRUE(content.has_value());
  EXPECT_TRUE(content->empty());
}

TEST(FileStore, ReplaceReleasesOldBlocks) {
  FileStore store = make_store(2, 16);
  store.put("f", Bytes(1600, 1));  // 100 blocks
  const std::uint64_t blocks_after_first = store.disk().block_count();
  store.put("f", Bytes(160, 2));  // 10 blocks
  EXPECT_EQ(store.disk().block_count(), blocks_after_first - 90);
  EXPECT_EQ(*store.try_get("f").value_or_throw(), Bytes(160, 2));
}

TEST(FileStore, RemoveFreesAndReuses) {
  FileStore store = make_store(2, 16);
  store.put("a", Bytes(320, 3));
  const std::uint64_t used = store.disk().block_count();
  EXPECT_TRUE(store.remove("a"));
  EXPECT_FALSE(store.remove("a"));
  EXPECT_EQ(store.disk().block_count(), used - 20);
  // Freed addresses are reused.
  store.put("b", Bytes(320, 4));
  EXPECT_EQ(store.disk().block_count(), used);
  EXPECT_EQ(*store.try_get("b").value_or_throw(), Bytes(320, 4));
}

TEST(FileStore, SurvivesDeviceFailureAndRebuild) {
  FileStore store = make_store(3, 32);
  Xoshiro256 rng(12);
  for (int f = 0; f < 20; ++f) {
    Bytes data(100 + rng.next_below(400));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng());
    store.put("file-" + std::to_string(f), data);
  }
  store.disk().fail_device(1);  // biggest device
  // Readable degraded.
  EXPECT_TRUE(store.try_get("file-7").value_or_throw().has_value());
  EXPECT_GT(store.disk().rebuild(), 0u);
  for (int f = 0; f < 20; ++f) {
    EXPECT_TRUE(store.try_get("file-" + std::to_string(f))
                    .value_or_throw()
                    .has_value());
  }
  EXPECT_TRUE(store.disk().scrub().clean());
}

TEST(FileStore, SurvivesPoolReshape) {
  FileStore store = make_store(2, 32);
  store.put("keep", Bytes(500, 9));
  store.disk().try_add_device({9, 5000, "new"}).value_or_throw();
  store.disk().try_remove_device(5).value_or_throw();
  EXPECT_EQ(*store.try_get("keep").value_or_throw(), Bytes(500, 9));
  EXPECT_TRUE(store.disk().scrub().clean());
}

TEST(FileStore, ListIsSorted) {
  FileStore store = make_store();
  store.put("b", bytes_of("2"));
  store.put("a", bytes_of("1"));
  store.put("c", bytes_of("3"));
  const auto listing = store.list();
  ASSERT_EQ(listing.size(), 3u);
  EXPECT_EQ(listing[0].name, "a");
  EXPECT_EQ(listing[2].name, "c");
}

TEST(FileStore, TryGetReturnsNulloptForAbsentFiles) {
  FileStore store = make_store();
  store.put("present", bytes_of("x"));
  auto hit = store.try_get("present");
  ASSERT_TRUE(hit.ok()) << hit.error().message;
  ASSERT_TRUE(hit.value().has_value());
  EXPECT_EQ(*hit.value(), bytes_of("x"));

  auto miss = store.try_get("absent");
  ASSERT_TRUE(miss.ok()) << miss.error().message;  // absence is not an error
  EXPECT_FALSE(miss.value().has_value());
}

TEST(FileStore, TryGetSurfacesUnreadableBlocksAsTypedErrors) {
  // mirror(k=2): losing every device makes the file unreadable; try_get
  // must say which block failed, not throw.
  FileStore store = make_store(2, 32);
  store.put("doomed", Bytes(96, 5));
  for (DeviceId uid = 1; uid <= 5; ++uid) store.disk().fail_device(uid);
  auto result = store.try_get("doomed");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kUnrecoverable);
  EXPECT_NE(result.error().message.find("'doomed'"), std::string::npos);
  EXPECT_NE(result.error().message.find("block"), std::string::npos);
}

TEST(FileStore, FailedPutLeavesNoOrphanBlocks) {
  // mirror(2) over 40 fragment slots: "b" needs 80 fragments, so one of
  // its block writes fails partway through.  The blocks it stored before
  // the failure must be trimmed and their ids handed back.
  const ClusterConfig pool(
      {{1, 10, ""}, {2, 10, ""}, {3, 10, ""}, {4, 10, ""}});
  FileStore store(VirtualDisk(pool, std::make_shared<MirroringScheme>(2)),
                  64);
  store.put("a", Bytes(256, 7));
  EXPECT_THROW(store.put("b", Bytes(2560, 8)), std::runtime_error);
  EXPECT_FALSE(store.contains("b"));

  std::uint64_t referenced = 0;
  for (const FileInfo& f : store.list()) referenced += f.blocks;
  EXPECT_EQ(store.disk().block_count(), referenced);
  EXPECT_EQ(store.try_get("a").value_or_throw(),
            std::optional<Bytes>(Bytes(256, 7)));
  store.put("c", Bytes(256, 9));
  EXPECT_EQ(store.try_get("c").value_or_throw(),
            std::optional<Bytes>(Bytes(256, 9)));
}

TEST(FileStore, Validation) {
  const ClusterConfig pool({{1, 100, ""}, {2, 100, ""}});
  EXPECT_THROW(
      FileStore(VirtualDisk(pool, std::make_shared<MirroringScheme>(2)), 0),
      std::invalid_argument);
}

}  // namespace
}  // namespace rds
