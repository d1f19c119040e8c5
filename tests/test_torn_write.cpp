// Exhaustive torn-write matrix: a journal damaged at EVERY byte boundary
// (truncation) and every byte (bit flip) must recover the valid prefix and
// report -- never crash on -- the damaged tail (src/journal/torn_write.hpp).
#include "src/journal/torn_write.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <sstream>
#include <vector>

#include "src/journal/journal.hpp"
#include "src/journal/recovery.hpp"
#include "src/storage/snapshot.hpp"
#include "src/util/random.hpp"

namespace rds::journal {
namespace {

ClusterConfig small_config() {
  return ClusterConfig({{1, 2000, "a"},
                        {2, 1800, "b"},
                        {3, 1500, "c"},
                        {4, 1200, "d"},
                        {5, 1000, "e"}});
}

Bytes payload(std::uint64_t block) {
  Bytes b(48);
  Xoshiro256 rng(block * 131 + 7);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng());
  return b;
}

/// Everything observable about a disk's recovered state, for prefix
/// comparison across the damage matrix.
struct Fingerprint {
  std::vector<std::pair<DeviceId, std::uint64_t>> devices;
  std::string scheme;
  PlacementKind kind = PlacementKind::kRedundantShare;
  std::vector<Bytes> blocks;
  bool clean = false;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

Fingerprint fingerprint_of(VirtualDisk& disk, std::uint64_t block_count) {
  Fingerprint fp;
  for (const Device& d : disk.config().devices()) {
    fp.devices.emplace_back(d.uid, d.capacity);
  }
  std::sort(fp.devices.begin(), fp.devices.end());
  fp.scheme = disk.scheme().name();
  fp.kind = disk.placement_kind();
  for (std::uint64_t b = 0; b < block_count; ++b) {
    fp.blocks.push_back(disk.try_read(b).value_or_throw());
  }
  fp.clean = disk.scrub().clean();
  return fp;
}

/// The deterministic damage scenario: a checkpointed disk plus a journal of
/// admin records, with the byte offset where each durable prefix ends.
struct Scenario {
  std::string checkpoint;
  std::string wal;                          ///< the intact journal bytes
  std::vector<std::size_t> boundaries;      ///< offsets after header, frame 1, ...
  std::vector<Fingerprint> prefix_states;   ///< state after applying 0..n records
  std::uint64_t block_count = 0;
};

Scenario build_scenario() {
  Scenario s;
  s.block_count = 12;
  VirtualDisk disk(small_config(), std::make_shared<MirroringScheme>(2));
  for (std::uint64_t b = 0; b < s.block_count; ++b) {
    disk.try_write(b, payload(b)).value_or_throw();
  }

  std::stringstream ckpt;
  write_checkpoint(disk, 0, ckpt);
  s.checkpoint = ckpt.str();

  std::stringstream wal;
  auto writer = std::make_shared<JournalWriter>(wal);
  disk.set_journal(writer);
  s.boundaries.push_back(static_cast<std::size_t>(wal.tellp()));  // header end

  const std::vector<std::function<void(VirtualDisk&)>> ops = {
      [](VirtualDisk& d) {
        d.try_add_device({9, 2500, "late"}).value_or_throw();
      },
      [](VirtualDisk& d) { d.fail_device(3); },
      [](VirtualDisk& d) { d.rebuild(); },
      [](VirtualDisk& d) { d.try_resize_device(9, 3000).value_or_throw(); },
      [](VirtualDisk& d) {
        d.try_set_strategy(PlacementKind::kRoundRobin).value_or_throw();
      },
  };
  for (const auto& op : ops) {
    op(disk);
    s.boundaries.push_back(static_cast<std::size_t>(wal.tellp()));
  }
  s.wal = wal.str();
  EXPECT_EQ(s.boundaries.back(), s.wal.size());

  // Shadow states: the expected disk after each durable prefix.
  for (std::size_t n = 0; n <= ops.size(); ++n) {
    std::stringstream in(s.checkpoint);
    auto header = read_checkpoint_header(in);
    EXPECT_TRUE(header.ok());
    VirtualDisk shadow = Snapshot::load_disk(in);
    for (std::size_t i = 0; i < n; ++i) ops[i](shadow);
    s.prefix_states.push_back(fingerprint_of(shadow, s.block_count));
  }
  return s;
}

/// Frames (not the header) fully durable below `offset`.
std::size_t frames_below(const Scenario& s, std::size_t offset) {
  std::size_t n = 0;
  for (std::size_t i = 1; i < s.boundaries.size(); ++i) {
    if (s.boundaries[i] <= offset) n = i;
  }
  return n;
}

TEST(TornWriteStream, TruncatesSilently) {
  std::stringstream inner;
  TornWriteStream torn(inner, {.fail_offset = 4});
  torn << "0123456789";
  torn.flush();
  EXPECT_TRUE(torn.good()) << "the fault model: the writer never learns";
  EXPECT_EQ(torn.bytes_offered(), 10u);
  EXPECT_EQ(inner.str(), "0123");
}

TEST(TornWriteStream, FlipsExactlyOneBit) {
  std::stringstream inner;
  TornWriteStream torn(
      inner, {.fail_offset = 2, .mode = TornWriteStream::Mode::kBitFlip,
              .bit = 5});
  torn << "abcdef";
  torn.flush();
  std::string expect = "abcdef";
  expect[2] = static_cast<char>(expect[2] ^ (1u << 5));
  EXPECT_EQ(inner.str(), expect);
}

TEST(TornWriteMatrix, EveryTruncationPointRecoversTheDurablePrefix) {
  const Scenario s = build_scenario();
  const std::size_t header_end = s.boundaries.front();

  for (std::size_t cut = 0; cut <= s.wal.size(); ++cut) {
    std::stringstream inner;
    TornWriteStream torn(inner, {.fail_offset = cut});
    torn.write(s.wal.data(), static_cast<std::streamsize>(s.wal.size()));
    torn.flush();
    ASSERT_EQ(inner.str().size(), cut);

    std::stringstream ckpt(s.checkpoint);
    auto recovered = Recovery::recover_disk(ckpt, &inner);
    ASSERT_TRUE(recovered.ok())
        << "cut=" << cut << ": " << recovered.error().message;

    const std::size_t want = frames_below(s, cut);
    const ReplayReport& report = recovered.value().report;
    EXPECT_EQ(report.records_applied, want) << "cut=" << cut;

    // Clean tail exactly at a frame boundary at or past the header; torn
    // otherwise (mid-header counts as torn: the header never became valid).
    const bool at_boundary =
        cut >= header_end &&
        std::find(s.boundaries.begin(), s.boundaries.end(), cut) !=
            s.boundaries.end();
    EXPECT_EQ(report.tail_corrupt, !at_boundary) << "cut=" << cut;
    if (report.tail_corrupt) {
      EXPECT_FALSE(report.tail_error.empty()) << "cut=" << cut;
    }

    Fingerprint got =
        fingerprint_of(recovered.value().disk, s.block_count);
    EXPECT_TRUE(got == s.prefix_states[want]) << "cut=" << cut;
  }
}

TEST(TornWriteMatrix, EveryBitFlipOffsetRecoversTheIntactPrefix) {
  const Scenario s = build_scenario();

  for (std::size_t at = 0; at < s.wal.size(); ++at) {
    const unsigned bit = static_cast<unsigned>(at % 8);
    std::stringstream inner;
    TornWriteStream torn(
        inner, {.fail_offset = at,
                .mode = TornWriteStream::Mode::kBitFlip,
                .bit = bit});
    torn.write(s.wal.data(), static_cast<std::streamsize>(s.wal.size()));
    torn.flush();
    ASSERT_EQ(inner.str().size(), s.wal.size());

    std::stringstream ckpt(s.checkpoint);
    auto recovered = Recovery::recover_disk(ckpt, &inner);
    ASSERT_TRUE(recovered.ok())
        << "flip at=" << at << ": " << recovered.error().message;

    // The flipped byte lands inside some frame (or the header); every
    // record before it replays, everything from it on is reported corrupt.
    const std::size_t want = frames_below(s, at);
    const ReplayReport& report = recovered.value().report;
    EXPECT_EQ(report.records_applied, want) << "flip at=" << at;
    EXPECT_TRUE(report.tail_corrupt) << "flip at=" << at;
    EXPECT_FALSE(report.tail_error.empty()) << "flip at=" << at;

    Fingerprint got =
        fingerprint_of(recovered.value().disk, s.block_count);
    EXPECT_TRUE(got == s.prefix_states[want]) << "flip at=" << at;
  }
}

TEST(TornWriteMatrix, StrictModeRefusesEveryDamagedJournal) {
  const Scenario s = build_scenario();
  // Sample the matrix (full sweep is covered above in lax mode).
  for (std::size_t cut = 1; cut < s.wal.size(); cut += 7) {
    if (std::find(s.boundaries.begin(), s.boundaries.end(), cut) !=
        s.boundaries.end()) {
      continue;  // a clean boundary is not damage
    }
    std::stringstream inner(s.wal.substr(0, cut));
    std::stringstream ckpt(s.checkpoint);
    auto recovered = Recovery::recover_disk(ckpt, &inner, {.strict = true});
    ASSERT_FALSE(recovered.ok()) << "cut=" << cut;
    EXPECT_EQ(recovered.error().code, ErrorCode::kCorruption);
  }
}

}  // namespace
}  // namespace rds::journal
