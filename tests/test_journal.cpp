// Journal codec and writer/reader contract (src/journal/).
#include "src/journal/journal.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "src/journal/record.hpp"
#include "src/util/hash.hpp"

namespace rds::journal {
namespace {

Bytes bytes_of(std::initializer_list<std::uint8_t> xs) { return Bytes(xs); }

std::vector<Record> one_of_each() {
  std::vector<Record> records;
  records.push_back(make_add_device({7, 4000, "disk-7"}));
  records.push_back(make_remove_device(3));
  records.push_back(make_resize_device(4, 9000));
  records.push_back(make_fail_device(5));
  records.push_back(make_rebuild());
  records.push_back(make_set_strategy("scratch", PlacementKind::kRoundRobin));
  records.push_back(make_set_scheme("", "reed-solomon(4+2)"));
  records.push_back(make_create_volume("archive", "mirror(k=3)",
                                       PlacementKind::kFastRedundantShare));
  records.push_back(make_drop_volume("scratch"));
  const Bytes content = bytes_of({1, 2, 3, 4, 5});
  records.push_back(make_file_put("report.txt", content));
  records.push_back(make_file_remove("report.txt"));
  return records;
}

TEST(JournalRecord, EncodeDecodeRoundTripsEveryType) {
  for (Record rec : one_of_each()) {
    rec.lsn = 42;  // the writer normally stamps this
    const Bytes payload = encode_record(rec, rec.lsn);
    auto decoded = decode_record(payload);
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    EXPECT_EQ(decoded.value(), rec) << to_string(rec.type);
  }
}

TEST(JournalRecord, FilePutCarriesContentFingerprint) {
  const Bytes content = bytes_of({9, 8, 7});
  const Record rec = make_file_put("f", content);
  EXPECT_EQ(rec.content, content);
  EXPECT_EQ(rec.content_hash, content_fingerprint(content));
}

TEST(JournalRecord, DecodeRejectsTruncatedPayload) {
  Record rec = make_add_device({1, 100, "a"});
  rec.lsn = 1;
  const Bytes payload = encode_record(rec, rec.lsn);
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    auto decoded = decode_record(
        std::span<const std::uint8_t>(payload.data(), cut));
    ASSERT_FALSE(decoded.ok()) << "cut=" << cut;
    EXPECT_EQ(decoded.error().code, ErrorCode::kCorruption);
  }
}

TEST(JournalRecord, DecodeRejectsUnknownTypeTag) {
  Record rec = make_rebuild();
  rec.lsn = 1;
  Bytes payload = encode_record(rec, rec.lsn);
  payload[8] = 0xEE;  // the type tag follows the 8-byte LSN
  auto decoded = decode_record(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, ErrorCode::kCorruption);
  EXPECT_NE(decoded.error().message.find("unknown record type"),
            std::string::npos);
}

TEST(JournalRecord, DecodeRejectsTrailingBytes) {
  Record rec = make_remove_device(2);
  rec.lsn = 1;
  Bytes payload = encode_record(rec, rec.lsn);
  payload.push_back(0);
  auto decoded = decode_record(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error().message.find("trailing bytes"),
            std::string::npos);
}

TEST(JournalWriter, AppendsAreRoundTrippableAndLsnsContiguous) {
  std::stringstream stream;
  JournalWriter writer(stream);
  const std::vector<Record> records = one_of_each();
  Lsn expect = 1;
  for (const Record& rec : records) {
    auto lsn = writer.append(rec);
    ASSERT_TRUE(lsn.ok()) << lsn.error().message;
    EXPECT_EQ(lsn.value(), expect++);
  }
  EXPECT_EQ(writer.last_lsn(), records.size());
  EXPECT_TRUE(writer.healthy());

  JournalReader reader(stream);
  for (std::size_t i = 0; i < records.size(); ++i) {
    auto next = reader.next();
    ASSERT_TRUE(next.ok()) << next.error().message;
    ASSERT_TRUE(next.value().has_value());
    Record want = records[i];
    want.lsn = static_cast<Lsn>(i + 1);
    EXPECT_EQ(*next.value(), want);
  }
  auto end = reader.next();
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(end.value().has_value());
  EXPECT_EQ(reader.start_lsn(), 1u);
  // Clean EOF is stable, not sticky corruption.
  EXPECT_TRUE(reader.next().ok());
}

TEST(JournalWriter, StartLsnZeroIsPromotedToOne) {
  std::stringstream stream;
  JournalWriter writer(stream, {.start_lsn = 0});
  EXPECT_EQ(writer.last_lsn(), 0u);
  auto lsn = writer.append(make_rebuild());
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(lsn.value(), 1u);
}

TEST(JournalWriter, SyncHookFiresOncePerAppend) {
  std::stringstream stream;
  int syncs = 0;
  JournalWriter writer(stream, {.sync_hook = [&] { ++syncs; }});
  ASSERT_TRUE(writer.append(make_rebuild()).ok());
  ASSERT_TRUE(writer.append(make_fail_device(1)).ok());
  EXPECT_EQ(syncs, 2);
}

TEST(JournalWriter, StreamFailureIsStickyUntilRotate) {
  std::stringstream stream;
  JournalWriter writer(stream);
  ASSERT_TRUE(writer.append(make_rebuild()).ok());

  stream.setstate(std::ios::badbit);  // the device under the journal dies
  auto failed = writer.append(make_fail_device(1));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.error().code, ErrorCode::kIoError);
  EXPECT_FALSE(writer.healthy());

  // Still refused after the stream "recovers": a half-written frame must
  // not be followed by more frames.
  stream.clear();
  auto refused = writer.append(make_rebuild());
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.error().message.find("rotate()"), std::string::npos);

  std::stringstream fresh;
  writer.rotate(fresh);
  EXPECT_TRUE(writer.healthy());
  auto lsn = writer.append(make_rebuild());
  ASSERT_TRUE(lsn.ok());

  // The fresh journal's header continues the LSN sequence.
  JournalReader reader(fresh);
  auto rec = reader.next();
  ASSERT_TRUE(rec.ok()) << rec.error().message;
  ASSERT_TRUE(rec.value().has_value());
  EXPECT_EQ(rec.value()->lsn, lsn.value());
  EXPECT_EQ(reader.start_lsn(), lsn.value());
}

TEST(JournalReader, RejectsBadMagic) {
  std::stringstream stream("NOTAWAL0xxxxxxxxxxxx");
  JournalReader reader(stream);
  auto next = reader.next();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.error().code, ErrorCode::kCorruption);
  EXPECT_NE(next.error().message.find("bad magic"), std::string::npos);
}

TEST(JournalReader, CorruptionIsSticky) {
  std::stringstream stream;
  JournalWriter writer(stream);
  ASSERT_TRUE(writer.append(make_rebuild()).ok());
  ASSERT_TRUE(writer.append(make_fail_device(9)).ok());

  std::string bytes = stream.str();
  bytes.back() ^= 0x01;  // corrupt the second frame's payload
  std::stringstream damaged(bytes);
  JournalReader reader(damaged);
  ASSERT_TRUE(reader.next().ok());  // frame 1 is intact
  auto second = reader.next();
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.error().code, ErrorCode::kCorruption);
  // Every later call repeats the same error.
  auto again = reader.next();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().message, second.error().message);
}

TEST(JournalReader, DetectsLsnDiscontinuity) {
  // Two journals, each starting at LSN 1: splicing the second one's frame
  // (without its 20-byte sealed header: 8 B magic, 8 B LSN, 4 B CRC) after
  // the first one's frame yields a replayed LSN.
  std::stringstream a;
  JournalWriter wa(a);
  ASSERT_TRUE(wa.append(make_rebuild()).ok());
  std::stringstream b;
  JournalWriter wb(b);
  ASSERT_TRUE(wb.append(make_rebuild()).ok());

  std::stringstream spliced(a.str() + b.str().substr(20));
  JournalReader reader(spliced);
  ASSERT_TRUE(reader.next().ok());
  auto replayed = reader.next();
  ASSERT_FALSE(replayed.ok());
  EXPECT_NE(replayed.error().message.find("LSN discontinuity"),
            std::string::npos);
}

// A length prefix is only a claim: a frame that claims 0xFFFFFFFF bytes but
// is followed by 10 fails as a torn payload, having buffered no more than
// the stream held.
TEST(JournalReader, OversizedLengthClaimIsATornPayload) {
  std::stringstream stream;
  JournalWriter writer(stream);
  stream << std::string(4, '\xFF') << std::string(10, '\x01');
  JournalReader reader(stream);
  auto next = reader.next();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.error().code, ErrorCode::kCorruption);
  EXPECT_EQ(next.error().message, "record lsn=1: torn payload");
}

// A committed journal file, the records decoded from it, and what a
// writer started at its start LSN writes when they are re-appended.
struct Reappended {
  std::string committed;
  std::vector<Record> records;
  std::string rewritten;
};

std::string read_file(const char* path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file) << "missing " << path;
  return {std::istreambuf_iterator<char>(file),
          std::istreambuf_iterator<char>()};
}

Reappended reappend(const char* path) {
  Reappended r;
  r.committed = read_file(path);
  std::istringstream in(r.committed);
  JournalReader reader(in);
  for (;;) {
    auto next = reader.next();
    EXPECT_TRUE(next.ok()) << next.error().message;
    if (!next.ok() || !next.value()) break;
    r.records.push_back(*std::move(next).take());
  }
  std::ostringstream out;
  JournalWriter writer(out, {.start_lsn = reader.start_lsn()});
  for (const Record& record : r.records) {
    EXPECT_TRUE(writer.append(record).ok());
  }
  r.rewritten = out.str();
  return r;
}

// The writer's half of the committed golden journal (the reader's half is
// Recovery.CommittedJournalReplaysIntoFreshFileStore): the records decoded
// from tests/data/golden_journal.wal, re-appended from the file's start
// LSN, write the file again byte for byte.
TEST(JournalWriter, ReappendsCommittedJournalByteForByte) {
  const Reappended r = reappend(RDS_TEST_DATA_DIR "/golden_journal.wal");
  EXPECT_EQ(r.committed.substr(0, 8), "RDSWAL02");
  ASSERT_EQ(r.records.size(), 5u);
  EXPECT_EQ(r.rewritten, r.committed);
}

// tests/data/parent_journal.wal is a version 1 journal (RDSWAL01, whose
// file puts carry FNV-1a fingerprints): 5 records on a 3-device mirror(2)
// FileStore, the records of golden_journal.wal.  This build refuses it by
// its header, naming the version, so none of its fingerprints is checked
// with the wrong function.
TEST(JournalReader, RefusesVersionOneJournalNamingItsVersion) {
  const std::string committed =
      read_file(RDS_TEST_DATA_DIR "/parent_journal.wal");
  ASSERT_EQ(committed.substr(0, 8), "RDSWAL01");
  std::istringstream in(committed);
  JournalReader reader(in);
  auto next = reader.next();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.error().code, ErrorCode::kCorruption);
  EXPECT_EQ(next.error().message,
            "journal header: RDSWAL01 is format version 1; this build reads "
            "only version 2 (RDSWAL02)");
}

// tests/data/golden_records.wal, a version 2 journal, pins the payload of
// every record type: it holds one record of each of the 11 types, LSNs
// 40-50, with a device uid and capacity above 2^32 and a 300-byte file put
// whose fingerprint is XXH64.  Each decodes to the record that was
// written, and re-appending them writes the file again.
TEST(JournalWriter, ReappendsEveryRecordTypeByteForByte) {
  const auto content = [](std::size_t size, std::uint8_t salt) {
    Bytes b(size);
    for (std::size_t i = 0; i < size; ++i) {
      b[i] = static_cast<std::uint8_t>(i * 31 + salt);
    }
    return b;
  };
  std::vector<Record> want;
  want.push_back(
      make_add_device({(1ull << 40) + 7, (1ull << 33) + 4000, "disk-7"}));
  want.push_back(make_remove_device(3));
  want.push_back(make_resize_device(4, 9000));
  want.push_back(make_fail_device(5));
  want.push_back(make_rebuild());
  want.push_back(make_set_strategy("scratch", PlacementKind::kRoundRobin));
  want.push_back(make_set_scheme("", "reed-solomon(4+2)"));
  want.push_back(make_create_volume("archive", "mirror(k=3)",
                                    PlacementKind::kFastRedundantShare));
  want.push_back(make_drop_volume("scratch"));
  want.push_back(make_file_put("report.txt", content(300, 9)));
  want.push_back(make_file_remove("report.txt"));
  for (std::size_t i = 0; i < want.size(); ++i) want[i].lsn = 40 + i;

  const Reappended r = reappend(RDS_TEST_DATA_DIR "/golden_records.wal");
  EXPECT_EQ(r.committed.substr(0, 8), "RDSWAL02");
  EXPECT_EQ(r.records, want);
  EXPECT_EQ(r.rewritten, r.committed);
}

}  // namespace
}  // namespace rds::journal
