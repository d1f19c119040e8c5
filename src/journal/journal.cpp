#include "src/journal/journal.hpp"

#include <algorithm>
#include <array>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "src/metrics/scoped_timer.hpp"
#include "src/util/crc32.hpp"

namespace rds::journal {
namespace {

std::array<std::uint8_t, 4> le32(std::uint32_t v) {
  std::array<std::uint8_t, 4> b{};
  for (int i = 0; i < 4; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return b;
}

std::array<std::uint8_t, 8> le64(std::uint64_t v) {
  std::array<std::uint8_t, 8> b{};
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return b;
}

void write_raw(std::ostream& out, std::span<const std::uint8_t> bytes) {
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::uint32_t from_le32(std::span<const std::uint8_t, 4> b) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
  return v;
}

std::uint64_t from_le64(std::span<const std::uint8_t, 8> b) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  return v;
}

/// Reads exactly `out.size()` bytes; returns how many actually arrived.
std::size_t read_raw(std::istream& in, std::span<std::uint8_t> out) {
  in.read(reinterpret_cast<char*>(out.data()),
          static_cast<std::streamsize>(out.size()));
  return static_cast<std::size_t>(in.gcount());
}

}  // namespace

// ---- sealed header ---------------------------------------------------------

void write_sealed_header(std::ostream& out, const char* magic,
                         std::uint64_t value) {
  out.write(magic, 8);
  const auto value_bytes = le64(value);
  write_raw(out, value_bytes);
  write_raw(out, le32(crc32(value_bytes)));
}

Result<std::uint64_t> read_sealed_header(std::istream& in, const char* magic,
                                         std::string_view stream,
                                         std::string_view field) {
  const auto corrupt = [&](std::string_view what) {
    return Error{ErrorCode::kCorruption,
                 std::string(stream) + " header: " + std::string(what)};
  };
  std::array<std::uint8_t, 8> magic_bytes{};
  if (read_raw(in, magic_bytes) != magic_bytes.size() ||
      !std::equal(magic_bytes.begin(), magic_bytes.end(), magic)) {
    return corrupt("bad magic/version");
  }
  std::array<std::uint8_t, 8> value_bytes{};
  std::array<std::uint8_t, 4> crc_bytes{};
  if (read_raw(in, value_bytes) != value_bytes.size() ||
      read_raw(in, crc_bytes) != crc_bytes.size()) {
    return corrupt("truncated");
  }
  if (from_le32(crc_bytes) != crc32(value_bytes)) {
    return corrupt(std::string(field) + " checksum mismatch");
  }
  return from_le64(value_bytes);
}

// ---- JournalWriter ---------------------------------------------------------

JournalWriter::JournalWriter(std::ostream& out, Options options)
    : out_(&out),
      next_lsn_(options.start_lsn == 0 ? 1 : options.start_lsn),
      sync_hook_(std::move(options.sync_hook)) {
  const MutexLock lock(mu_);
  write_header_locked();
}

void JournalWriter::write_header_locked() {
  write_sealed_header(*out_, kJournalMagic, next_lsn_);
  out_->flush();
  if (!*out_) {
    healthy_ = false;
    throw std::runtime_error("JournalWriter: header write failed");
  }
}

Result<Lsn> JournalWriter::append(const Record& record) {
  metrics::ScopedTimer span(*append_latency_ns_);
  const MutexLock lock(mu_);
  if (!healthy_) {
    span.cancel();
    append_failures_total_->inc();
    return Error{ErrorCode::kIoError,
                 "JournalWriter: journal stream failed earlier; appends "
                 "are disabled until rotate()"};
  }
  const Bytes payload = encode_record(record, next_lsn_);
  write_raw(*out_, le32(static_cast<std::uint32_t>(payload.size())));
  write_raw(*out_, le32(crc32(payload)));
  write_raw(*out_, payload);
  out_->flush();
  if (!*out_) {
    healthy_ = false;
    span.cancel();
    append_failures_total_->inc();
    return Error{ErrorCode::kIoError,
                 "JournalWriter: stream write failed at lsn " +
                     std::to_string(next_lsn_)};
  }
  if (sync_hook_) sync_hook_();
  records_total_->inc();
  bytes_total_->inc(8 + payload.size());
  return next_lsn_++;
}

Lsn JournalWriter::last_lsn() const {
  const MutexLock lock(mu_);
  return next_lsn_ - 1;
}

bool JournalWriter::healthy() const {
  const MutexLock lock(mu_);
  return healthy_;
}

void JournalWriter::rotate(std::ostream& fresh) {
  const MutexLock lock(mu_);
  out_ = &fresh;
  healthy_ = true;
  write_header_locked();
}

// ---- JournalReader ---------------------------------------------------------

Result<std::optional<Record>> JournalReader::fail(std::string message) {
  failed_ = Error{ErrorCode::kCorruption, std::move(message)};
  return *failed_;
}

Result<std::optional<Record>> JournalReader::next() {
  if (failed_) return *failed_;  // frame boundaries are untrustworthy now
  if (done_) return std::optional<Record>{};

  if (!header_read_) {
    const Result<std::uint64_t> start =
        read_sealed_header(*in_, kJournalMagic, "journal", "start-LSN");
    if (!start.ok()) return fail(start.error().message);
    start_lsn_ = start.value();
    expect_ = start_lsn_;
    header_read_ = true;
  }

  const std::string frame = "record lsn=" + std::to_string(expect_);
  std::array<std::uint8_t, 4> len_bytes{};
  const std::size_t got = read_raw(*in_, len_bytes);
  if (got == 0 && in_->eof()) {
    done_ = true;  // clean end: the previous frame was the last one
    return std::optional<Record>{};
  }
  if (got != len_bytes.size()) return fail(frame + ": torn length prefix");
  const std::uint32_t length = from_le32(len_bytes);
  if (length > kMaxRecordBytes) {
    return fail(frame + ": implausible length " + std::to_string(length));
  }
  std::array<std::uint8_t, 4> crc_bytes{};
  if (read_raw(*in_, crc_bytes) != crc_bytes.size()) {
    return fail(frame + ": torn checksum");
  }
  Bytes payload(length);
  if (read_raw(*in_, payload) != payload.size()) {
    return fail(frame + ": torn payload");
  }
  if (crc32(payload) != from_le32(crc_bytes)) {
    return fail(frame + ": payload checksum mismatch");
  }
  Result<Record> record = decode_record(payload);
  if (!record.ok()) {
    return fail(frame + ": " + record.error().message);
  }
  if (record.value().lsn != expect_) {
    return fail(frame + ": LSN discontinuity (frame carries lsn=" +
                std::to_string(record.value().lsn) + ")");
  }
  ++expect_;
  return std::optional<Record>{std::move(record).take()};
}

}  // namespace rds::journal
