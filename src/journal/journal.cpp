#include "src/journal/journal.hpp"

#include <istream>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "src/metrics/scoped_timer.hpp"
#include "src/util/byte_codec.hpp"
#include "src/util/crc32.hpp"

namespace rds::journal {
namespace {

/// The CRC-32 a sealed header stores: over its value's 8 bytes.
std::uint32_t seal(std::uint64_t value) {
  Bytes bytes;
  ByteWriter(bytes).field(value);
  return crc32(bytes);
}

}  // namespace

// ---- sealed header ---------------------------------------------------------

void write_sealed_header(std::ostream& out, const char* magic,
                         std::uint64_t value) {
  ByteWriter header(out);
  header.magic(magic);
  header.field(value);
  header.field(seal(value));
}

Result<std::uint64_t> read_sealed_header(std::istream& in, const char* magic,
                                         std::string_view stream,
                                         std::string_view field) {
  const auto corrupt = [&](std::string_view what) {
    return Error{ErrorCode::kCorruption,
                 std::string(stream) + " header: " + std::string(what)};
  };
  ByteReader header(in);
  try {
    const std::string refused = magic_mismatch(header.magic(), magic);
    if (!refused.empty()) return corrupt(refused);
    const auto value = header.read<std::uint64_t>();
    if (header.read<std::uint32_t>() != seal(value)) {
      return corrupt(std::string(field) + " checksum mismatch");
    }
    return value;
  } catch (const TruncatedInput&) {
    return corrupt("truncated");
  }
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
  const auto refuse = [&](ErrorCode code, std::string message) {
    span.cancel();
    append_failures_total_->inc();
    return Error{code, std::move(message)};
  };
  if (!healthy_) {
    return refuse(ErrorCode::kIoError,
                  "JournalWriter: journal stream failed earlier; appends "
                  "are disabled until rotate()");
  }
  ByteWriter frame(*out_);
  Bytes payload;
  try {
    payload = encode_record(record, next_lsn_);
    frame.length32(payload.size());
  } catch (const std::length_error& e) {
    return refuse(ErrorCode::kInvalidArgument,
                  "JournalWriter: record refused at lsn " +
                      std::to_string(next_lsn_) + ": " + e.what());
  }
  frame.field(crc32(payload));
  frame.raw(payload);
  out_->flush();
  if (!*out_) {
    healthy_ = false;
    return refuse(ErrorCode::kIoError,
                  "JournalWriter: stream write failed at lsn " +
                      std::to_string(next_lsn_));
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
  ByteReader in(*in_);
  if (in.at_end()) {
    done_ = true;  // clean end: the previous frame was the last one
    return std::optional<Record>{};
  }
  std::string_view part = "length prefix";
  std::uint32_t crc = 0;
  Bytes payload;
  try {
    const auto length = in.read<std::uint32_t>();
    part = "checksum";
    in.field(crc);
    part = "payload";
    payload = in.bytes(length);
  } catch (const TruncatedInput&) {
    return fail(frame + ": torn " + std::string(part));
  }
  if (crc32(payload) != crc) {
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
