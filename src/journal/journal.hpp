// Append-only write-ahead journal (docs/persistence.md).
//
// Layout of a journal stream:
//
//     +----------+-----------+------------------+
//     | magic 8B | start LSN | CRC-32(start LSN)|   file header
//     +----------+-----------+------------------+
//     | len u32 | CRC-32(payload) u32 | payload |   record frame, repeated
//     +---------+---------------------+---------+
//
// Every field is src/util/byte_codec.hpp's: little-endian, and a reader
// takes the length prefix as a claim, reading the payload in bounded
// chunks, so a corrupt length fails as a torn payload.  The payload is
// encode_record() output (src/journal/record.hpp); LSNs are strictly
// monotonic and contiguous, so a reader can detect dropped or replayed
// frames.  The journal is a COMMIT log: storage layers append a record
// *after* the in-memory mutation commits, under the same lock that
// serialized the mutation, so the journal order is exactly the commit order
// (the sink's own mutex is a leaf below the device set's one lock).
//
// Durability is delegated to the caller: JournalWriter flushes the stream
// after every record and then invokes the optional sync hook -- the fsync
// point for file-backed streams.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "src/core/result.hpp"
#include "src/journal/record.hpp"
#include "src/metrics/registry.hpp"
#include "src/util/mutex.hpp"
#include "src/util/thread_annotations.hpp"

namespace rds::journal {

/// Magic + version of the journal stream format.  Version 2 fingerprints
/// file-put content with XXH64; version 1 used FNV-1a and is refused.
inline constexpr char kJournalMagic[] = "RDSWAL02";

/// The sealed header that opens a journal stream and a checkpoint alike:
/// an 8-byte magic, a u64 (the journal's start LSN, the checkpoint's
/// watermark) and the CRC-32 of its 8 little-endian bytes.  The caller
/// checks the stream's state afterwards.
void write_sealed_header(std::ostream& out, const char* magic,
                         std::uint64_t value);

/// Reads a sealed header that must carry `magic`.  kCorruption on a bad
/// magic (naming both versions when only the version byte differs), a
/// truncation or a checksum mismatch, with a message that starts
/// "<stream> header: " and names `field` on a checksum mismatch.
[[nodiscard]] Result<std::uint64_t> read_sealed_header(
    std::istream& in, const char* magic, std::string_view stream,
    std::string_view field);

/// Where committed mutations are appended.  Implemented by JournalWriter;
/// storage layers hold a shared_ptr so tests can substitute a failing or
/// recording sink.
class JournalSink {
 public:
  virtual ~JournalSink() = default;

  /// Appends one record, assigning the next LSN (returned).  kIoError when
  /// the underlying stream rejects the write; the journal is then dead and
  /// every later append fails too (a half-written frame must not be
  /// followed by more frames).  kInvalidArgument, with nothing written and
  /// the journal still healthy, for a record whose payload or strings do
  /// not fit their u32 length prefix.
  [[nodiscard]] virtual Result<Lsn> append(const Record& record) = 0;
};

/// JournalWriter construction knobs.  Namespace-scoped (not nested) so the
/// constructor's `= {}` default argument can see the member initializers --
/// GCC refuses NSDMIs of a nested class used in the enclosing class's own
/// default arguments.
struct JournalWriterOptions {
  Lsn start_lsn = 1;  ///< LSN of the first record (0 is promoted to 1)
  /// Called after each record is flushed -- the fsync hook point for
  /// file-backed streams (and the crash trigger for fault injection).
  std::function<void()> sync_hook{};
};

class JournalWriter final : public JournalSink {
 public:
  using Options = JournalWriterOptions;

  /// Writes the file header.  Throws std::runtime_error if the stream
  /// rejects it.
  explicit JournalWriter(std::ostream& out, Options options = {});

  [[nodiscard]] Result<Lsn> append(const Record& record) override
      RDS_EXCLUDES(mu_);

  /// Highest LSN successfully appended; start_lsn - 1 when none was.
  [[nodiscard]] Lsn last_lsn() const RDS_EXCLUDES(mu_);

  /// False once a stream write failed; appends are refused from then on.
  [[nodiscard]] bool healthy() const RDS_EXCLUDES(mu_);

  /// Journal truncation half of a checkpoint: switches to `fresh` and
  /// writes a new header whose start LSN continues after last_lsn().  The
  /// old stream is no longer touched.  Throws std::runtime_error if the
  /// fresh stream rejects the header.  Quiesce appenders around the
  /// checkpoint (see journal::checkpoint in src/journal/recovery.hpp).
  void rotate(std::ostream& fresh) RDS_EXCLUDES(mu_);

 private:
  void write_header_locked() RDS_REQUIRES(mu_);

  mutable Mutex mu_;
  std::ostream* out_ RDS_GUARDED_BY(mu_);
  Lsn next_lsn_ RDS_GUARDED_BY(mu_);
  bool healthy_ RDS_GUARDED_BY(mu_) = true;
  const std::function<void()> sync_hook_;

  // Registry-owned instruments (docs/metrics.md), resolved once at
  // construction and internally thread-safe: `const`.
  metrics::Counter* const records_total_ =
      &metrics::Registry::global().counter("rds_journal_records_total");
  metrics::Counter* const bytes_total_ =
      &metrics::Registry::global().counter("rds_journal_bytes_total");
  metrics::Counter* const append_failures_total_ =
      &metrics::Registry::global().counter(
          "rds_journal_append_failures_total");
  metrics::LatencyHistogram* const append_latency_ns_ =
      &metrics::Registry::global().histogram("rds_journal_append_latency_ns");
};

/// Sequential reader over a journal stream.  Not thread-safe (recovery is
/// single-threaded); corruption is sticky -- once next() reports an error,
/// every later call repeats it, because frame boundaries after a corrupt
/// frame cannot be trusted.
class JournalReader {
 public:
  explicit JournalReader(std::istream& in) : in_(&in) {}

  /// The next record.  ok(nullopt) is the clean end of the journal;
  /// kCorruption names the frame (by expected LSN) that was torn, failed
  /// its CRC, or did not parse.
  [[nodiscard]] Result<std::optional<Record>> next();

  /// The header's start LSN (valid after the first next() call).
  [[nodiscard]] Lsn start_lsn() const noexcept { return start_lsn_; }

 private:
  [[nodiscard]] Result<std::optional<Record>> fail(std::string message);

  std::istream* in_;
  Lsn start_lsn_ = 0;
  Lsn expect_ = 0;  ///< LSN the next frame must carry
  bool header_read_ = false;
  bool done_ = false;
  std::optional<Error> failed_;
};

}  // namespace rds::journal
