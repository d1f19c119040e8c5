// Crash recovery: checkpoint (snapshot + journal truncation) and journal
// replay over a base snapshot (docs/persistence.md).
//
// A checkpoint stream is a small header -- magic "RDSCKPT1", the LSN
// watermark (highest LSN whose effects the snapshot contains), a CRC over
// the watermark -- followed by a regular Snapshot section.  Recovery loads
// the snapshot, then replays every journal record with lsn > watermark;
// records at or below it are skipped (their effects are already in the
// snapshot).  A journal that starts after watermark + 1 is refused: the
// records between are in neither stream.
//
// Contract for torn journals: replay applies the valid prefix, stops at
// the first corrupt frame, and *reports* it (ReplayReport::tail_corrupt /
// tail_error) instead of failing -- a crash mid-append legitimately leaves
// a torn last frame.  RecoveryOptions::strict turns that report into a
// typed error for callers that require a fully intact journal.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "src/core/result.hpp"
#include "src/journal/journal.hpp"
#include "src/journal/record.hpp"
#include "src/storage/file_store.hpp"
#include "src/storage/snapshot.hpp"
#include "src/storage/storage_pool.hpp"
#include "src/storage/virtual_disk.hpp"

namespace rds::journal {

/// Magic + version of a checkpoint stream.
inline constexpr char kCheckpointMagic[] = "RDSCKPT1";

/// What a replay did.  `watermark` is the checkpoint's LSN; `last_applied`
/// is the highest LSN whose record was applied (== watermark when the
/// journal held nothing newer).
struct ReplayReport {
  Lsn watermark = 0;
  Lsn last_applied = 0;
  std::uint64_t records_applied = 0;
  std::uint64_t records_skipped = 0;  ///< at or below the watermark
  bool tail_corrupt = false;          ///< journal ended in a torn/corrupt frame
  std::string tail_error;             ///< which frame, and how it was damaged
};

struct RecoveryOptions {
  /// Treat a corrupt journal tail as an error instead of reporting it.
  bool strict = false;
};

/// Writes a checkpoint: header (magic, watermark, CRC) + snapshot.
/// `watermark` is the highest LSN whose effects the target already
/// contains -- normally JournalWriter::last_lsn() at a quiesced moment.
/// Throws std::runtime_error on stream failure.
void write_checkpoint(const VirtualDisk& disk, Lsn watermark,
                      std::ostream& out);
void write_checkpoint(const StoragePool& pool, Lsn watermark,
                      std::ostream& out);
void write_checkpoint(const FileStore& store, Lsn watermark,
                      std::ostream& out);

/// Full compaction step: checkpoint the target at the journal's current
/// last_lsn(), then rotate the journal onto `fresh_journal` (truncation --
/// the old stream is dead).  The caller must quiesce mutators around this
/// call; records appended between last_lsn() and the snapshot would be
/// replayed twice.  Returns the watermark written.
Lsn checkpoint(const VirtualDisk& disk, JournalWriter& writer,
               std::ostream& snapshot_out, std::ostream& fresh_journal);
Lsn checkpoint(const StoragePool& pool, JournalWriter& writer,
               std::ostream& snapshot_out, std::ostream& fresh_journal);
Lsn checkpoint(const FileStore& store, JournalWriter& writer,
               std::ostream& snapshot_out, std::ostream& fresh_journal);

/// Reads and validates a checkpoint header, returning its watermark.
/// kCorruption on a bad magic, truncation, or CRC mismatch.
[[nodiscard]] Result<Lsn> read_checkpoint_header(std::istream& in);

struct DiskRecovery {
  VirtualDisk disk;
  ReplayReport report;
};
struct PoolRecovery {
  StoragePool pool;
  ReplayReport report;
};
struct FileStoreRecovery {
  FileStore store;
  ReplayReport report;
};

/// Replays a journal over a freshly loaded checkpoint to reconstruct the
/// state at the last durable LSN.  All entry points are static; recovery
/// is single-threaded by construction (the target is not yet shared).
class Recovery {
 public:
  /// Loads a checkpoint written by write_checkpoint(disk, ...) and replays
  /// `journal_in` over it (pass nullptr to restore the bare snapshot),
  /// skipping records at or below the checkpoint's watermark.  kCorruption
  /// when the checkpoint itself is damaged, or when the journal starts
  /// after watermark + 1 (in lax mode too, and with no record in it).  A
  /// record that cannot be applied (a file-store record against a bare
  /// disk, a content fingerprint mismatch) is a typed error naming its LSN
  /// and type; a corrupt journal tail is reported per RecoveryOptions.
  [[nodiscard]] static Result<DiskRecovery> recover_disk(
      std::istream& checkpoint_in, std::istream* journal_in,
      const RecoveryOptions& options = {});
  [[nodiscard]] static Result<PoolRecovery> recover_pool(
      std::istream& checkpoint_in, std::istream* journal_in,
      const RecoveryOptions& options = {});
  [[nodiscard]] static Result<FileStoreRecovery> recover_file_store(
      std::istream& checkpoint_in, std::istream* journal_in,
      const RecoveryOptions& options = {});
};

}  // namespace rds::journal
