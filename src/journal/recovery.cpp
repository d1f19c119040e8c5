#include "src/journal/recovery.hpp"

#include <istream>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "src/metrics/registry.hpp"
#include "src/metrics/scoped_timer.hpp"
#include "src/placement/strategy_factory.hpp"
#include "src/util/hash.hpp"

namespace rds::journal {
namespace {

void write_checkpoint_header(std::ostream& out, Lsn watermark) {
  write_sealed_header(out, kCheckpointMagic, watermark);
  if (!out) throw std::runtime_error("checkpoint: header write failed");
}

/// Runs a mutation that throws by contract (fail_device, rebuild, volume
/// create/drop, file put/remove), mapping its exceptions onto Result.
template <typename Fn>
Result<void> guarded(Fn&& fn) {
  try {
    fn();
    return {};
  } catch (const std::invalid_argument& e) {
    return Error{ErrorCode::kInvalidArgument, e.what()};
  } catch (const std::out_of_range& e) {
    return Error{ErrorCode::kNotFound, e.what()};
  } catch (const std::exception& e) {
    return Error{ErrorCode::kIoError, e.what()};
  }
}

Result<PlacementKind> parse_kind(const std::string& name) {
  const std::optional<PlacementKind> kind = parse_placement_kind(name);
  if (!kind) {
    return Error{ErrorCode::kCorruption,
                 "unknown placement kind '" + name + "'"};
  }
  return *kind;
}

Result<std::shared_ptr<RedundancyScheme>> parse_scheme(
    const std::string& name) {
  try {
    return make_scheme_from_name(name);
  } catch (const std::invalid_argument& e) {
    return Error{ErrorCode::kCorruption, e.what()};
  }
}

// ---- per-target record application ----------------------------------------

// A disk's and a pool's policy and volume records; apply() below takes
// the topology records of both.

Result<void> apply_policy(VirtualDisk& disk, const Record& rec) {
  switch (rec.type) {
    case RecordType::kSetStrategy: {
      if (!rec.volume.empty()) {
        return Error{ErrorCode::kInvalidArgument,
                     "volume-scoped record replayed against a standalone "
                     "disk"};
      }
      Result<PlacementKind> kind = parse_kind(rec.detail);
      if (!kind.ok()) return kind.error();
      return disk.try_set_strategy(kind.value());
    }
    case RecordType::kSetScheme: {
      if (!rec.volume.empty()) {
        return Error{ErrorCode::kInvalidArgument,
                     "volume-scoped record replayed against a standalone "
                     "disk"};
      }
      Result<std::shared_ptr<RedundancyScheme>> scheme =
          parse_scheme(rec.detail);
      if (!scheme.ok()) return scheme.error();
      return disk.try_set_scheme(std::move(scheme).take());
    }
    case RecordType::kCreateVolume:
    case RecordType::kDropVolume:
      return Error{ErrorCode::kInvalidArgument,
                   "pool record replayed against a standalone disk"};
    case RecordType::kFilePut:
    case RecordType::kFileRemove:
      return Error{ErrorCode::kInvalidArgument,
                   "file-store record replayed against a bare disk"};
    default:
      break;
  }
  return Error{ErrorCode::kCorruption, "unknown record type"};
}

Result<void> apply_policy(StoragePool& pool, const Record& rec) {
  switch (rec.type) {
    case RecordType::kSetStrategy: {
      if (rec.volume.empty()) {
        return Error{ErrorCode::kInvalidArgument,
                     "disk-scoped record replayed against a pool"};
      }
      Result<PlacementKind> kind = parse_kind(rec.detail);
      if (!kind.ok()) return kind.error();
      return pool.try_set_volume_strategy(rec.volume, kind.value());
    }
    case RecordType::kSetScheme: {
      if (rec.volume.empty()) {
        return Error{ErrorCode::kInvalidArgument,
                     "disk-scoped record replayed against a pool"};
      }
      Result<std::shared_ptr<RedundancyScheme>> scheme =
          parse_scheme(rec.detail);
      if (!scheme.ok()) return scheme.error();
      return pool.try_set_volume_scheme(rec.volume, std::move(scheme).take());
    }
    case RecordType::kCreateVolume: {
      Result<PlacementKind> kind = parse_kind(rec.device_name);
      if (!kind.ok()) return kind.error();
      Result<std::shared_ptr<RedundancyScheme>> scheme =
          parse_scheme(rec.detail);
      if (!scheme.ok()) return scheme.error();
      return guarded([&] {
        pool.create_volume(rec.volume, std::move(scheme).take(),
                           kind.value());
      });
    }
    case RecordType::kDropVolume:
      return guarded([&] { pool.drop_volume(rec.volume); });
    case RecordType::kFilePut:
    case RecordType::kFileRemove:
      return Error{ErrorCode::kInvalidArgument,
                   "file-store record replayed against a pool"};
    default:
      break;
  }
  return Error{ErrorCode::kCorruption, "unknown record type"};
}

/// A disk's or a pool's record.  The topology records apply alike: the
/// edits through their Result form, fail and rebuild through the calls
/// that throw by contract.
template <typename Target>
Result<void> apply(Target& target, const Record& rec) {
  switch (rec.type) {
    case RecordType::kAddDevice:
      return target.try_add_device(
          Device{rec.device, rec.capacity, rec.device_name});
    case RecordType::kRemoveDevice:
      return target.try_remove_device(rec.device);
    case RecordType::kResizeDevice:
      return target.try_resize_device(rec.device, rec.capacity);
    case RecordType::kFailDevice:
      return guarded([&] { target.fail_device(rec.device); });
    case RecordType::kRebuild:
      return guarded([&] { target.rebuild(); });
    default:
      return apply_policy(target, rec);
  }
}

Result<void> apply(FileStore& store, const Record& rec) {
  switch (rec.type) {
    case RecordType::kFilePut:
      if (content_fingerprint(rec.content) != rec.content_hash) {
        return Error{ErrorCode::kCorruption,
                     "content fingerprint mismatch for '" + rec.file + "'"};
      }
      return guarded([&] { store.put(rec.file, rec.content); });
    case RecordType::kFileRemove:
      return guarded([&] { store.remove(rec.file); });
    default:
      // Topology records target the store's underlying disk.
      return apply(store.disk(), rec);
  }
}

// ---- the replay loop -------------------------------------------------------

/// Replays `journal_in` over a target just loaded from a checkpoint.
template <typename Target>
Result<ReplayReport> replay(Target& target, Lsn watermark,
                            std::istream& journal_in,
                            const RecoveryOptions& options) {
  metrics::Registry& reg = metrics::Registry::global();
  metrics::Counter& replayed = reg.counter("rds_journal_replayed_records_total");
  metrics::Counter& corrupt = reg.counter("rds_journal_replay_corrupt_total");
  metrics::ScopedTimer span(reg.histogram("rds_journal_replay_latency_ns"));

  JournalReader reader(journal_in);
  ReplayReport report;
  report.watermark = watermark;
  report.last_applied = watermark;
  for (;;) {
    Result<std::optional<Record>> next = reader.next();
    // start_lsn() is 0 until a next() has read the header.  A journal that
    // starts past watermark + 1 lacks records that the snapshot lacks too:
    // replaying it would skip committed mutations.
    if (const Lsn start = reader.start_lsn();
        start > watermark && start - watermark > 1) {
      return Error{ErrorCode::kCorruption,
                   "journal starts at lsn " + std::to_string(start) +
                       " but the checkpoint's watermark is " +
                       std::to_string(watermark) + ": records lsn=" +
                       std::to_string(watermark + 1) + ".." +
                       std::to_string(start - 1) + " are missing"};
    }
    if (!next.ok()) {
      corrupt.inc();
      if (options.strict) return next.error();
      report.tail_corrupt = true;
      report.tail_error = next.error().message;
      break;
    }
    std::optional<Record> frame = std::move(next).take();
    if (!frame) break;  // clean end of journal
    const Record& rec = *frame;
    if (rec.lsn <= watermark) {
      ++report.records_skipped;
      continue;
    }
    Result<void> applied = apply(target, rec);
    if (!applied.ok()) {
      return Error{applied.code(),
                   "journal replay: record lsn=" + std::to_string(rec.lsn) +
                       " (" + std::string(to_string(rec.type)) +
                       "): " + applied.error().message};
    }
    ++report.records_applied;
    report.last_applied = rec.lsn;
    replayed.inc();
  }
  return report;
}

template <typename Loader>
auto recover_impl(std::istream& checkpoint_in, std::istream* journal_in,
                  const RecoveryOptions& options, Loader&& load)
    -> Result<std::pair<decltype(load(checkpoint_in)), ReplayReport>> {
  using Target = decltype(load(checkpoint_in));
  Result<Lsn> watermark = read_checkpoint_header(checkpoint_in);
  if (!watermark.ok()) return watermark.error();
  std::optional<Target> target;
  try {
    target.emplace(load(checkpoint_in));
  } catch (const std::exception& e) {
    return Error{ErrorCode::kCorruption,
                 std::string("checkpoint: ") + e.what()};
  }
  ReplayReport report;
  report.watermark = watermark.value();
  report.last_applied = watermark.value();
  if (journal_in) {
    Result<ReplayReport> replayed =
        replay(*target, watermark.value(), *journal_in, options);
    if (!replayed.ok()) return replayed.error();
    report = std::move(replayed).take();
  }
  metrics::Registry::global().counter("rds_journal_recoveries_total").inc();
  return std::pair<Target, ReplayReport>{std::move(*target),
                                         std::move(report)};
}

void bump_checkpoint_metric() {
  metrics::Registry::global().counter("rds_journal_checkpoints_total").inc();
}

}  // namespace

void write_checkpoint(const VirtualDisk& disk, Lsn watermark,
                      std::ostream& out) {
  write_checkpoint_header(out, watermark);
  Snapshot::save_disk(disk, out);
  bump_checkpoint_metric();
}

void write_checkpoint(const StoragePool& pool, Lsn watermark,
                      std::ostream& out) {
  write_checkpoint_header(out, watermark);
  Snapshot::save_pool(pool, out);
  bump_checkpoint_metric();
}

void write_checkpoint(const FileStore& store, Lsn watermark,
                      std::ostream& out) {
  write_checkpoint_header(out, watermark);
  Snapshot::save_file_store(store, out);
  bump_checkpoint_metric();
}

Lsn checkpoint(const VirtualDisk& disk, JournalWriter& writer,
               std::ostream& snapshot_out, std::ostream& fresh_journal) {
  const Lsn watermark = writer.last_lsn();
  write_checkpoint(disk, watermark, snapshot_out);
  writer.rotate(fresh_journal);
  return watermark;
}

Lsn checkpoint(const StoragePool& pool, JournalWriter& writer,
               std::ostream& snapshot_out, std::ostream& fresh_journal) {
  const Lsn watermark = writer.last_lsn();
  write_checkpoint(pool, watermark, snapshot_out);
  writer.rotate(fresh_journal);
  return watermark;
}

Lsn checkpoint(const FileStore& store, JournalWriter& writer,
               std::ostream& snapshot_out, std::ostream& fresh_journal) {
  const Lsn watermark = writer.last_lsn();
  write_checkpoint(store, watermark, snapshot_out);
  writer.rotate(fresh_journal);
  return watermark;
}

Result<Lsn> read_checkpoint_header(std::istream& in) {
  return read_sealed_header(in, kCheckpointMagic, "checkpoint", "watermark");
}

Result<DiskRecovery> Recovery::recover_disk(std::istream& checkpoint_in,
                                            std::istream* journal_in,
                                            const RecoveryOptions& options) {
  auto recovered = recover_impl(
      checkpoint_in, journal_in, options,
      [](std::istream& in) { return Snapshot::load_disk(in); });
  if (!recovered.ok()) return recovered.error();
  auto [disk, report] = std::move(recovered).take();
  return DiskRecovery{std::move(disk), std::move(report)};
}

Result<PoolRecovery> Recovery::recover_pool(std::istream& checkpoint_in,
                                            std::istream* journal_in,
                                            const RecoveryOptions& options) {
  auto recovered = recover_impl(
      checkpoint_in, journal_in, options,
      [](std::istream& in) { return Snapshot::load_pool(in); });
  if (!recovered.ok()) return recovered.error();
  auto [pool, report] = std::move(recovered).take();
  return PoolRecovery{std::move(pool), std::move(report)};
}

Result<FileStoreRecovery> Recovery::recover_file_store(
    std::istream& checkpoint_in, std::istream* journal_in,
    const RecoveryOptions& options) {
  auto recovered = recover_impl(
      checkpoint_in, journal_in, options,
      [](std::istream& in) { return Snapshot::load_file_store(in); });
  if (!recovered.ok()) return recovered.error();
  auto [store, report] = std::move(recovered).take();
  return FileStoreRecovery{std::move(store), std::move(report)};
}

}  // namespace rds::journal
