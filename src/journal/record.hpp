// Typed records of the write-ahead journal (docs/persistence.md).
//
// One Record describes one *committed* mutation of a VirtualDisk /
// StoragePool / FileStore: topology administration (add / remove / resize /
// fail / rebuild), per-volume policy changes (strategy swap, scheme swap,
// volume create/drop) and file-store content mutations (put / remove, with
// a content fingerprint so replay can verify the payload it re-applies).
// Records are flat values; encode_record / decode_record lay out the
// payload in the fields of src/util/byte_codec.hpp, and JournalWriter
// frames it with a length prefix and CRC-32 (src/journal/journal.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "src/cluster/device.hpp"
#include "src/core/result.hpp"
#include "src/placement/strategy_factory.hpp"
#include "src/storage/redundancy_scheme.hpp"

namespace rds::journal {

/// Log sequence number: strictly monotonic, assigned by the JournalWriter
/// at append time.  0 means "not yet appended" (and is the watermark of a
/// checkpoint taken before any record was durable).
using Lsn = std::uint64_t;

enum class RecordType : std::uint8_t {
  kAddDevice = 1,     ///< device joined (uid, capacity, name)
  kRemoveDevice = 2,  ///< healthy device drained and removed (uid)
  kResizeDevice = 3,  ///< device capacity changed (uid, new capacity)
  kFailDevice = 4,    ///< device crashed; degraded flag set (uid)
  kRebuild = 5,       ///< failed devices dropped, redundancy restored
  kSetStrategy = 6,   ///< placement strategy swapped (volume, kind name)
  kSetScheme = 7,     ///< redundancy scheme swapped (volume, scheme name)
  kCreateVolume = 8,  ///< pool volume created (volume, scheme, kind)
  kDropVolume = 9,    ///< pool volume dropped (volume)
  kFilePut = 10,      ///< file created/replaced (name, fingerprint, content)
  kFileRemove = 11,   ///< file deleted (name)
};

[[nodiscard]] std::string_view to_string(RecordType type) noexcept;

/// One journal record.  Which fields are meaningful depends on `type`
/// (unused ones stay default-initialized); encode_record serializes exactly
/// the meaningful set, so decode_record can insist the payload is fully
/// consumed.
struct Record {
  RecordType type = RecordType::kRebuild;
  Lsn lsn = 0;  ///< set by decode_record; the writer assigns its own

  DeviceId device = 0;             ///< device ops
  std::uint64_t capacity = 0;      ///< kAddDevice / kResizeDevice
  std::string device_name;         ///< kAddDevice
  std::string volume;              ///< policy ops; "" = the standalone disk
  std::string detail;              ///< strategy kind or scheme name
  std::string file;                ///< file ops
  std::uint64_t content_hash = 0;  ///< content_fingerprint of `content`
  Bytes content;                   ///< kFilePut payload

  friend bool operator==(const Record&, const Record&) = default;
};

// Factories, one per record type.  The LSN is assigned by the writer.
[[nodiscard]] Record make_add_device(const Device& device);
[[nodiscard]] Record make_remove_device(DeviceId uid);
[[nodiscard]] Record make_resize_device(DeviceId uid,
                                        std::uint64_t new_capacity);
[[nodiscard]] Record make_fail_device(DeviceId uid);
[[nodiscard]] Record make_rebuild();
[[nodiscard]] Record make_set_strategy(std::string volume, PlacementKind kind);
[[nodiscard]] Record make_set_scheme(std::string volume,
                                     std::string scheme_name);
[[nodiscard]] Record make_create_volume(std::string volume,
                                        std::string scheme_name,
                                        PlacementKind kind);
[[nodiscard]] Record make_drop_volume(std::string volume);
[[nodiscard]] Record make_file_put(std::string file,
                                   std::span<const std::uint8_t> content);
[[nodiscard]] Record make_file_remove(std::string file);

/// Serializes a record as sequence number `lsn` (lsn, type, then the
/// type-specific fields) into the journal's little-endian payload form;
/// `record.lsn` itself is not read, so the writer stamps a caller's record
/// without copying it.  Throws std::length_error for a string longer than
/// its u32 prefix holds.
[[nodiscard]] Bytes encode_record(const Record& record, Lsn lsn);

/// Parses a payload produced by encode_record.  kCorruption when the
/// payload is truncated, carries an unknown type tag, or has trailing
/// bytes -- the message says which.
[[nodiscard]] Result<Record> decode_record(
    std::span<const std::uint8_t> payload);

}  // namespace rds::journal
