// Snapshot persistence: save/restore the full state of a VirtualDisk or a
// StoragePool to a byte stream (metadata, fragment records -- bytes with
// their CRC-32 -- and failure flags).  Restart semantics for the simulation
// stack: a loaded snapshot behaves identically to the original, including
// degraded state.
//
// Format: the fields of src/util/byte_codec.hpp (little-endian,
// length-prefixed) behind a versioned magic.  Not a wire protocol -- a local
// persistence format with a strict version check.  Length fields are claims
// read in bounded chunks, so a corrupt length fails as truncated input
// instead of allocating what it claims.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>

#include "src/storage/file_store.hpp"
#include "src/storage/storage_pool.hpp"
#include "src/storage/virtual_disk.hpp"

namespace rds {

class ByteReader;
class ByteWriter;

class Snapshot {
 public:
  /// Serializes a standalone disk (configuration, placement kind, scheme,
  /// block table, device stores with their fragment records and failure
  /// flags).
  static void save_disk(const VirtualDisk& disk, std::ostream& out);

  /// Restores a disk saved by save_disk.  Throws std::runtime_error on a
  /// bad magic/version or truncated input; an older format version is
  /// rejected with a message that names it.
  static VirtualDisk load_disk(std::istream& in);

  /// Serializes a pool: shared stores once, then every volume's metadata.
  static void save_pool(const StoragePool& pool, std::ostream& out);
  static StoragePool load_pool(std::istream& in);

  /// Serializes a file store: the file table, free list and block
  /// allocator, then the underlying disk (save_disk format, embedded).
  static void save_file_store(const FileStore& store, std::ostream& out);
  static FileStore load_file_store(std::istream& in);

 private:
  // Volume metadata section (needs VirtualDisk friendship; stores are
  // serialized separately so pool snapshots write shared payloads once).
  // The caller of save_volume holds the set's lock.
  static void save_volume(ByteWriter& out, const VirtualDisk& disk)
      RDS_REQUIRES(disk.mu_);
  /// A volume of `pool`, or, with none, a standalone disk on `stores`.
  static VirtualDisk load_volume(ByteReader& in, DeviceSet::Stores stores,
                                 const StoragePool* pool);
};

}  // namespace rds
