// FileStore: a minimal named-object layer on top of VirtualDisk.
//
// What a downstream user of the virtualization actually touches: named
// byte streams of arbitrary length.  The store chops file contents into
// fixed-size logical blocks, allocates block addresses from a free list,
// and delegates redundancy + placement entirely to the VirtualDisk -- so
// files transparently survive device failures, migrations and pool
// reshapes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/storage/virtual_disk.hpp"

namespace rds {

struct FileInfo {
  std::string name;
  std::uint64_t size = 0;
  std::uint64_t blocks = 0;
};

class FileStore {
 public:
  /// The store takes ownership of the disk.  `block_size` is the logical
  /// block payload in bytes.
  FileStore(VirtualDisk disk, std::size_t block_size = 4096);

  /// Creates or replaces a file.  Throws (value_or_throw's mapping) when a
  /// block cannot be stored; the blocks this put already stored are trimmed
  /// and their ids freed, and a replaced file keeps its previous version.
  void put(const std::string& name, std::span<const std::uint8_t> content);

  /// Reads a file back.  ok(nullopt) when the file does not exist; an
  /// error (kUnrecoverable, kIoError, ...) naming the failing block when a
  /// stored file cannot be reconstructed.
  [[nodiscard]] Result<std::optional<Bytes>> try_get(const std::string& name);

  /// Deletes a file, releasing its blocks.  Returns whether it existed.
  bool remove(const std::string& name);

  [[nodiscard]] bool contains(const std::string& name) const {
    return files_.contains(name);
  }
  [[nodiscard]] std::vector<FileInfo> list() const;
  [[nodiscard]] std::size_t file_count() const noexcept {
    return files_.size();
  }
  [[nodiscard]] std::size_t block_size() const noexcept { return block_size_; }

  /// The underlying disk, for pool administration (add/remove/fail/rebuild).
  [[nodiscard]] VirtualDisk& disk() noexcept { return disk_; }
  [[nodiscard]] const VirtualDisk& disk() const noexcept { return disk_; }

  /// Attaches a journal sink to the disk's device set: file mutations
  /// (put/remove, with content fingerprints) are appended through it, so
  /// they and the disk's topology mutations land in one commit-ordered
  /// journal (docs/persistence.md).  Pass nullptr to detach.
  void set_journal(std::shared_ptr<journal::JournalSink> sink);

 private:
  friend class Snapshot;
  struct FileEntry {
    std::vector<std::uint64_t> block_ids;
    std::uint64_t size = 0;
  };

  [[nodiscard]] std::uint64_t allocate_block();
  void release_blocks(const FileEntry& entry);

  VirtualDisk disk_;
  std::size_t block_size_;
  std::map<std::string, FileEntry> files_;
  std::vector<std::uint64_t> free_blocks_;
  std::uint64_t next_block_ = 0;
};

}  // namespace rds
