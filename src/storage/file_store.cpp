#include "src/storage/file_store.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/journal/record.hpp"

namespace rds {

FileStore::FileStore(VirtualDisk disk, std::size_t block_size)
    : disk_(std::move(disk)), block_size_(block_size) {
  if (block_size_ == 0) {
    throw std::invalid_argument("FileStore: zero block size");
  }
}

std::uint64_t FileStore::allocate_block() {
  if (!free_blocks_.empty()) {
    const std::uint64_t id = free_blocks_.back();
    free_blocks_.pop_back();
    return id;
  }
  return next_block_++;
}

void FileStore::release_blocks(const FileEntry& entry) {
  // kNotFound only for the block a failed put could not store.
  for (const std::uint64_t id : entry.block_ids) (void)disk_.try_trim(id);
  free_blocks_.insert(free_blocks_.end(), entry.block_ids.begin(),
                      entry.block_ids.end());
}

void FileStore::put(const std::string& name,
                    std::span<const std::uint8_t> content) {
  // Replace semantics: free the old blocks after the new content is in
  // place so a failed write cannot orphan the previous version's metadata.
  FileEntry entry;
  entry.size = content.size();
  const std::uint64_t blocks =
      (content.size() + block_size_ - 1) / block_size_;
  entry.block_ids.reserve(blocks);
  for (std::uint64_t b = 0; b < blocks; ++b) {
    const std::uint64_t id = allocate_block();
    entry.block_ids.push_back(id);
    const std::size_t begin = static_cast<std::size_t>(b) * block_size_;
    const std::size_t end =
        std::min(content.size(), begin + block_size_);
    const Result<void> written =
        disk_.try_write(id, content.subspan(begin, end - begin));
    if (!written.ok()) {
      // Undo this put so no block is left that the store does not own.
      release_blocks(entry);
      throw_error(written.error());
    }
  }

  const auto old = files_.find(name);
  if (old != files_.end()) {
    release_blocks(old->second);
    old->second = std::move(entry);
  } else {
    files_.emplace(name, std::move(entry));
  }
  // The record copies and hashes the whole content: build it only for a
  // sink that takes it (replay puts run unjournaled).
  DeviceSet& set = *disk_.set_;
  const MutexLock lock(set.mu_);
  if (set.journal_) {
    set.journal_locked(journal::make_file_put(name, content)).value_or_throw();
  }
}

Result<std::optional<Bytes>> FileStore::try_get(const std::string& name) {
  const auto it = files_.find(name);
  if (it == files_.end()) return std::optional<Bytes>{};
  Bytes content;
  content.reserve(it->second.size);
  for (const std::uint64_t id : it->second.block_ids) {
    Result<Bytes> block = disk_.try_read(id);
    if (!block.ok()) {
      return Error{block.code(), "FileStore: '" + name + "' block " +
                                     std::to_string(id) + ": " +
                                     block.error().message};
    }
    content.insert(content.end(), block.value().begin(), block.value().end());
  }
  content.resize(it->second.size);
  return std::optional<Bytes>{std::move(content)};
}

bool FileStore::remove(const std::string& name) {
  const auto it = files_.find(name);
  if (it == files_.end()) return false;
  release_blocks(it->second);
  files_.erase(it);
  DeviceSet& set = *disk_.set_;
  const MutexLock lock(set.mu_);
  set.journal_locked(journal::make_file_remove(name)).value_or_throw();
  return true;
}

void FileStore::set_journal(std::shared_ptr<journal::JournalSink> sink) {
  disk_.set_journal(std::move(sink));
}

std::vector<FileInfo> FileStore::list() const {
  std::vector<FileInfo> out;
  out.reserve(files_.size());
  for (const auto& [name, entry] : files_) {
    out.push_back({name, entry.size, entry.block_ids.size()});
  }
  return out;
}

}  // namespace rds
