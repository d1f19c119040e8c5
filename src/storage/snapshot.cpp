#include "src/storage/snapshot.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string_view>

namespace rds {
namespace {

// The last byte is the format version.  Version 3 stores each fragment's
// CRC-32 with its bytes.  Version 2 kept the CRCs in a per-volume table,
// and version 1 stored FNV-1a checksums, which no longer verify.
constexpr char kDiskMagic[] = "RDSDISK3";
constexpr char kPoolMagic[] = "RDSPOOL3";
constexpr char kFileStoreMagic[] = "RDSFSTO3";

// A length field is only a claim until its bytes arrive: buffers grow by at
// most this much per read, so a corrupt length costs memory only for the
// bytes the stream really holds.
constexpr std::uint64_t kReadChunk = 1 << 16;

// ---- little-endian primitives ---------------------------------------------

void put_u8(std::ostream& out, std::uint8_t v) {
  out.put(static_cast<char>(v));
}

void put_u32(std::ostream& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) put_u8(out, static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::ostream& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) put_u8(out, static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_string(std::ostream& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

void put_bytes(std::ostream& out, const Bytes& b) {
  put_u64(out, b.size());
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

std::uint8_t get_u8(std::istream& in) {
  const int c = in.get();
  if (c == std::char_traits<char>::eof()) {
    throw std::runtime_error("snapshot: truncated stream");
  }
  return static_cast<std::uint8_t>(c);
}

std::uint32_t get_u32(std::istream& in) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(get_u8(in)) << (8 * i);
  return v;
}

std::uint64_t get_u64(std::istream& in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(get_u8(in)) << (8 * i);
  return v;
}

/// Reads a `size`-byte field in chunks of at most kReadChunk.
template <typename Buffer>
Buffer get_exactly(std::istream& in, std::uint64_t size) {
  Buffer buf;
  while (buf.size() < size) {
    const std::size_t have = buf.size();
    const auto step = static_cast<std::size_t>(
        std::min<std::uint64_t>(size - have, kReadChunk));
    buf.resize(have + step);
    in.read(reinterpret_cast<char*>(buf.data() + have),
            static_cast<std::streamsize>(step));
    if (in.gcount() != static_cast<std::streamsize>(step)) {
      throw std::runtime_error("snapshot: truncated stream");
    }
  }
  return buf;
}

std::string get_string(std::istream& in) {
  return get_exactly<std::string>(in, get_u32(in));
}

Bytes get_bytes(std::istream& in) {
  return get_exactly<Bytes>(in, get_u64(in));
}

void expect_magic(std::istream& in, const char* magic) {
  char buf[8];
  in.read(buf, 8);
  const std::string_view got(buf, in.gcount() == 8 ? 8 : 0);
  const std::string_view want(magic, 8);
  if (got == want) return;
  if (!got.empty() && got.substr(0, 7) == want.substr(0, 7)) {
    throw std::runtime_error(
        "snapshot: " + std::string(got) + " is format version " +
        std::string(got.substr(7)) + "; this build reads only version " +
        std::string(want.substr(7)) + " (" + std::string(want) +
        "), which stores each fragment's CRC-32 with its bytes");
  }
  throw std::runtime_error("snapshot: bad magic/version");
}

// ---- sections --------------------------------------------------------------

void put_config(std::ostream& out, const ClusterConfig& config) {
  put_u32(out, static_cast<std::uint32_t>(config.size()));
  for (const Device& d : config.devices()) {
    put_u64(out, d.uid);
    put_u64(out, d.capacity);
    put_string(out, d.name);
  }
}

ClusterConfig get_config(std::istream& in) {
  const std::uint32_t n = get_u32(in);
  std::vector<Device> devices;  // grown per device read: `n` is a claim
  for (std::uint32_t i = 0; i < n; ++i) {
    Device d;
    d.uid = get_u64(in);
    d.capacity = get_u64(in);
    d.name = get_string(in);
    devices.push_back(std::move(d));
  }
  return ClusterConfig(std::move(devices));
}

void put_store(std::ostream& out, const DeviceStore& store) {
  put_u64(out, store.device().uid);
  put_u64(out, store.device().capacity);
  put_string(out, store.device().name);
  put_u8(out, store.failed() ? 1 : 0);
  // A failed device's contents are unreadable: persist the flag only.
  if (store.failed()) {
    put_u64(out, 0);
    return;
  }
  put_u64(out, store.used());
  for (const auto& [key, fragment] : store.contents()) {
    put_u64(out, key.block);
    put_u32(out, key.fragment);
    put_u32(out, key.volume);
    put_u32(out, fragment.crc);
    put_bytes(out, fragment.bytes);
  }
}

std::shared_ptr<DeviceStore> get_store(std::istream& in) {
  Device d;
  d.uid = get_u64(in);
  d.capacity = get_u64(in);
  d.name = get_string(in);
  const bool failed = get_u8(in) != 0;
  auto store = std::make_shared<DeviceStore>(d);
  const std::uint64_t fragments = get_u64(in);
  for (std::uint64_t f = 0; f < fragments; ++f) {
    FragmentKey key;
    key.block = get_u64(in);
    key.fragment = get_u32(in);
    key.volume = get_u32(in);
    // The stored CRC is kept, never recomputed: rot inside the snapshot
    // file then fails the fragment's check on read.
    const std::uint32_t crc = get_u32(in);
    store->write(key, {get_bytes(in), crc});
  }
  if (failed) store->fail();
  return store;
}

}  // namespace

void Snapshot::put_volume_meta(std::ostream& out, const VirtualDisk& disk) {
  const MutexLock lock(disk.mu_);
  put_u8(out, static_cast<std::uint8_t>(disk.kind_));
  put_u32(out, disk.volume_id_);
  put_string(out, disk.scheme_->name());
  put_config(out, disk.config_);
  put_u64(out, disk.blocks_.size());
  for (const auto& [block, size] : disk.blocks_) {
    put_u64(out, block);
    put_u64(out, size);
  }
  // Stats are observability, not state: deliberately not persisted.
}

VirtualDisk Snapshot::get_volume_meta(
    std::istream& in,
    std::unordered_map<DeviceId, std::shared_ptr<DeviceStore>> stores) {
  const auto kind = static_cast<PlacementKind>(get_u8(in));
  const std::uint32_t volume_id = get_u32(in);
  const std::string scheme_name = get_string(in);
  ClusterConfig config = get_config(in);
  VirtualDisk disk(std::move(config), make_scheme_from_name(scheme_name),
                   kind, volume_id, std::move(stores));
  {
    // The disk is private to this function, but its block table is a
    // lock-guarded member; take the lock so the access is provably
    // consistent under the thread-safety analysis.
    const MutexLock lock(disk.mu_);
    const std::uint64_t blocks = get_u64(in);
    for (std::uint64_t b = 0; b < blocks; ++b) {
      const std::uint64_t block = get_u64(in);
      disk.blocks_[block] = get_u64(in);
    }
  }
  return disk;
}

void Snapshot::save_disk(const VirtualDisk& disk, std::ostream& out) {
  if (disk.reshaping()) {
    throw std::runtime_error("Snapshot: drain the reshape before saving");
  }
  out.write(kDiskMagic, 8);
  {
    // Scoped: put_volume_meta takes the same (non-reentrant) lock.
    const MutexLock lock(disk.mu_);
    put_u32(out, static_cast<std::uint32_t>(disk.stores_.size()));
    for (const auto& [uid, store] : disk.stores_) put_store(out, *store);
  }
  put_volume_meta(out, disk);
  if (!out) throw std::runtime_error("Snapshot: write failed");
}

VirtualDisk Snapshot::load_disk(std::istream& in) {
  expect_magic(in, kDiskMagic);
  const std::uint32_t n = get_u32(in);
  std::unordered_map<DeviceId, std::shared_ptr<DeviceStore>> stores;
  for (std::uint32_t i = 0; i < n; ++i) {
    auto store = get_store(in);
    const DeviceId uid = store->device().uid;
    stores.emplace(uid, std::move(store));
  }
  return get_volume_meta(in, std::move(stores));
}

void Snapshot::save_pool(const StoragePool& pool, std::ostream& out) {
  // Lock order pool -> volume: the per-disk sections below take each
  // volume's own lock while the pool lock is held.
  const MutexLock lock(pool.mu_);
  for (const auto& [name, disk] : pool.volumes_) {
    if (disk->reshaping()) {
      throw std::runtime_error("Snapshot: drain reshapes before saving");
    }
  }
  out.write(kPoolMagic, 8);
  put_u32(out, pool.next_volume_id_);
  put_config(out, pool.config_);
  put_u32(out, static_cast<std::uint32_t>(pool.stores_.size()));
  for (const auto& [uid, store] : pool.stores_) put_store(out, *store);
  put_u32(out, static_cast<std::uint32_t>(pool.volumes_.size()));
  for (const auto& [name, disk] : pool.volumes_) {
    put_string(out, name);
    put_volume_meta(out, *disk);
  }
  if (!out) throw std::runtime_error("Snapshot: write failed");
}

StoragePool Snapshot::load_pool(std::istream& in) {
  expect_magic(in, kPoolMagic);
  const std::uint32_t next_volume_id = get_u32(in);
  ClusterConfig config = get_config(in);

  std::unordered_map<DeviceId, std::shared_ptr<DeviceStore>> stores;
  const std::uint32_t n_stores = get_u32(in);
  for (std::uint32_t i = 0; i < n_stores; ++i) {
    auto store = get_store(in);
    const DeviceId uid = store->device().uid;
    stores.emplace(uid, std::move(store));
  }

  StoragePool pool{ClusterConfig{}};
  {
    // Same reasoning as get_volume_meta: the pool is local, its tables are
    // guarded.
    const MutexLock lock(pool.mu_);
    pool.config_ = std::move(config);
    pool.stores_ = std::move(stores);
    pool.next_volume_id_ = next_volume_id;

    const std::uint32_t n_volumes = get_u32(in);
    for (std::uint32_t i = 0; i < n_volumes; ++i) {
      std::string name = get_string(in);
      pool.volumes_.emplace(
          std::move(name),
          std::make_unique<VirtualDisk>(get_volume_meta(in, pool.stores_)));
    }
  }
  return pool;
}

void Snapshot::save_file_store(const FileStore& store, std::ostream& out) {
  out.write(kFileStoreMagic, 8);
  put_u64(out, store.block_size_);
  put_u64(out, store.next_block_);
  put_u64(out, store.free_blocks_.size());
  for (const std::uint64_t id : store.free_blocks_) put_u64(out, id);
  put_u32(out, static_cast<std::uint32_t>(store.files_.size()));
  for (const auto& [name, entry] : store.files_) {
    put_string(out, name);
    put_u64(out, entry.size);
    put_u64(out, entry.block_ids.size());
    for (const std::uint64_t id : entry.block_ids) put_u64(out, id);
  }
  save_disk(store.disk_, out);
  if (!out) throw std::runtime_error("Snapshot: write failed");
}

FileStore Snapshot::load_file_store(std::istream& in) {
  expect_magic(in, kFileStoreMagic);
  const std::uint64_t block_size = get_u64(in);
  const std::uint64_t next_block = get_u64(in);
  // Counted lists grow per element read: a count is only a claim.
  std::vector<std::uint64_t> free_blocks;
  for (std::uint64_t n = get_u64(in); n > 0; --n) {
    free_blocks.push_back(get_u64(in));
  }
  std::map<std::string, FileStore::FileEntry> files;
  const std::uint32_t n_files = get_u32(in);
  for (std::uint32_t i = 0; i < n_files; ++i) {
    std::string name = get_string(in);
    FileStore::FileEntry entry;
    entry.size = get_u64(in);
    for (std::uint64_t n = get_u64(in); n > 0; --n) {
      entry.block_ids.push_back(get_u64(in));
    }
    files.emplace(std::move(name), std::move(entry));
  }
  FileStore store(load_disk(in), static_cast<std::size_t>(block_size));
  store.files_ = std::move(files);
  store.free_blocks_ = std::move(free_blocks);
  store.next_block_ = next_block;
  return store;
}

}  // namespace rds
