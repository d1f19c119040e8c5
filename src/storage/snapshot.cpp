#include "src/storage/snapshot.hpp"

#include <istream>
#include <ostream>
#include <stdexcept>
#include <string_view>

#include "src/util/byte_codec.hpp"

namespace rds {
namespace {

// The last byte is the format version.  Version 3 stores each fragment's
// CRC-32 with its bytes.  Version 2 kept the CRCs in a per-volume table,
// and version 1 stored FNV-1a checksums, which no longer verify.
constexpr char kDiskMagic[] = "RDSDISK3";
constexpr char kPoolMagic[] = "RDSPOOL3";
constexpr char kFileStoreMagic[] = "RDSFSTO3";

void expect_magic(ByteReader& in, std::string_view want) {
  const std::string refused = magic_mismatch(in.magic(), want);
  if (!refused.empty()) throw std::runtime_error("snapshot: " + refused);
}

// ---- sections --------------------------------------------------------------
//
// Each walk below moves its fields in stream order: through a ByteWriter
// for a const value, through a ByteReader into a mutable one.  Counts are
// claims, so a loader grows its lists per element read.

template <typename D, typename Io>
void walk_device(D& d, Io& io) {
  io.field(d.uid);
  io.field(d.capacity);
  io.field(d.name);
}

template <typename K, typename F, typename Io>
void walk_fragment(K& key, F& fragment, Io& io) {
  io.field(key.block);
  io.field(key.fragment);
  io.field(key.volume);
  // The stored CRC is kept, never recomputed: rot inside the snapshot file
  // then fails the fragment's check on read.
  io.field(fragment.crc);
  io.field(fragment.bytes);
}

void save_config(ByteWriter& out, const ClusterConfig& config) {
  out.length32(config.size());
  for (const Device& d : config.devices()) walk_device(d, out);
}

ClusterConfig load_config(ByteReader& in) {
  std::vector<Device> devices;
  for (auto n = in.read<std::uint32_t>(); n > 0; --n) {
    walk_device(devices.emplace_back(), in);
  }
  return ClusterConfig(std::move(devices));
}

void save_store(ByteWriter& out, const DeviceStore& store) {
  walk_device(store.device(), out);
  out.field(std::uint8_t{store.failed()});
  // A failed device's contents are unreadable: persist the flag only.
  out.field(std::uint64_t{store.failed() ? 0 : store.used()});
  if (store.failed()) return;
  for (const auto& [key, fragment] : store.contents()) {
    walk_fragment(key, fragment, out);
  }
}

std::shared_ptr<DeviceStore> load_store(ByteReader& in) {
  Device d;
  walk_device(d, in);
  const bool failed = in.read<std::uint8_t>() != 0;
  auto store = std::make_shared<DeviceStore>(d);
  for (auto n = in.read<std::uint64_t>(); n > 0; --n) {
    FragmentKey key;
    Fragment fragment;
    walk_fragment(key, fragment, in);
    store->write(key, std::move(fragment));
  }
  if (failed) store->fail();
  return store;
}

using Stores = std::unordered_map<DeviceId, std::shared_ptr<DeviceStore>>;

/// A u32 count of stores, then each store.
void save_stores(ByteWriter& out, const Stores& stores) {
  out.length32(stores.size());
  for (const auto& [uid, store] : stores) save_store(out, *store);
}

Stores load_stores(ByteReader& in) {
  Stores stores;
  for (auto n = in.read<std::uint32_t>(); n > 0; --n) {
    auto store = load_store(in);
    const DeviceId uid = store->device().uid;
    stores.emplace(uid, std::move(store));
  }
  return stores;
}

/// A u64 count of block ids, then each id.
void save_ids(ByteWriter& out, const std::vector<std::uint64_t>& ids) {
  out.field(std::uint64_t{ids.size()});
  for (const std::uint64_t id : ids) out.field(id);
}

std::vector<std::uint64_t> load_ids(ByteReader& in) {
  std::vector<std::uint64_t> ids;
  for (auto n = in.read<std::uint64_t>(); n > 0; --n) {
    ids.push_back(in.read<std::uint64_t>());
  }
  return ids;
}

}  // namespace

void Snapshot::save_volume(ByteWriter& out, const VirtualDisk& disk) {
  out.field(static_cast<std::uint8_t>(disk.kind_));
  out.field(disk.volume_id_);
  out.field(disk.scheme_->name());
  save_config(out, disk.config_);
  out.field(std::uint64_t{disk.blocks_.size()});
  for (const auto& [block, size] : disk.blocks_) {
    out.field(block);
    out.field(std::uint64_t{size});
  }
  // Stats are observability, not state: deliberately not persisted.
}

VirtualDisk Snapshot::load_volume(ByteReader& in, Stores stores,
                                  const StoragePool* pool) {
  const auto kind = static_cast<PlacementKind>(in.read<std::uint8_t>());
  const auto volume_id = in.read<std::uint32_t>();
  const auto scheme_name = in.read<std::string>();
  ClusterConfig config = load_config(in);
  std::shared_ptr<DeviceSet> set;
  if (pool == nullptr) {
    set = std::make_shared<DeviceSet>(std::move(config), std::move(stores));
  } else {
    const MutexLock lock(pool->mu_);
    if (!(config == pool->config_)) {
      throw std::runtime_error(
          "snapshot: a volume's configuration differs from its pool's");
    }
    set = pool->set_;
  }
  VirtualDisk disk(std::move(set), make_scheme_from_name(scheme_name), kind,
                   volume_id, /*pooled=*/pool != nullptr);
  {
    // The disk is private to this function, but its block table is a
    // lock-guarded member; take the lock so the access is provably
    // consistent under the thread-safety analysis.
    const MutexLock lock(disk.mu_);
    for (auto n = in.read<std::uint64_t>(); n > 0; --n) {
      const auto block = in.read<std::uint64_t>();
      disk.blocks_[block] = static_cast<std::size_t>(in.read<std::uint64_t>());
    }
  }
  return disk;
}

void Snapshot::save_disk(const VirtualDisk& disk, std::ostream& stream) {
  ByteWriter out(stream);
  out.magic(kDiskMagic);
  {
    const MutexLock lock(disk.mu_);
    save_stores(out, disk.stores_);
    save_volume(out, disk);
  }
  if (!stream) throw std::runtime_error("Snapshot: write failed");
}

VirtualDisk Snapshot::load_disk(std::istream& stream) {
  ByteReader in(stream);
  expect_magic(in, kDiskMagic);
  Stores stores = load_stores(in);
  return load_volume(in, std::move(stores), nullptr);
}

void Snapshot::save_pool(const StoragePool& pool, std::ostream& stream) {
  const MutexLock lock(pool.mu_);
  ByteWriter out(stream);
  out.magic(kPoolMagic);
  out.field(pool.next_volume_id_);
  save_config(out, pool.config_);
  save_stores(out, pool.stores_);
  out.length32(pool.volumes_.size());
  for (const auto& [name, volume] : pool.volumes_) {
    const VirtualDisk& disk = *volume;
    disk.mu_.assert_held();  // the pool's lock: every volume shares it
    out.field(name);
    save_volume(out, disk);
  }
  if (!stream) throw std::runtime_error("Snapshot: write failed");
}

StoragePool Snapshot::load_pool(std::istream& stream) {
  ByteReader in(stream);
  expect_magic(in, kPoolMagic);
  const auto next_volume_id = in.read<std::uint32_t>();
  ClusterConfig config = load_config(in);
  Stores stores = load_stores(in);

  // The pool is local to this function; its lock only makes the guarded
  // members' access provable.  A loading volume takes the same lock, so
  // the pool's is taken per access.
  StoragePool pool(
      std::make_shared<DeviceSet>(std::move(config), std::move(stores)));
  for (auto n = in.read<std::uint32_t>(); n > 0; --n) {
    auto name = in.read<std::string>();
    auto volume = std::make_shared<VirtualDisk>(load_volume(in, {}, &pool));
    const MutexLock lock(pool.mu_);
    pool.volumes_.emplace(std::move(name), std::move(volume));
  }
  {
    const MutexLock lock(pool.mu_);
    pool.next_volume_id_ = next_volume_id;
    pool.volumes_gauge_->set(static_cast<std::int64_t>(pool.volumes_.size()));
  }
  return pool;
}

void Snapshot::save_file_store(const FileStore& store, std::ostream& stream) {
  ByteWriter out(stream);
  out.magic(kFileStoreMagic);
  out.field(std::uint64_t{store.block_size_});
  out.field(store.next_block_);
  save_ids(out, store.free_blocks_);
  out.length32(store.files_.size());
  for (const auto& [name, entry] : store.files_) {
    out.field(name);
    out.field(entry.size);
    save_ids(out, entry.block_ids);
  }
  save_disk(store.disk_, stream);
  if (!stream) throw std::runtime_error("Snapshot: write failed");
}

FileStore Snapshot::load_file_store(std::istream& stream) {
  ByteReader in(stream);
  expect_magic(in, kFileStoreMagic);
  const auto block_size = in.read<std::uint64_t>();
  const auto next_block = in.read<std::uint64_t>();
  std::vector<std::uint64_t> free_blocks = load_ids(in);
  std::map<std::string, FileStore::FileEntry> files;
  for (auto n = in.read<std::uint32_t>(); n > 0; --n) {
    auto name = in.read<std::string>();
    FileStore::FileEntry entry;
    entry.size = in.read<std::uint64_t>();
    entry.block_ids = load_ids(in);
    files.emplace(std::move(name), std::move(entry));
  }
  FileStore store(load_disk(stream), static_cast<std::size_t>(block_size));
  store.files_ = std::move(files);
  store.free_blocks_ = std::move(free_blocks);
  store.next_block_ = next_block;
  return store;
}

}  // namespace rds
