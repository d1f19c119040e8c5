#include "src/storage/storage_pool.hpp"

#include <stdexcept>
#include <utility>

#include "src/journal/journal.hpp"
#include "src/journal/record.hpp"
#include "src/metrics/registry.hpp"

namespace rds {

StoragePool::StoragePool(ClusterConfig config) : config_(std::move(config)) {
  for (const Device& d : config_.devices()) {
    stores_.emplace(d.uid, std::make_shared<DeviceStore>(d));
  }
}

VirtualDisk& StoragePool::create_volume(
    const std::string& name, std::shared_ptr<RedundancyScheme> scheme,
    PlacementKind kind) {
  const MutexLock lock(mu_);
  if (volumes_.contains(name)) {
    throw std::invalid_argument("StoragePool: duplicate volume " + name);
  }
  const std::string scheme_name = scheme ? scheme->name() : std::string{};
  auto disk = std::make_unique<VirtualDisk>(config_, std::move(scheme), kind,
                                            next_volume_id_++, stores_);
  VirtualDisk& ref = *disk;
  volumes_.emplace(name, std::move(disk));
  metrics::Registry::global().counter("rds_pool_volumes_created_total").inc();
  journal_locked(journal::make_create_volume(name, scheme_name, kind));
  return ref;
}

void StoragePool::set_journal(std::shared_ptr<journal::JournalSink> sink) {
  const MutexLock lock(mu_);
  journal_ = std::move(sink);
}

void StoragePool::journal_locked(const journal::Record& record) {
  if (!journal_) return;
  const Result<journal::Lsn> appended = journal_->append(record);
  if (!appended.ok()) {
    throw std::runtime_error(
        "StoragePool: operation committed in memory but journaling failed; "
        "snapshot and rotate the journal before further mutations: " +
        appended.error().message);
  }
}

VirtualDisk& StoragePool::volume(const std::string& name) {
  const MutexLock lock(mu_);
  const auto it = volumes_.find(name);
  if (it == volumes_.end()) {
    throw std::out_of_range("StoragePool: unknown volume " + name);
  }
  return *it->second;
}

std::vector<std::string> StoragePool::volume_names() const {
  const MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(volumes_.size());
  for (const auto& [name, disk] : volumes_) names.push_back(name);
  return names;
}

bool StoragePool::drop_volume(const std::string& name) {
  const MutexLock lock(mu_);
  const auto it = volumes_.find(name);
  if (it == volumes_.end()) return false;
  // Release the volume's fragments so the shared capacity is reusable.
  for (const std::uint64_t block : it->second->block_ids()) {
    (void)it->second->try_trim(block);  // listed, so it exists
  }
  volumes_.erase(it);
  journal_locked(journal::make_drop_volume(name));
  return true;
}

void StoragePool::add_device(const Device& device) {
  const MutexLock lock(mu_);
  if (config_.contains(device.uid)) {
    throw std::invalid_argument("StoragePool: duplicate device uid");
  }
  auto store = std::make_shared<DeviceStore>(device);
  for (const auto& [name, disk] : volumes_) {
    disk->attach_device(device, store);
  }
  stores_.emplace(device.uid, std::move(store));
  config_.add_device(device);
  journal_locked(journal::make_add_device(device));
}

void StoragePool::remove_device(DeviceId uid) {
  const MutexLock lock(mu_);
  if (!config_.contains(uid)) {
    throw std::out_of_range("StoragePool: unknown device");
  }
  for (const auto& [name, disk] : volumes_) {
    disk->try_remove_device(uid).value_or_throw();
  }
  stores_.erase(uid);
  config_.remove_device(uid);
  journal_locked(journal::make_remove_device(uid));
}

void StoragePool::resize_device(DeviceId uid, std::uint64_t new_capacity) {
  const MutexLock lock(mu_);
  const auto it = stores_.find(uid);
  if (it == stores_.end() || !config_.contains(uid)) {
    throw std::out_of_range("StoragePool: unknown device");
  }
  if (it->second->failed()) {
    throw std::invalid_argument(
        "StoragePool: rebuild() before resizing a failed device");
  }
  ClusterConfig next = config_;
  next.resize_device(uid, new_capacity);  // validates zero capacity
  const std::uint64_t old_capacity = it->second->capacity();
  if (new_capacity == old_capacity) return;
  if (new_capacity > old_capacity) {
    it->second->resize(new_capacity);  // grow the store first
    for (const auto& [name, disk] : volumes_) {
      disk->apply_config(next).value_or_throw();
    }
  } else {
    // Shrink: drain every volume off the lost capacity first; resize()
    // then validates the store really is under the new cap.
    for (const auto& [name, disk] : volumes_) {
      disk->apply_config(next).value_or_throw();
    }
    it->second->resize(new_capacity);
  }
  config_ = std::move(next);
  journal_locked(journal::make_resize_device(uid, new_capacity));
}

void StoragePool::set_volume_strategy(const std::string& name,
                                      PlacementKind kind) {
  const MutexLock lock(mu_);
  const auto it = volumes_.find(name);
  if (it == volumes_.end()) {
    throw std::out_of_range("StoragePool: unknown volume " + name);
  }
  it->second->try_set_strategy(kind).value_or_throw();
  journal_locked(journal::make_set_strategy(name, kind));
}

void StoragePool::set_volume_scheme(const std::string& name,
                                    std::shared_ptr<RedundancyScheme> scheme) {
  const MutexLock lock(mu_);
  if (!scheme) throw std::invalid_argument("StoragePool: null scheme");
  const auto it = volumes_.find(name);
  if (it == volumes_.end()) {
    throw std::out_of_range("StoragePool: unknown volume " + name);
  }
  const std::string scheme_name = scheme->name();
  it->second->try_set_scheme(std::move(scheme)).value_or_throw();
  journal_locked(journal::make_set_scheme(name, scheme_name));
}

void StoragePool::fail_device(DeviceId uid) {
  const MutexLock lock(mu_);
  const auto it = stores_.find(uid);
  if (it == stores_.end()) {
    throw std::out_of_range("StoragePool: unknown device");
  }
  it->second->fail();
  journal_locked(journal::make_fail_device(uid));
}

std::uint64_t StoragePool::rebuild() {
  const MutexLock lock(mu_);
  std::uint64_t rebuilt = 0;
  for (const auto& [name, disk] : volumes_) {
    rebuilt += disk->rebuild();
  }
  // Drop the pool's references to dead stores and devices.
  std::vector<DeviceId> dead;
  for (const auto& [uid, store] : stores_) {
    if (store->failed()) dead.push_back(uid);
  }
  for (const DeviceId uid : dead) {
    stores_.erase(uid);
    config_.remove_device(uid);
  }
  if (!dead.empty()) journal_locked(journal::make_rebuild());
  return rebuilt;
}

void StoragePool::publish_metrics() const {
  const MutexLock lock(mu_);
  metrics::Registry& reg = metrics::Registry::global();
  reg.gauge("rds_pool_volumes")
      .set(static_cast<std::int64_t>(volumes_.size()));
  reg.gauge("rds_pool_devices")
      .set(static_cast<std::int64_t>(config_.size()));
  for (const auto& [name, disk] : volumes_) disk->publish_device_gauges();
}

std::vector<StoragePool::DeviceUsage> StoragePool::usage() const {
  const MutexLock lock(mu_);
  std::vector<DeviceUsage> out;
  out.reserve(config_.size());
  for (const Device& d : config_.devices()) {
    const auto it = stores_.find(d.uid);
    DeviceUsage u;
    u.device = d;
    if (it != stores_.end()) {
      u.used = it->second->used();
      u.failed = it->second->failed();
    }
    out.push_back(std::move(u));
  }
  return out;
}

}  // namespace rds
