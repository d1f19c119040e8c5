#include "src/storage/storage_pool.hpp"

#include <stdexcept>
#include <utility>

#include "src/journal/record.hpp"
#include "src/metrics/registry.hpp"

namespace rds {

StoragePool::StoragePool(ClusterConfig config)
    : StoragePool(std::make_shared<DeviceSet>(std::move(config))) {}

StoragePool::StoragePool(std::shared_ptr<DeviceSet> set)
    : set_(std::move(set)),
      mu_(set_->mu_),
      config_(set_->config_),
      stores_(set_->stores_),
      volumes_gauge_(&metrics::Registry::global().gauge("rds_pool_volumes")),
      devices_gauge_(&metrics::Registry::global().gauge("rds_pool_devices")) {
  const MutexLock lock(mu_);
  volumes_gauge_->set(0);
  devices_gauge_->set(static_cast<std::int64_t>(config_.size()));
}

std::shared_ptr<VirtualDisk> StoragePool::create_volume(
    const std::string& name, std::shared_ptr<RedundancyScheme> scheme,
    PlacementKind kind) {
  const MutexLock lock(mu_);
  if (volumes_.contains(name)) {
    throw std::invalid_argument("StoragePool: duplicate volume " + name);
  }
  const std::string scheme_name = scheme ? scheme->name() : std::string{};
  // The new volume's constructor reads the set under the lock held here.
  auto disk = std::shared_ptr<VirtualDisk>(new VirtualDisk(
      set_, std::move(scheme), kind, next_volume_id_++, /*pooled=*/true));
  volumes_.emplace(name, disk);
  volumes_gauge_->set(static_cast<std::int64_t>(volumes_.size()));
  metrics::Registry::global().counter("rds_pool_volumes_created_total").inc();
  set_->journal_locked(journal::make_create_volume(name, scheme_name, kind))
      .value_or_throw();
  return disk;
}

void StoragePool::set_journal(std::shared_ptr<journal::JournalSink> sink) {
  const MutexLock lock(mu_);
  set_->mu_.assert_held();  // mu_ is the set's mutex
  set_->journal_ = std::move(sink);
}

std::shared_ptr<VirtualDisk> StoragePool::volume(const std::string& name) {
  const MutexLock lock(mu_);
  return volume_locked(name).value_or_throw();
}

Result<std::shared_ptr<VirtualDisk>> StoragePool::volume_locked(
    const std::string& name) const {
  const auto it = volumes_.find(name);
  if (it == volumes_.end()) {
    return Error{ErrorCode::kNotFound, "StoragePool: unknown volume " + name};
  }
  return it->second;
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
  VirtualDisk& disk = *it->second;
  disk.mu_.assert_held();  // the pool's lock: every volume shares it
  while (!disk.blocks_.empty()) {
    (void)disk.trim_locked(disk.blocks_.begin()->first);  // it exists
  }
  disk.dropped_ = true;
  volumes_.erase(it);
  volumes_gauge_->set(static_cast<std::int64_t>(volumes_.size()));
  set_->journal_locked(journal::make_drop_volume(name)).value_or_throw();
  return true;
}

Result<std::uint64_t> StoragePool::edit(const journal::Record& record) {
  const MutexLock lock(mu_);
  std::vector<VirtualDisk*> volumes;
  for (const auto& [name, disk] : volumes_) volumes.push_back(disk.get());
  Result<std::uint64_t> rebuilt =
      VirtualDisk::edit_locked(*set_, volumes, record);
  devices_gauge_->set(static_cast<std::int64_t>(config_.size()));
  return rebuilt;
}

Result<void> StoragePool::try_add_device(const Device& device) {
  return Result<void>(edit(journal::make_add_device(device)));
}

Result<void> StoragePool::try_remove_device(DeviceId uid) {
  return Result<void>(edit(journal::make_remove_device(uid)));
}

Result<void> StoragePool::try_resize_device(DeviceId uid,
                                            std::uint64_t new_capacity) {
  return Result<void>(edit(journal::make_resize_device(uid, new_capacity)));
}

std::uint64_t StoragePool::rebuild() {
  return edit(journal::make_rebuild()).value_or_throw();
}

Result<void> StoragePool::try_set_volume_strategy(const std::string& name,
                                                  PlacementKind kind) {
  const MutexLock lock(mu_);
  Result<std::shared_ptr<VirtualDisk>> disk = volume_locked(name);
  if (!disk.ok()) return disk.error();
  VirtualDisk& volume = *disk.value();
  volume.mu_.assert_held();  // the pool's lock: every volume shares it
  const Result<void> set = volume.set_strategy_locked(kind);
  if (!set.ok()) return set;
  return set_->journal_locked(journal::make_set_strategy(name, kind));
}

Result<void> StoragePool::try_set_volume_scheme(
    const std::string& name, std::shared_ptr<RedundancyScheme> scheme) {
  const MutexLock lock(mu_);
  Result<std::shared_ptr<VirtualDisk>> disk = volume_locked(name);
  if (!disk.ok()) return disk.error();
  VirtualDisk& volume = *disk.value();
  volume.mu_.assert_held();  // the pool's lock: every volume shares it
  const Result<void> set = volume.set_scheme_locked(std::move(scheme));
  if (!set.ok()) return set;
  return set_->journal_locked(
      journal::make_set_scheme(name, volume.scheme_->name()));
}

void StoragePool::fail_device(DeviceId uid) {
  const MutexLock lock(mu_);
  VirtualDisk::fail_locked(*set_, uid).value_or_throw();
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
