#include "src/storage/storage_pool.hpp"

#include <stdexcept>
#include <utility>

#include "src/journal/journal.hpp"
#include "src/journal/record.hpp"
#include "src/metrics/registry.hpp"

namespace rds {

StoragePool::StoragePool(ClusterConfig config)
    : StoragePool(std::make_shared<DeviceSet>(std::move(config))) {}

StoragePool::StoragePool(std::shared_ptr<DeviceSet> set)
    : set_(std::move(set)),
      mu_(set_->mu_),
      config_(set_->config_),
      stores_(set_->stores_) {}

VirtualDisk& StoragePool::create_volume(
    const std::string& name, std::shared_ptr<RedundancyScheme> scheme,
    PlacementKind kind) {
  const MutexLock lock(mu_);
  if (volumes_.contains(name)) {
    throw std::invalid_argument("StoragePool: duplicate volume " + name);
  }
  const std::string scheme_name = scheme ? scheme->name() : std::string{};
  // The new volume's constructor reads the set under the lock held here.
  auto disk = std::unique_ptr<VirtualDisk>(new VirtualDisk(
      set_, std::move(scheme), kind, next_volume_id_++, /*pooled=*/true));
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
  return volume_locked(name);
}

VirtualDisk& StoragePool::volume_locked(const std::string& name) const {
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
  VirtualDisk& disk = *it->second;
  disk.mu_.assert_held();  // the pool's lock: every volume shares it
  while (!disk.blocks_.empty()) {
    (void)disk.trim_locked(disk.blocks_.begin()->first);  // it exists
  }
  volumes_.erase(it);
  journal_locked(journal::make_drop_volume(name));
  return true;
}

void StoragePool::edit_locked(const journal::Record& edit) {
  ClusterConfig next =
      VirtualDisk::next_config(config_, stores_, edit).value_or_throw();
  if (next == config_) return;
  std::vector<VirtualDisk*> volumes;
  for (const auto& [name, disk] : volumes_) volumes.push_back(disk.get());
  (void)VirtualDisk::reshape(*set_, volumes, std::move(next)).value_or_throw();
  journal_locked(edit);
}

void StoragePool::add_device(const Device& device) {
  const MutexLock lock(mu_);
  edit_locked(journal::make_add_device(device));
}

void StoragePool::remove_device(DeviceId uid) {
  const MutexLock lock(mu_);
  edit_locked(journal::make_remove_device(uid));
}

void StoragePool::resize_device(DeviceId uid, std::uint64_t new_capacity) {
  const MutexLock lock(mu_);
  edit_locked(journal::make_resize_device(uid, new_capacity));
}

void StoragePool::set_volume_strategy(const std::string& name,
                                      PlacementKind kind) {
  const MutexLock lock(mu_);
  VirtualDisk& disk = volume_locked(name);
  disk.mu_.assert_held();  // the pool's lock: every volume shares it
  disk.set_strategy_locked(kind).value_or_throw();
  journal_locked(journal::make_set_strategy(name, kind));
}

void StoragePool::set_volume_scheme(const std::string& name,
                                    std::shared_ptr<RedundancyScheme> scheme) {
  const MutexLock lock(mu_);
  VirtualDisk& disk = volume_locked(name);
  disk.mu_.assert_held();  // the pool's lock: every volume shares it
  disk.set_scheme_locked(std::move(scheme)).value_or_throw();
  journal_locked(journal::make_set_scheme(name, disk.scheme_->name()));
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
  std::uint64_t before = 0;
  for (const auto& entry : volumes_) {
    const VirtualDisk& disk = *entry.second;
    disk.mu_.assert_held();  // the pool's lock: every volume shares it
    before += disk.stats_.fragments_rebuilt;
  }
  edit_locked(journal::make_rebuild());
  std::uint64_t after = 0;
  for (const auto& entry : volumes_) {
    const VirtualDisk& disk = *entry.second;
    disk.mu_.assert_held();
    after += disk.stats_.fragments_rebuilt;
  }
  return after - before;
}

void StoragePool::publish_metrics() const {
  const MutexLock lock(mu_);
  metrics::Registry& reg = metrics::Registry::global();
  reg.gauge("rds_pool_volumes")
      .set(static_cast<std::int64_t>(volumes_.size()));
  reg.gauge("rds_pool_devices")
      .set(static_cast<std::int64_t>(config_.size()));
  for (const auto& [uid, store] : stores_) {
    reg.gauge("rds_device_fragments", {{"device", std::to_string(uid)}})
        .set(static_cast<std::int64_t>(store->used()));
  }
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
