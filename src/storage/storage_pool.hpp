// StoragePool: several virtual disks ("volumes") sharing one set of
// physical devices.
//
// Real deployments rarely dedicate a pool to one volume: different datasets
// want different redundancy (a scratch volume mirrored twice, an archive on
// RS(8+2)) on the same spindles.  The pool and its volumes share one
// DeviceSet (src/storage/virtual_disk.hpp) -- the configuration, the
// device stores, whose capacity the volumes contend for, and the one mutex
// guarding both -- so block I/O on any volume and every pool call
// serialize on that lock, from any thread.  Each topology edit is one
// reshape that moves every volume or none, each volume only its own
// minimal fragment set; a volume's own topology and policy calls are
// refused.  Placement lookups stay lock-free (docs/api.md).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/storage/virtual_disk.hpp"
#include "src/util/mutex.hpp"
#include "src/util/thread_annotations.hpp"

namespace rds {

class StoragePool {
 public:
  explicit StoragePool(ClusterConfig config);

  /// Creates a volume spanning every pool device.  Throws on duplicate
  /// names or if the scheme needs more fragments than there are devices.
  VirtualDisk& create_volume(
      const std::string& name, std::shared_ptr<RedundancyScheme> scheme,
      PlacementKind kind = PlacementKind::kRedundantShare) RDS_EXCLUDES(mu_);

  [[nodiscard]] VirtualDisk& volume(const std::string& name)
      RDS_EXCLUDES(mu_);
  [[nodiscard]] bool has_volume(const std::string& name) const
      RDS_EXCLUDES(mu_) {
    const MutexLock lock(mu_);
    return volumes_.contains(name);
  }
  [[nodiscard]] std::vector<std::string> volume_names() const
      RDS_EXCLUDES(mu_);
  [[nodiscard]] std::size_t volume_count() const RDS_EXCLUDES(mu_) {
    const MutexLock lock(mu_);
    return volumes_.size();
  }

  /// Deletes a volume and releases all its fragments from the shared
  /// devices.  Returns whether it existed.  The volume's reference dies
  /// with it: no other thread may still be using it.
  bool drop_volume(const std::string& name) RDS_EXCLUDES(mu_);

  // The topology edits move every volume or none: a refusal -- the
  // VirtualDisk edit's, through value_or_throw() -- changes nothing.

  /// Adds a device and migrates every volume onto it.
  void add_device(const Device& device) RDS_EXCLUDES(mu_);

  /// Gracefully removes a healthy device: every volume drains off it.
  void remove_device(DeviceId uid) RDS_EXCLUDES(mu_);

  /// Changes a device's capacity; every volume migrates.
  void resize_device(DeviceId uid, std::uint64_t new_capacity)
      RDS_EXCLUDES(mu_);

  /// Swaps one volume's placement strategy live (re-places only that
  /// volume's fragments).  Throws std::out_of_range for unknown volumes.
  void set_volume_strategy(const std::string& name, PlacementKind kind)
      RDS_EXCLUDES(mu_);

  /// Re-encodes one volume under a new redundancy scheme.  Throws
  /// std::out_of_range for unknown volumes; error codes from
  /// VirtualDisk::try_set_scheme surface as exceptions.
  void set_volume_scheme(const std::string& name,
                         std::shared_ptr<RedundancyScheme> scheme)
      RDS_EXCLUDES(mu_);

  /// Attaches a journal sink: every committed pool mutation is appended in
  /// commit order (docs/persistence.md).  The sink's mutex is a leaf below
  /// the pool's lock.  Pass nullptr to detach.
  void set_journal(std::shared_ptr<journal::JournalSink> sink)
      RDS_EXCLUDES(mu_);

  /// Crashes a device for every volume at once (stores are shared).
  void fail_device(DeviceId uid) RDS_EXCLUDES(mu_);

  /// Drops failed devices and restores full redundancy on every volume.
  /// Returns total fragments rebuilt across volumes.
  std::uint64_t rebuild() RDS_EXCLUDES(mu_);

  /// The configuration every volume shares.  The reference stays valid for
  /// the pool's lifetime; read it while no topology mutation runs
  /// concurrently.
  [[nodiscard]] const ClusterConfig& config() const RDS_EXCLUDES(mu_) {
    const MutexLock lock(mu_);
    return config_;
  }

  struct DeviceUsage {
    Device device;
    std::uint64_t used = 0;  ///< fragments across all volumes
    bool failed = false;
  };
  [[nodiscard]] std::vector<DeviceUsage> usage() const RDS_EXCLUDES(mu_);

  /// Refreshes the pool-level gauges (`rds_pool_volumes`,
  /// `rds_pool_devices`) and the per-device load gauges.  Call before
  /// exporting a metrics snapshot.
  void publish_metrics() const RDS_EXCLUDES(mu_);

 private:
  friend class Snapshot;

  /// A pool on `set` (Snapshot::load_pool).
  explicit StoragePool(std::shared_ptr<DeviceSet> set);

  /// The volume named `name`; std::out_of_range if there is none.
  [[nodiscard]] VirtualDisk& volume_locked(const std::string& name) const
      RDS_REQUIRES(mu_);

  /// A topology edit (VirtualDisk::next_config): the one reshape of every
  /// volume, unless the edit changes nothing, then it is journaled.
  void edit_locked(const journal::Record& edit) RDS_REQUIRES(mu_);

  /// Appends a record to the attached journal (no-op without one).  Runs
  /// after the in-memory mutation committed, inside the same critical
  /// section, so journal order is commit order.  Throws std::runtime_error
  /// if the append fails (the journal is now behind the pool).
  void journal_locked(const journal::Record& record) RDS_REQUIRES(mu_);

  // The device set every volume shares, and the pool's references into it.
  const std::shared_ptr<DeviceSet> set_;
  /// The set's mutex: serializes pool calls, the volume table and every
  /// volume's block I/O.
  Mutex& mu_;
  ClusterConfig& config_ RDS_GUARDED_BY(mu_);
  DeviceSet::Stores& stores_ RDS_GUARDED_BY(mu_);

  std::map<std::string, std::unique_ptr<VirtualDisk>> volumes_
      RDS_GUARDED_BY(mu_);
  std::uint32_t next_volume_id_ RDS_GUARDED_BY(mu_) = 1;
  std::shared_ptr<journal::JournalSink> journal_ RDS_GUARDED_BY(mu_);
};

}  // namespace rds
