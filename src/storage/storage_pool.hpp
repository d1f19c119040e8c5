// StoragePool: several virtual disks ("volumes") sharing one set of
// physical devices.
//
// Real deployments rarely dedicate a pool to one volume: different datasets
// want different redundancy (a scratch volume mirrored twice, an archive on
// RS(8+2)) on the same spindles.  The pool owns the device stores (capacity
// is contended across volumes) and fans every topology event out to every
// volume, each of which migrates only its own minimal fragment set.
//
// Pool-level operations are serialized by an internal mutex.  Lock order is
// pool -> volume: pool methods may take a volume's internal lock (via the
// VirtualDisk public API) while holding the pool lock, never the reverse.
// Neither lock guards the device stores the volumes share, so block I/O
// and topology calls on a pool and its volumes must come from one thread
// at a time; placement lookups stay safe from any thread (docs/api.md).
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
  /// devices.  Returns whether it existed.
  bool drop_volume(const std::string& name) RDS_EXCLUDES(mu_);

  /// Adds a device to the pool and migrates every volume onto it, one
  /// volume after another.  A volume that refuses its edit (a new home
  /// without room: VirtualDisk::apply_config) throws and is left as it
  /// was, but the volumes before it stay migrated and the pool's own
  /// configuration is unchanged.
  void add_device(const Device& device) RDS_EXCLUDES(mu_);

  /// Gracefully removes a device: every volume drains its fragments first.
  /// A refusal by a later volume throws as for add_device, with the
  /// earlier volumes already drained.
  void remove_device(DeviceId uid) RDS_EXCLUDES(mu_);

  /// Changes a pool device's capacity: growing extends the store then
  /// migrates every volume onto the new room; shrinking drains every
  /// volume off first, then clamps the store.  Throws std::out_of_range
  /// for unknown devices, std::invalid_argument for failed devices or
  /// capacities below the device's occupancy, and a later volume's
  /// refusal as for add_device.
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
  /// the pool -> volume lock order.  Pass nullptr to detach.
  void set_journal(std::shared_ptr<journal::JournalSink> sink)
      RDS_EXCLUDES(mu_);

  /// Crashes a device for every volume at once (stores are shared).
  void fail_device(DeviceId uid) RDS_EXCLUDES(mu_);

  /// Drops failed devices and restores full redundancy on every volume.
  /// Returns total fragments rebuilt across volumes.
  std::uint64_t rebuild() RDS_EXCLUDES(mu_);

  /// Pool-owner view of the configuration.  The reference stays valid for
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
  /// `rds_pool_devices`) and every volume's per-device load gauges.  Call
  /// before exporting a metrics snapshot.
  void publish_metrics() const RDS_EXCLUDES(mu_);

 private:
  friend class Snapshot;

  /// Appends a record to the attached journal (no-op without one).  Runs
  /// after the in-memory mutation committed, inside the same critical
  /// section, so journal order is commit order.  Throws std::runtime_error
  /// if the append fails (the journal is now behind the pool).
  void journal_locked(const journal::Record& record) RDS_REQUIRES(mu_);

  /// Serializes pool topology and the volume table; mutable so const
  /// observers (usage(), config(), ...) can take it.
  mutable Mutex mu_;

  ClusterConfig config_ RDS_GUARDED_BY(mu_);
  std::unordered_map<DeviceId, std::shared_ptr<DeviceStore>> stores_
      RDS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<VirtualDisk>> volumes_
      RDS_GUARDED_BY(mu_);
  std::uint32_t next_volume_id_ RDS_GUARDED_BY(mu_) = 1;
  std::shared_ptr<journal::JournalSink> journal_ RDS_GUARDED_BY(mu_);
};

}  // namespace rds
