// StoragePool: several virtual disks ("volumes") sharing one set of
// physical devices.
//
// Real deployments rarely dedicate a pool to one volume: different datasets
// want different redundancy (a scratch volume mirrored twice, an archive on
// RS(8+2)) on the same spindles.  The pool and its volumes share one
// DeviceSet (src/storage/virtual_disk.hpp) -- the configuration, the
// device stores, whose capacity the volumes contend for, the journal sink
// and the one mutex guarding them -- so block I/O on any volume and every
// pool call serialize on that lock, from any thread.  Each topology edit
// is one reshape that moves every volume or none, each volume only its own
// minimal fragment set, through the same edit body as a standalone disk's;
// a volume's own topology, policy and journal calls are refused.
// Placement lookups stay lock-free (docs/api.md).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/metrics/gauge.hpp"
#include "src/storage/virtual_disk.hpp"
#include "src/util/mutex.hpp"
#include "src/util/thread_annotations.hpp"

namespace rds {

class StoragePool {
 public:
  explicit StoragePool(ClusterConfig config);

  /// Creates a volume spanning every pool device.  Throws on duplicate
  /// names or if the scheme needs more fragments than there are devices.
  /// The handle may outlive the volume's place in the pool (drop_volume).
  std::shared_ptr<VirtualDisk> create_volume(
      const std::string& name, std::shared_ptr<RedundancyScheme> scheme,
      PlacementKind kind = PlacementKind::kRedundantShare) RDS_EXCLUDES(mu_);

  /// The volume named `name`; std::out_of_range if there is none.
  [[nodiscard]] std::shared_ptr<VirtualDisk> volume(const std::string& name)
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

  /// Deletes a volume: trims all its fragments from the shared devices,
  /// marks it dropped and removes it from the pool.  Returns whether it
  /// existed.  A handle another thread still holds stays safe: the
  /// dropped volume's writes return kNotFound and store nothing, and its
  /// reads and trims find no block.
  bool drop_volume(const std::string& name) RDS_EXCLUDES(mu_);

  // The edits return a Result under VirtualDisk's names and refusals, and
  // move every volume or none: a refusal changes nothing.  kNotFound for
  // an unknown volume.

  /// Adds a device and migrates every volume onto it.
  [[nodiscard]] Result<void> try_add_device(const Device& device)
      RDS_EXCLUDES(mu_);

  /// Gracefully removes a healthy device: every volume drains off it.
  [[nodiscard]] Result<void> try_remove_device(DeviceId uid) RDS_EXCLUDES(mu_);

  /// Changes a device's capacity; every volume migrates.
  [[nodiscard]] Result<void> try_resize_device(DeviceId uid,
                                               std::uint64_t new_capacity)
      RDS_EXCLUDES(mu_);

  /// Swaps one volume's placement strategy live (re-places only that
  /// volume's fragments).
  [[nodiscard]] Result<void> try_set_volume_strategy(const std::string& name,
                                                     PlacementKind kind)
      RDS_EXCLUDES(mu_);

  /// Re-encodes one volume under a new redundancy scheme.
  [[nodiscard]] Result<void> try_set_volume_scheme(
      const std::string& name, std::shared_ptr<RedundancyScheme> scheme)
      RDS_EXCLUDES(mu_);

  /// Attaches a journal sink to the pool's device set: every committed
  /// pool mutation is appended in commit order (docs/persistence.md).  The
  /// sink's mutex is a leaf below the pool's lock.  Pass nullptr to detach.
  void set_journal(std::shared_ptr<journal::JournalSink> sink)
      RDS_EXCLUDES(mu_);

  /// Crashes a device for every volume at once (stores are shared).
  /// std::out_of_range for unknown uids.
  void fail_device(DeviceId uid) RDS_EXCLUDES(mu_);

  /// Drops failed devices and restores full redundancy on every volume.
  /// Returns total fragments rebuilt across volumes; throws the edits'
  /// refusals through value_or_throw(), changing nothing.
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

 private:
  friend class Snapshot;

  /// A pool on `set` (Snapshot::load_pool).
  explicit StoragePool(std::shared_ptr<DeviceSet> set);

  /// The volume named `name`, or kNotFound.
  [[nodiscard]] Result<std::shared_ptr<VirtualDisk>> volume_locked(
      const std::string& name) const RDS_REQUIRES(mu_);

  /// A topology edit of every volume through VirtualDisk::edit_locked,
  /// which the pool shares with a standalone disk; refreshes the device
  /// gauge.  Returns the fragments rebuilt.
  [[nodiscard]] Result<std::uint64_t> edit(const journal::Record& record)
      RDS_EXCLUDES(mu_);

  // The device set every volume shares, and the pool's references into it.
  const std::shared_ptr<DeviceSet> set_;
  /// The set's mutex: serializes pool calls, the volume table and every
  /// volume's block I/O.
  Mutex& mu_;
  ClusterConfig& config_ RDS_GUARDED_BY(mu_);
  DeviceSet::Stores& stores_ RDS_GUARDED_BY(mu_);

  std::map<std::string, std::shared_ptr<VirtualDisk>> volumes_
      RDS_GUARDED_BY(mu_);
  std::uint32_t next_volume_id_ RDS_GUARDED_BY(mu_) = 1;

  // Registry-owned (process lifetime; docs/metrics.md), set where the
  // volume table and the config change.
  metrics::Gauge* const volumes_gauge_;
  metrics::Gauge* const devices_gauge_;
};

}  // namespace rds
