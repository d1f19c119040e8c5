// VirtualDisk: the block-level storage virtualization of the paper's
// introduction -- a pool of heterogeneous devices presented as one device.
//
// Every logical block is encoded by a RedundancyScheme into k fragments,
// which a placement strategy (Redundant Share by default) maps to k distinct
// devices.  Growing, shrinking, or losing devices triggers a reshape -- the
// one code path that moves stored fragments, finished inside the call that
// starts it.  A reshape places every block under the old and the new
// strategy in one parallel pass (BatchPlacer::shared()) and keeps only the
// blocks whose copy-index homes differ, each with the homes the pass
// computed, so no block is placed again.  It checks that every new home
// has room for the whole plan before anything moves, then moves exactly the
// fragments whose home changed, verifying each first; a lost or corrupt
// source is rebuilt from verified peers through the scheme.
//
// The devices live in a DeviceSet (config, stores, journal sink, one
// mutex) that a standalone disk owns alone and a StoragePool shares with
// every volume.  A set commits through one path: every topology edit is a
// journal record that builds the next config and runs the one reshape,
// which moves every volume of the set or none, and every committed change
// is appended through the set's one append helper.
//
// Concurrency model (docs/api.md, "Concurrency guarantees"): block I/O and
// topology mutations on every volume of one set, and every call on its
// pool, are serialized by the set's mutex (`mu_`), so any number of threads
// may call them -- one at a time gets in.  Placement
// lookups (try_copy_locations(), placement_snapshot()) never take `mu_` and
// may run from any number of threads concurrently with that writer: they
// read an immutable PlacementEpoch published by shared_ptr-RCU (RcuCell,
// whose own lock guards only a pointer copy), so every lookup sees one
// consistent (strategy, config) pair even in the middle of a reshape.
// The locking discipline is machine-checked: every mutable field is
// RDS_GUARDED_BY(mu_) (rds_analyze's guarded-member rule) and the build
// enforces -Werror=thread-safety under Clang (docs/static_analysis.md).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cluster/cluster_config.hpp"
#include "src/core/result.hpp"
#include "src/metrics/registry.hpp"
#include "src/placement/strategy.hpp"
#include "src/placement/strategy_factory.hpp"  // PlacementKind (moved there)
#include "src/storage/device_store.hpp"
#include "src/storage/redundancy_scheme.hpp"
#include "src/util/mutex.hpp"
#include "src/util/rcu.hpp"
#include "src/util/thread_annotations.hpp"

namespace rds {

class Snapshot;

namespace journal {
class JournalSink;
struct Record;
}  // namespace journal

/// One set of devices: the configuration, the store of each device, the
/// journal sink and the mutex that guards them.  Each holder (a
/// VirtualDisk, a StoragePool) reaches the config and stores through
/// references of its own, which the thread-safety analysis checks against
/// the holder's `mu_`.
class DeviceSet {
 public:
  using Stores = std::unordered_map<DeviceId, std::shared_ptr<DeviceStore>>;

  /// A fresh store for every device of `config`.
  explicit DeviceSet(ClusterConfig config);
  /// Restored `stores` (Snapshot), which must cover every device of
  /// `config` (std::invalid_argument).
  DeviceSet(ClusterConfig config, Stores stores);

 private:
  friend class VirtualDisk;
  friend class StoragePool;
  friend class FileStore;

  /// The set's one append: `record` goes to the sink, if one is attached,
  /// after the in-memory mutation committed and under the same critical
  /// section, so journal order is commit order.  The caller holds `mu_`
  /// under its own name.  A failed append is surfaced (the journal is now
  /// behind the in-memory state) but does not roll the mutation back.
  [[nodiscard]] Result<void> journal_locked(const journal::Record& record);

  Mutex mu_;
  ClusterConfig config_ RDS_GUARDED_BY(mu_);
  Stores stores_ RDS_GUARDED_BY(mu_);
  /// Where every committed edit of the set is appended; null: none.
  std::shared_ptr<journal::JournalSink> journal_ RDS_GUARDED_BY(mu_);
};

/// Immutable (strategy, config) pair concurrent readers place against.
/// Published atomically by VirtualDisk on every committed topology change;
/// a reader holding a snapshot keeps the whole pair alive, so placements
/// and config lookups within one snapshot are always mutually consistent
/// even while a swap is in flight.
struct PlacementEpoch {
  ClusterConfig config;
  std::shared_ptr<const ReplicationStrategy> strategy;
  std::uint64_t epoch = 0;  ///< install counter, strictly increasing
};

class VirtualDisk {
 public:
  struct Stats {
    std::uint64_t fragments_written = 0;
    std::uint64_t fragments_moved = 0;     ///< by migrations
    std::uint64_t bytes_moved = 0;
    std::uint64_t fragments_rebuilt = 0;   ///< reconstructed from peers
    std::uint64_t degraded_reads = 0;      ///< reads that skipped a missing
                                           ///< or corrupt fragment
    std::uint64_t checksum_failures = 0;   ///< corrupt fragments detected
                                           ///< (by reads, scrub, repair,
                                           ///< reshape)
    std::uint64_t fragments_repaired = 0;  ///< restored by repair()
  };

  struct ScrubReport {
    std::uint64_t blocks_checked = 0;
    std::uint64_t unreadable_blocks = 0;    ///< fewer than min_fragments left
    std::uint64_t degraded_blocks = 0;      ///< readable, fragments missing
    std::uint64_t misplaced_fragments = 0;  ///< stored where placement
                                            ///< does not expect them
    [[nodiscard]] bool clean() const noexcept {
      return unreadable_blocks == 0 && degraded_blocks == 0 &&
             misplaced_fragments == 0;
    }
  };

  /// A standalone disk, on a device set of its own.  (A pool volume comes
  /// from StoragePool::create_volume.)
  VirtualDisk(ClusterConfig config, std::shared_ptr<RedundancyScheme> scheme,
              PlacementKind kind = PlacementKind::kRedundantShare);

  // --- Fallible operations (error taxonomy: docs/api.md) ---
  //
  // Block I/O and the topology edits return a Result -- an (ErrorCode,
  // message) pair on failure -- and the try_ prefix marks them.  A caller
  // that wants an exception writes `.value_or_throw()`, the one ErrorCode ->
  // exception mapping.  fail_device and rebuild exist in one form only and
  // throw.  On a pool volume, the topology, policy and journal calls below
  // are refused with kInvalidArgument naming the StoragePool call to use.

  /// Stores a logical block (any length that fits the fragment budget).
  /// kInvalidArgument when the payload does not fit, kIoError when one of
  /// the block's k home devices has failed or is full, kNotFound on a
  /// volume dropped from its pool.  Every home is checked before any is
  /// touched, so a rejected write leaves the block (and every device)
  /// exactly as it was.
  [[nodiscard]] Result<void> try_write(std::uint64_t block,
                                       std::span<const std::uint8_t> data)
      RDS_EXCLUDES(mu_);

  /// Reads a block back.  Fragments are verified in copy-index order and
  /// the read stops at the first min_fragments() intact ones: one mirror
  /// copy, or the data shards of an erasure code; a missing or corrupt
  /// fragment is skipped (a degraded read) and the next one tried.
  /// Fragments the read never reaches are left to scrub().  kNotFound for
  /// never-written blocks, kUnrecoverable when too few fragments survive.
  [[nodiscard]] Result<std::vector<std::uint8_t>> try_read(std::uint64_t block)
      RDS_EXCLUDES(mu_);

  /// Discards a block: removes its fragments from every device.  kNotFound
  /// when the block was never written.
  [[nodiscard]] Result<void> try_trim(std::uint64_t block) RDS_EXCLUDES(mu_);

  [[nodiscard]] bool contains(std::uint64_t block) const RDS_EXCLUDES(mu_) {
    const MutexLock lock(mu_);
    return blocks_.contains(block);
  }
  [[nodiscard]] std::uint64_t block_count() const RDS_EXCLUDES(mu_) {
    const MutexLock lock(mu_);
    return blocks_.size();
  }

  // --- Concurrent placement (never behind mu_, atomic strategy swap) ---

  /// The committed placement epoch: one shared_ptr copy from the RcuCell,
  /// never blocked by `mu_`.  Safe from any thread at any time, including
  /// while a reshape installs a successor.
  [[nodiscard]] std::shared_ptr<const PlacementEpoch> placement_snapshot()
      const noexcept;

  /// The k copy locations of `block` -- the read path's view of the paper's
  /// copy-identification property.  Fills `out` with copies 0..k-1 under
  /// the committed epoch and returns that epoch's id.  One epoch load
  /// resolves both the replication degree and the placement, so the result
  /// is consistent even while a strategy/scheme swap is committing; never
  /// takes `mu_`.  kInvalidArgument when out.size() differs from the
  /// epoch's replication degree -- the mismatch a live set_scheme swap can
  /// produce between sizing the buffer and placing; callers re-size and
  /// retry (or size from the same placement_snapshot).
  [[nodiscard]] Result<std::uint64_t> try_copy_locations(
      std::uint64_t block, std::span<DeviceId> out) const;

  // Every topology edit below is one journal record: it migrates data to
  // the edited config and atomically installs the new (strategy, config)
  // epoch before it returns; concurrent placement lookups see either the
  // old pair or the new pair, never a mix; the stores follow the config
  // (grown before the moves, shrunk or dropped after).  Besides the
  // refusals each call names: kDeviceFailed if a failed device would
  // remain in the config; kInvalidArgument for configs the strategy
  // rejects; kIoError, naming the device, when a new home lacks room for
  // the fragments the plan moves there or a shrunk device would keep more
  // than its new capacity.  The whole plan is checked before anything
  // moves, so every refusal leaves the disk exactly as it was.  A block
  // with fewer than min_fragments() intact fragments moves those it has
  // and stays unrecoverable.

  /// Adds a device and migrates the fragments the new placement assigns
  /// it.  kInvalidArgument for devices the configuration rejects (duplicate
  /// uid, zero capacity).
  [[nodiscard]] Result<void> try_add_device(const Device& device)
      RDS_EXCLUDES(mu_);

  /// Gracefully removes a healthy device, migrating its data away first.
  /// kNotFound for unknown uids, kInvalidArgument for failed devices (use
  /// rebuild()).
  [[nodiscard]] Result<void> try_remove_device(DeviceId uid) RDS_EXCLUDES(mu_);

  /// Changes a device's capacity in place.  Growing extends the store and
  /// migrates fragments onto the new room; shrinking drains fragments off
  /// first, then clamps the store.  kNotFound for unknown uids,
  /// kDeviceFailed for failed devices, kInvalidArgument for capacities the
  /// configuration rejects.
  [[nodiscard]] Result<void> try_resize_device(DeviceId uid,
                                               std::uint64_t new_capacity)
      RDS_EXCLUDES(mu_);

  /// Swaps the placement strategy live: every block is re-placed under the
  /// new kind (same configuration), moving only the fragments whose homes
  /// differ.  No-op when `kind` is already active.  kIoError as for the
  /// topology edits.
  [[nodiscard]] Result<void> try_set_strategy(PlacementKind kind)
      RDS_EXCLUDES(mu_);

  /// Re-encodes every block under a new redundancy scheme (e.g. mirror ->
  /// RS).  Every device must have room for the new encoding once this
  /// volume's old fragments are gone, and every block must decode, before
  /// anything is erased; a failure while re-writing reports how far it got.
  /// No-op when `next` names the active scheme.  kDeviceFailed on degraded
  /// pools (rebuild() first), kInvalidArgument when the scheme needs more
  /// fragments than there are devices, kIoError naming a device without
  /// room.
  [[nodiscard]] Result<void> try_set_scheme(
      std::shared_ptr<RedundancyScheme> next) RDS_EXCLUDES(mu_);

  /// Attaches a journal sink to the disk's device set: every committed
  /// topology mutation is appended in commit order (docs/persistence.md).
  /// The sink's own mutex is a leaf below the set's lock.  Pass nullptr to
  /// detach.  A pool volume throws std::invalid_argument (its pool's
  /// set_journal covers the set).
  void set_journal(std::shared_ptr<journal::JournalSink> sink)
      RDS_EXCLUDES(mu_);

  /// Simulates a crash: the device's contents become unreadable.
  /// std::out_of_range for unknown uids.
  void fail_device(DeviceId uid) RDS_EXCLUDES(mu_);

  /// Chaos hook: silently corrupts the stored copy of one fragment (bit
  /// rot).  Returns whether the fragment existed.  Reads detect the damage
  /// via checksums and reconstruct; repair() restores the fragment.
  bool corrupt_fragment(std::uint64_t block, unsigned fragment)
      RDS_EXCLUDES(mu_);

  /// Drops all failed devices from the configuration and restores full
  /// redundancy (re-places fragments; lost ones are rebuilt from peers).  A
  /// block with fewer than min_fragments() intact fragments left cannot be
  /// rebuilt: the ones it has move, and it stays unrecoverable.  Returns
  /// the number of fragments rebuilt; throws the topology edits' refusals
  /// through value_or_throw(), changing nothing.
  std::uint64_t rebuild() RDS_EXCLUDES(mu_);

  /// Verifies every block: decodable, fully redundant, fragments exactly
  /// where the placement function says, and checksums intact (corrupt
  /// fragments count as missing).
  [[nodiscard]] ScrubReport scrub() RDS_EXCLUDES(mu_);

  /// Restores full redundancy in place: re-creates missing or corrupt
  /// fragments on their assigned (healthy) devices from the surviving
  /// ones.  Unlike rebuild(), the configuration is unchanged.  Returns the
  /// number of fragments repaired; unrecoverable blocks are left alone.
  std::uint64_t repair() RDS_EXCLUDES(mu_);

  /// Owner-thread view of the stats.  The reference stays valid for the
  /// disk's lifetime; read it while no mutator runs concurrently.
  [[nodiscard]] const Stats& stats() const RDS_EXCLUDES(mu_) {
    const MutexLock lock(mu_);
    return stats_;
  }
  /// Committed configuration; same validity rule as stats().  Concurrent
  /// readers should use placement_snapshot()->config instead.
  [[nodiscard]] const ClusterConfig& config() const RDS_EXCLUDES(mu_) {
    const MutexLock lock(mu_);
    return config_;
  }
  /// Committed redundancy scheme; same validity rule as strategy() -- it
  /// can be swapped by set_scheme(), so concurrent readers must not cache
  /// the reference across mutations.
  [[nodiscard]] const RedundancyScheme& scheme() const RDS_EXCLUDES(mu_) {
    const MutexLock lock(mu_);
    return *scheme_;
  }
  /// Active placement kind (see set_strategy()).
  [[nodiscard]] PlacementKind placement_kind() const RDS_EXCLUDES(mu_) {
    const MutexLock lock(mu_);
    return kind_;
  }
  /// Committed strategy; concurrent readers should hold a
  /// placement_snapshot() instead (it pins the strategy's lifetime).
  [[nodiscard]] const ReplicationStrategy& strategy() const RDS_EXCLUDES(mu_) {
    const MutexLock lock(mu_);
    return *strategy_;
  }
  [[nodiscard]] std::uint64_t used_on(DeviceId uid) const RDS_EXCLUDES(mu_);
  [[nodiscard]] std::uint32_t volume_id() const noexcept { return volume_id_; }

 private:
  friend class Snapshot;
  friend class StoragePool;
  friend class FileStore;

  using Stores = DeviceSet::Stores;

  /// A volume on `set`: a pool's (`pooled`) or a standalone disk's.
  VirtualDisk(std::shared_ptr<DeviceSet> set,
              std::shared_ptr<RedundancyScheme> scheme, PlacementKind kind,
              std::uint32_t volume_id, bool pooled);

  /// A pool volume's refusal of a call the pool makes, naming `pool_call`.
  [[nodiscard]] static Error pool_only(const std::string& pool_call);

  [[nodiscard]] std::unique_ptr<ReplicationStrategy> make_strategy(
      const ClusterConfig& config) const RDS_REQUIRES(mu_);

  /// The config a topology edit -- an add, remove, resize or rebuild
  /// record -- makes of `config`, or the edit's refusal: kNotFound for
  /// unknown devices, kInvalidArgument for devices the config rejects and
  /// for removing a failed one.
  [[nodiscard]] static Result<ClusterConfig> next_config(
      const ClusterConfig& config, const Stores& stores,
      const journal::Record& edit);

  // The commit path of a device set, shared by a disk and a pool.  The
  // caller holds the set's mutex under its own name.

  /// The one topology edit: the reshape of `volumes` (every volume of
  /// `set`) to next_config(), unless that is refused or changes nothing,
  /// then `edit` is journaled.  Returns the fragments the reshape rebuilt.
  [[nodiscard]] static Result<std::uint64_t> edit_locked(
      DeviceSet& set, std::span<VirtualDisk* const> volumes,
      const journal::Record& edit);

  /// Fails device `uid` of `set` and journals it; kNotFound for unknown
  /// uids.
  [[nodiscard]] static Result<void> fail_locked(DeviceSet& set, DeviceId uid);

  // Locked bodies of the public operations above.  Public entry points take
  // `mu_` once and delegate here; internal call chains (try_add_device ->
  // edit_locked) stay on the *_locked layer so the mutex is never
  // taken recursively.
  [[nodiscard]] Result<void> write_locked(std::uint64_t block,
                                          std::span<const std::uint8_t> data)
      RDS_REQUIRES(mu_);
  [[nodiscard]] Result<std::vector<std::uint8_t>> read_locked(
      std::uint64_t block) RDS_REQUIRES(mu_);
  [[nodiscard]] Result<void> trim_locked(std::uint64_t block)
      RDS_REQUIRES(mu_);
  // A pool volume's policy edits go through these, without the journal.
  [[nodiscard]] Result<void> set_strategy_locked(PlacementKind kind)
      RDS_REQUIRES(mu_);
  [[nodiscard]] Result<void> set_scheme_locked(
      std::shared_ptr<RedundancyScheme> next) RDS_REQUIRES(mu_);

  /// Copies the committed (config_, strategy_) pair into a fresh epoch and
  /// installs it with one RcuCell::store.
  void publish_epoch() RDS_REQUIRES(mu_);

  /// A moving block's k homes under `strategy_`, then its k homes under
  /// the next strategy.
  using MovingHomes = std::unordered_map<std::uint64_t, std::vector<DeviceId>>;

  /// One volume's part of a reshape: its next strategy and moving blocks.
  struct Plan {
    VirtualDisk* volume = nullptr;
    std::shared_ptr<const ReplicationStrategy> strategy;
    MovingHomes moving;
  };

  /// The one reshape of a device set, under its lock: installs `next` and
  /// moves every one of `volumes` onto it (every volume of the set, unless
  /// the config stays), or refuses and changes nothing.  Plans each
  /// volume's strategy and moving_blocks(), check_plans() them, then
  /// commits: new stores and raised capacities, each volume's moves and
  /// epoch, lowered capacities and dropped stores.  Returns the fragments
  /// rebuilt.
  [[nodiscard]] static Result<std::uint64_t> reshape(
      DeviceSet& set, std::span<VirtualDisk* const> volumes,
      ClusterConfig next);

  /// The blocks with a fragment whose home differs between `strategy_`
  /// and `next`, with both sets of homes: one BatchPlacer::shared() pass
  /// per strategy.
  [[nodiscard]] MovingHomes moving_blocks(const ReplicationStrategy& next)
      const RDS_REQUIRES(mu_);

  /// kIoError, naming the device, unless every new home in `plans` has
  /// room for its arrivals (a failed device never gets here: reshape()
  /// refuses it first) and every device ends within its capacity in
  /// `next`.  Walks the volumes and their blocks in the order they move,
  /// carrying one occupancy per device across all of them, and counts a
  /// block's own departures before its arrivals (reshape_block erases
  /// every moving fragment before it writes any); while the moves run a
  /// device has the larger of its two capacities.  Reads no fragment.
  [[nodiscard]] static Result<void> check_plans(const Stores& stores,
                                                std::span<const Plan> plans,
                                                const ClusterConfig& next);

  /// Moves one block's fragments from its old `homes` to its new ones (as
  /// moving_blocks() gives them, after check_plans() accepted the room;
  /// nothing is placed).  Verifies each moving fragment in its old home and moves
  /// it with its recorded CRC; a missing or corrupt source is rebuilt from
  /// verified peers gathered before anything moves (Fragment::seal_like
  /// against the first verified one).  With fewer than min_fragments()
  /// verified, nothing can be rebuilt: the verified fragments move and the
  /// lost ones stay missing.  All moving fragments are erased before any
  /// is written.  Fragments that stay are not read.  Returns the fragments
  /// rebuilt.
  unsigned reshape_block(std::uint64_t block, std::span<const DeviceId> homes)
      RDS_REQUIRES(mu_);

  /// The fragments of one block an operation gathered.
  struct Gathered {
    std::vector<std::optional<Bytes>> fragments;  ///< by index; verified
    unsigned present = 0;  ///< fragments held
    unsigned skipped = 0;  ///< missing or corrupt fragments passed over
  };

  /// Fragment j of `block` in `location`'s store, without a copy, if it is
  /// there and intact(); nullptr otherwise (a corrupt one bumps the failure
  /// stat).  Valid until that store's next mutation.
  [[nodiscard]] const Fragment* verified_fragment(std::uint64_t block,
                                                  unsigned j,
                                                  DeviceId location)
      RDS_REQUIRES(mu_);

  /// Verifies fragments of `block` in copy-index order, straight from the
  /// stores, and copies out only the intact ones; stops once `need` are
  /// held.  Corrupt fragments count as missing (and bump the failure stat).
  [[nodiscard]] Gathered gather_fragments(std::uint64_t block,
                                          std::span<const DeviceId> locations,
                                          unsigned need) RDS_REQUIRES(mu_);

  /// Stores fragment j of `block` on `target`.
  void store_fragment(DeviceId target, std::uint64_t block, unsigned j,
                      Fragment fragment) RDS_REQUIRES(mu_);

  // The device set, and this volume's references into it.
  const std::shared_ptr<DeviceSet> set_;
  /// The set's mutex: serializes block I/O and topology mutations of every
  /// volume of the set.  try_copy_locations() and placement_snapshot()
  /// never touch it -- they read `published_`.
  Mutex& mu_;
  ClusterConfig& config_ RDS_GUARDED_BY(mu_);
  Stores& stores_ RDS_GUARDED_BY(mu_);
  /// A pool volume: its topology, policy and journal calls are refused.
  const bool pooled_;
  /// Dropped from its pool: it holds no block and refuses writes.
  bool dropped_ RDS_GUARDED_BY(mu_) = false;

  std::shared_ptr<RedundancyScheme> scheme_ RDS_GUARDED_BY(mu_);
  PlacementKind kind_ RDS_GUARDED_BY(mu_);
  const std::uint32_t volume_id_ = 0;
  // Committed strategy, shared with the published epoch so concurrent
  // readers keep it alive across a swap.  `config_`/`strategy_` are the
  // mutator's view; `published_` is the RCU snapshot readers load.
  std::shared_ptr<const ReplicationStrategy> strategy_ RDS_GUARDED_BY(mu_);
  RcuCell<PlacementEpoch> published_;
  std::uint64_t epoch_counter_ RDS_GUARDED_BY(mu_) = 0;
  std::unordered_map<std::uint64_t, std::size_t> blocks_
      RDS_GUARDED_BY(mu_);  // block -> size
  Stats stats_ RDS_GUARDED_BY(mu_);

  // Registry-owned instruments (process lifetime; see docs/metrics.md),
  // resolved once at construction and internally thread-safe: `const`.
  metrics::Counter* const reads_total_ =
      &metrics::Registry::global().counter("rds_storage_reads_total");
  metrics::Counter* const writes_total_ =
      &metrics::Registry::global().counter("rds_storage_writes_total");
  metrics::Counter* const read_bytes_total_ =
      &metrics::Registry::global().counter("rds_storage_read_bytes_total");
  metrics::Counter* const written_bytes_total_ =
      &metrics::Registry::global().counter("rds_storage_written_bytes_total");
  metrics::Counter* const degraded_reads_total_ =
      &metrics::Registry::global().counter("rds_storage_degraded_reads_total");
  metrics::Counter* const checksum_failures_total_ =
      &metrics::Registry::global().counter(
          "rds_storage_checksum_failures_total");
  metrics::Counter* const fragments_moved_total_ =
      &metrics::Registry::global().counter(
          "rds_migration_fragments_moved_total");
  metrics::Counter* const migration_bytes_moved_total_ =
      &metrics::Registry::global().counter("rds_migration_bytes_moved_total");
  metrics::Counter* const fragments_rebuilt_total_ =
      &metrics::Registry::global().counter(
          "rds_migration_fragments_rebuilt_total");
  metrics::Counter* const fragments_repaired_total_ =
      &metrics::Registry::global().counter(
          "rds_storage_fragments_repaired_total");
  metrics::Counter* const topology_events_total_ =
      &metrics::Registry::global().counter("rds_topology_events_total");
  metrics::LatencyHistogram* const placement_latency_ns_ =
      &metrics::Registry::global().histogram("rds_placement_latency_ns");
  metrics::LatencyHistogram* const migration_step_latency_ns_ =
      &metrics::Registry::global().histogram("rds_migration_step_latency_ns");
};

}  // namespace rds
