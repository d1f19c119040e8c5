#include "src/storage/virtual_disk.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/journal/journal.hpp"
#include "src/journal/record.hpp"
#include "src/metrics/scoped_timer.hpp"
#include "src/placement/batch_placer.hpp"

namespace rds {

DeviceSet::DeviceSet(ClusterConfig config) : config_(std::move(config)) {
  for (const Device& d : config_.devices()) {
    stores_.emplace(d.uid, std::make_shared<DeviceStore>(d));
  }
}

DeviceSet::DeviceSet(ClusterConfig config, Stores stores)
    : config_(std::move(config)), stores_(std::move(stores)) {
  for (const Device& d : config_.devices()) {
    const auto it = stores_.find(d.uid);
    if (it == stores_.end() || !it->second) {
      throw std::invalid_argument("DeviceSet: store missing for device " +
                                  d.name);
    }
  }
}

Result<void> DeviceSet::journal_locked(const journal::Record& record) {
  mu_.assert_held();  // the caller holds it under its own name
  if (!journal_) return {};
  const Result<journal::Lsn> appended = journal_->append(record);
  if (appended.ok()) return {};
  return Error{appended.code(),
               "operation committed in memory but journaling failed; "
               "snapshot and rotate the journal before further mutations: " +
                   appended.error().message};
}

VirtualDisk::VirtualDisk(ClusterConfig config,
                         std::shared_ptr<RedundancyScheme> scheme,
                         PlacementKind kind)
    : VirtualDisk(std::make_shared<DeviceSet>(std::move(config)),
                  std::move(scheme), kind, /*volume_id=*/0,
                  /*pooled=*/false) {}

VirtualDisk::VirtualDisk(std::shared_ptr<DeviceSet> set,
                         std::shared_ptr<RedundancyScheme> scheme,
                         PlacementKind kind, std::uint32_t volume_id,
                         bool pooled)
    : set_(std::move(set)),
      mu_(set_->mu_),
      config_(set_->config_),
      stores_(set_->stores_),
      pooled_(pooled),
      scheme_(std::move(scheme)),
      kind_(kind),
      volume_id_(volume_id) {
  if (!scheme_) throw std::invalid_argument("VirtualDisk: null scheme");
  strategy_ = make_strategy(config_);
  publish_epoch();
}

Error VirtualDisk::pool_only(const std::string& pool_call) {
  return {ErrorCode::kInvalidArgument,
          "VirtualDisk: a pool volume's topology and policy are edited for "
          "every volume at once; call " +
              pool_call};
}

std::unique_ptr<ReplicationStrategy> VirtualDisk::make_strategy(
    const ClusterConfig& config) const {
  return make_replication_strategy(kind_, config, scheme_->fragment_count());
}

void VirtualDisk::publish_epoch() {
  auto epoch = std::make_shared<PlacementEpoch>();
  epoch->config = config_;
  epoch->strategy = strategy_;
  epoch->epoch = ++epoch_counter_;
  published_.store(std::move(epoch));
}

std::shared_ptr<const PlacementEpoch> VirtualDisk::placement_snapshot()
    const noexcept {
  return published_.load();
}

Result<std::uint64_t> VirtualDisk::try_copy_locations(
    std::uint64_t block, std::span<DeviceId> out) const {
  const std::shared_ptr<const PlacementEpoch> epoch = published_.load();
  const unsigned k = epoch->strategy->replication();
  if (out.size() != k) {
    return {ErrorCode::kInvalidArgument,
            "VirtualDisk::try_copy_locations: output span holds " +
                std::to_string(out.size()) + " slots but epoch " +
                std::to_string(epoch->epoch) + " places " +
                std::to_string(k) + " copies (re-size from the same "
                "placement_snapshot, or retry)"};
  }
  epoch->strategy->place(block, out);
  return {epoch->epoch};
}

void VirtualDisk::store_fragment(DeviceId target, std::uint64_t block,
                                 unsigned j, Fragment fragment) {
  stores_.at(target)->write({block, j, volume_id_}, std::move(fragment));
}

Result<void> VirtualDisk::try_write(std::uint64_t block,
                                    std::span<const std::uint8_t> data) {
  const MutexLock lock(mu_);
  return write_locked(block, data);
}

Result<void> VirtualDisk::write_locked(std::uint64_t block,
                                       std::span<const std::uint8_t> data) {
  if (dropped_) {
    return Error{ErrorCode::kNotFound,
                 "VirtualDisk: volume dropped from its pool"};
  }
  std::vector<Bytes> fragments;
  try {
    fragments = scheme_->encode(data);
  } catch (const std::invalid_argument& e) {
    return Error{ErrorCode::kInvalidArgument, e.what()};
  }
  metrics::ScopedTimer placement_span(*placement_latency_ns_);
  const std::vector<DeviceId> targets = strategy_->place(block);
  placement_span.stop();
  writes_total_->inc();
  written_bytes_total_->inc(data.size());

  // Check every home before touching any, so a rejected write changes
  // nothing.  A block's old fragments live on these same homes (a reshape
  // moves them with the placement), so the new ones overwrite them in place.
  const unsigned k = scheme_->fragment_count();
  for (unsigned j = 0; j < k; ++j) {
    const auto store = stores_.find(targets[j]);
    if (store == stores_.end() ||
        !store->second->can_write({block, j, volume_id_})) {
      const bool failed = store != stores_.end() && store->second->failed();
      return Error{ErrorCode::kIoError,
                   "VirtualDisk: block " + std::to_string(block) +
                       " not written: device " + std::to_string(targets[j]) +
                       (failed ? " has failed" : " is full")};
    }
  }
  // Seal every fragment before any is stored; a mirror copy takes the CRC
  // of the copy before it.
  std::vector<Fragment> sealed;
  sealed.reserve(k);
  for (Bytes& bytes : fragments) {
    sealed.push_back(
        sealed.empty() ? Fragment::seal(std::move(bytes))
                       : Fragment::seal_like(std::move(bytes), sealed.back()));
  }
  for (unsigned j = 0; j < k; ++j) {
    store_fragment(targets[j], block, j, std::move(sealed[j]));
    ++stats_.fragments_written;
  }
  blocks_[block] = data.size();
  return {};
}

const Fragment* VirtualDisk::verified_fragment(std::uint64_t block,
                                              unsigned j, DeviceId location) {
  const auto store = stores_.find(location);
  const Fragment* stored = store == stores_.end()
                               ? nullptr
                               : store->second->read({block, j, volume_id_});
  if (stored == nullptr) return nullptr;
  if (!stored->intact()) {
    // Bit rot: a corrupt fragment is worse than a missing one -- the caller
    // skips it and works from healthy peers.
    ++stats_.checksum_failures;
    checksum_failures_total_->inc();
    return nullptr;
  }
  return stored;
}

VirtualDisk::Gathered VirtualDisk::gather_fragments(
    std::uint64_t block, std::span<const DeviceId> locations, unsigned need) {
  const unsigned k = scheme_->fragment_count();
  Gathered out;
  out.fragments.resize(k);
  for (unsigned j = 0; j < k && out.present < need; ++j) {
    const Fragment* stored = verified_fragment(block, j, locations[j]);
    if (stored == nullptr) {
      ++out.skipped;
      continue;
    }
    out.fragments[j] = stored->bytes;
    ++out.present;
  }
  return out;
}

Result<std::vector<std::uint8_t>> VirtualDisk::try_read(std::uint64_t block) {
  const MutexLock lock(mu_);
  return read_locked(block);
}

Result<std::vector<std::uint8_t>> VirtualDisk::read_locked(
    std::uint64_t block) {
  const auto size_it = blocks_.find(block);
  if (size_it == blocks_.end()) {
    return Error{ErrorCode::kNotFound, "VirtualDisk: block never written"};
  }
  metrics::ScopedTimer placement_span(*placement_latency_ns_);
  const std::vector<DeviceId> targets = strategy_->place(block);
  placement_span.stop();
  const Gathered gathered =
      gather_fragments(block, targets, scheme_->min_fragments());
  if (gathered.present < scheme_->min_fragments()) {
    return Error{ErrorCode::kUnrecoverable, "VirtualDisk: block unrecoverable"};
  }
  if (gathered.skipped > 0) {
    ++stats_.degraded_reads;
    degraded_reads_total_->inc();
  }
  reads_total_->inc();
  read_bytes_total_->inc(size_it->second);
  return scheme_->decode(gathered.fragments, size_it->second);
}

Result<void> VirtualDisk::try_trim(std::uint64_t block) {
  const MutexLock lock(mu_);
  return trim_locked(block);
}

Result<void> VirtualDisk::trim_locked(std::uint64_t block) {
  const auto it = blocks_.find(block);
  if (it == blocks_.end()) {
    return Error{ErrorCode::kNotFound, "VirtualDisk: block never written"};
  }
  const std::vector<DeviceId> targets = strategy_->place(block);
  for (unsigned j = 0; j < scheme_->fragment_count(); ++j) {
    const auto store = stores_.find(targets[j]);
    if (store != stores_.end()) store->second->erase({block, j, volume_id_});
  }
  blocks_.erase(it);
  return {};
}

Result<void> VirtualDisk::try_add_device(const Device& device) {
  if (pooled_) return pool_only("StoragePool::try_add_device");
  const MutexLock lock(mu_);
  return Result<void>(edit_locked(*set_, std::array{this},
                                  journal::make_add_device(device)));
}

void VirtualDisk::set_journal(std::shared_ptr<journal::JournalSink> sink) {
  if (pooled_) throw_error(pool_only("StoragePool::set_journal"));
  const MutexLock lock(mu_);
  set_->mu_.assert_held();  // mu_ is the set's mutex
  set_->journal_ = std::move(sink);
}

Result<void> VirtualDisk::try_remove_device(DeviceId uid) {
  if (pooled_) return pool_only("StoragePool::try_remove_device");
  const MutexLock lock(mu_);
  return Result<void>(
      edit_locked(*set_, std::array{this}, journal::make_remove_device(uid)));
}

Result<void> VirtualDisk::try_resize_device(DeviceId uid,
                                            std::uint64_t new_capacity) {
  if (pooled_) return pool_only("StoragePool::try_resize_device");
  const MutexLock lock(mu_);
  return Result<void>(
      edit_locked(*set_, std::array{this},
                  journal::make_resize_device(uid, new_capacity)));
}

Result<ClusterConfig> VirtualDisk::next_config(const ClusterConfig& config,
                                               const Stores& stores,
                                               const journal::Record& edit) {
  const auto failed = [&](DeviceId uid) {
    const auto store = stores.find(uid);
    return store != stores.end() && store->second->failed();
  };
  ClusterConfig next = config;
  try {
    switch (edit.type) {
      case journal::RecordType::kAddDevice:
        next.add_device({edit.device, edit.capacity, edit.device_name});
        break;
      case journal::RecordType::kRemoveDevice:
        if (failed(edit.device)) {
          return Error{ErrorCode::kInvalidArgument,
                       "VirtualDisk: use rebuild() for failed devices"};
        }
        next.remove_device(edit.device);
        break;
      case journal::RecordType::kResizeDevice:
        // A failed device stays in `next`; reshape() refuses it.
        next.resize_device(edit.device, edit.capacity);
        break;
      default:  // kRebuild
        for (const Device& d : config.devices()) {
          if (failed(d.uid)) next.remove_device(d.uid);
        }
    }
  } catch (const std::invalid_argument& e) {
    return Error{ErrorCode::kInvalidArgument, e.what()};
  } catch (const std::out_of_range& e) {
    return Error{ErrorCode::kNotFound, e.what()};
  }
  return next;
}

Result<std::uint64_t> VirtualDisk::edit_locked(
    DeviceSet& set, std::span<VirtualDisk* const> volumes,
    const journal::Record& edit) {
  set.mu_.assert_held();  // the caller holds it under its own name
  Result<ClusterConfig> next = next_config(set.config_, set.stores_, edit);
  if (!next.ok()) return next.error();
  if (next.value() == set.config_) return std::uint64_t{0};
  Result<std::uint64_t> rebuilt =
      reshape(set, volumes, std::move(next).take());
  if (!rebuilt.ok()) return rebuilt;
  const Result<void> journaled = set.journal_locked(edit);
  if (!journaled.ok()) return journaled.error();
  return rebuilt;
}

Result<void> VirtualDisk::fail_locked(DeviceSet& set, DeviceId uid) {
  set.mu_.assert_held();  // the caller holds it under its own name
  const auto store = set.stores_.find(uid);
  if (store == set.stores_.end()) {
    return Error{ErrorCode::kNotFound,
                 "VirtualDisk: unknown device " + std::to_string(uid)};
  }
  store->second->fail();
  return set.journal_locked(journal::make_fail_device(uid));
}

Result<void> VirtualDisk::try_set_strategy(PlacementKind kind) {
  if (pooled_) return pool_only("StoragePool::try_set_volume_strategy");
  const MutexLock lock(mu_);
  const PlacementKind before = kind_;
  Result<void> set = set_strategy_locked(kind);
  if (!set.ok() || kind_ == before) return set;
  return set_->journal_locked(journal::make_set_strategy("", kind));
}

Result<void> VirtualDisk::set_strategy_locked(PlacementKind kind) {
  if (kind == kind_) return {};
  const PlacementKind previous = kind_;
  kind_ = kind;  // make_strategy() reads it while reshape() plans
  Result<std::uint64_t> migrated = reshape(*set_, std::array{this}, config_);
  if (!migrated.ok()) {
    kind_ = previous;
    return migrated.error();
  }
  return {};
}

Result<void> VirtualDisk::try_set_scheme(
    std::shared_ptr<RedundancyScheme> next) {
  if (pooled_) return pool_only("StoragePool::try_set_volume_scheme");
  const MutexLock lock(mu_);
  const std::shared_ptr<RedundancyScheme> before = scheme_;
  Result<void> set = set_scheme_locked(std::move(next));
  if (!set.ok() || scheme_ == before) return set;
  return set_->journal_locked(journal::make_set_scheme("", scheme_->name()));
}

Result<void> VirtualDisk::set_scheme_locked(
    std::shared_ptr<RedundancyScheme> next) {
  if (!next) {
    return Error{ErrorCode::kInvalidArgument, "VirtualDisk: null scheme"};
  }
  if (next->name() == scheme_->name()) return {};
  for (const auto& [uid, store] : stores_) {
    if (store->failed()) {
      return Error{ErrorCode::kDeviceFailed,
                   "VirtualDisk: rebuild() required before re-encoding a "
                   "degraded pool"};
    }
  }
  std::shared_ptr<const ReplicationStrategy> next_strategy;
  try {
    next_strategy =
        make_replication_strategy(kind_, config_, next->fragment_count());
  } catch (const std::invalid_argument& e) {
    return Error{ErrorCode::kInvalidArgument, e.what()};
  }

  // Room: each device keeps what other volumes hold there and takes the
  // new encoding's fragments this volume places there.
  std::unordered_map<DeviceId, std::uint64_t> used;
  for (const auto& [uid, store] : stores_) {
    used[uid] = store->used() - store->used_by_volume(volume_id_);
  }
  std::vector<DeviceId> homes(next->fragment_count());
  for (const auto& [block, size] : blocks_) {
    next_strategy->place(block, homes);
    for (const DeviceId uid : homes) ++used[uid];
  }
  for (const auto& [uid, count] : used) {
    const std::uint64_t capacity = stores_.at(uid)->capacity();
    if (count > capacity) {
      return Error{ErrorCode::kIoError,
                   "VirtualDisk: set_scheme refused (nothing mutated): "
                   "device " +
                       std::to_string(uid) + " would hold " +
                       std::to_string(count) + " fragments but has room for " +
                       std::to_string(capacity)};
    }
  }

  // Decode every block up front: if any is unreadable, nothing is mutated.
  std::vector<std::pair<std::uint64_t, Bytes>> contents;
  contents.reserve(blocks_.size());
  for (const auto& [block, size] : blocks_) {
    Result<Bytes> data = read_locked(block);
    if (!data.ok()) {
      return Error{data.code(),
                   "VirtualDisk: set_scheme aborted (nothing mutated); "
                   "block " +
                       std::to_string(block) +
                       " is unreadable: " + data.error().message};
    }
    contents.emplace_back(block, std::move(data).take());
  }

  // Point of no return: drop the old encoding, swap, re-encode.
  const unsigned old_k = scheme_->fragment_count();
  for (const auto& [block, data] : contents) {
    for (unsigned j = 0; j < old_k; ++j) {
      for (auto& [uid, store] : stores_) store->erase({block, j, volume_id_});
    }
  }
  scheme_ = std::move(next);
  strategy_ = std::move(next_strategy);
  topology_events_total_->inc();
  publish_epoch();
  for (auto& [block, data] : contents) {
    Result<void> written = write_locked(block, data);
    if (!written.ok()) {
      return Error{written.code(),
                   "VirtualDisk: set_scheme re-encode failed at block " +
                       std::to_string(block) +
                       " (blocks before it are re-encoded, this one and "
                       "later ones are lost): " +
                       written.error().message};
    }
  }
  return {};
}

void VirtualDisk::fail_device(DeviceId uid) {
  if (pooled_) throw_error(pool_only("StoragePool::fail_device"));
  const MutexLock lock(mu_);
  fail_locked(*set_, uid).value_or_throw();
}

bool VirtualDisk::corrupt_fragment(std::uint64_t block, unsigned fragment) {
  const MutexLock lock(mu_);
  if (!blocks_.contains(block) || fragment >= scheme_->fragment_count()) {
    return false;
  }
  const std::vector<DeviceId> targets = strategy_->place(block);
  const auto store = stores_.find(targets[fragment]);
  if (store == stores_.end()) return false;
  return store->second->corrupt({block, fragment, volume_id_});
}

std::uint64_t VirtualDisk::rebuild() {
  if (pooled_) throw_error(pool_only("StoragePool::rebuild"));
  const MutexLock lock(mu_);
  return edit_locked(*set_, std::array{this}, journal::make_rebuild())
      .value_or_throw();
}

VirtualDisk::MovingHomes VirtualDisk::moving_blocks(
    const ReplicationStrategy& next) const {
  std::vector<std::uint64_t> ids;
  ids.reserve(blocks_.size());
  for (const auto& [block, size] : blocks_) ids.push_back(block);
  const unsigned k = scheme_->fragment_count();
  std::vector<DeviceId> old_homes(ids.size() * k);
  std::vector<DeviceId> new_homes(ids.size() * k);
  BatchPlacer& placer = BatchPlacer::shared();
  placer.place(*strategy_, ids, old_homes);
  placer.place(next, ids, new_homes);
  const std::span<const DeviceId> before(old_homes);
  const std::span<const DeviceId> after(new_homes);
  MovingHomes moving;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto from = before.subspan(i * k, k);
    const auto to = after.subspan(i * k, k);
    if (std::ranges::equal(from, to)) continue;
    std::vector<DeviceId>& homes = moving[ids[i]];
    homes.reserve(2 * k);
    homes.assign(from.begin(), from.end());
    homes.insert(homes.end(), to.begin(), to.end());
  }
  return moving;
}

Result<void> VirtualDisk::check_plans(const Stores& stores,
                                      std::span<const Plan> plans,
                                      const ClusterConfig& next) {
  // Each device's occupancy as the moves before leave it, and its capacity
  // while they run.
  struct Room {
    std::uint64_t used = 0;
    std::uint64_t capacity = 0;
  };
  std::unordered_map<DeviceId, Room> rooms;
  for (const auto& [uid, store] : stores) {
    rooms[uid] = {store->used(), store->capacity()};
  }
  for (const Device& d : next.devices()) {
    Room& room = rooms[d.uid];
    room.capacity = std::max(room.capacity, d.capacity);
  }
  const auto holds = [&](DeviceId uid, const FragmentKey& key) {
    const auto store = stores.find(uid);
    return store != stores.end() && store->second->contains(key);
  };
  for (const Plan& plan : plans) {
    const VirtualDisk& volume = *plan.volume;
    volume.mu_.assert_held();  // the set's lock, held by the caller
    const unsigned k = volume.scheme_->fragment_count();
    for (const auto& [block, homes] : plan.moving) {
      const std::span<const DeviceId> from = std::span(homes).first(k);
      const std::span<const DeviceId> to = std::span(homes).subspan(k, k);
      for (unsigned j = 0; j < k; ++j) {
        if (from[j] != to[j] && holds(from[j], {block, j, volume.volume_id_})) {
          --rooms[from[j]].used;
        }
      }
      for (unsigned j = 0; j < k; ++j) {
        if (from[j] == to[j]) continue;
        Room& target = rooms[to[j]];
        if (!holds(to[j], {block, j, volume.volume_id_})) ++target.used;
        if (target.used > target.capacity) {
          return Error{ErrorCode::kIoError,
                       "VirtualDisk: reshape cannot move block " +
                           std::to_string(block) + ": device " +
                           std::to_string(to[j]) + " has no room for it"};
        }
      }
    }
  }
  for (const Device& d : next.devices()) {
    if (rooms[d.uid].used > d.capacity) {
      return Error{ErrorCode::kIoError,
                   "VirtualDisk: reshape leaves device " +
                       std::to_string(d.uid) + " over its capacity " +
                       std::to_string(d.capacity)};
    }
  }
  return {};
}

unsigned VirtualDisk::reshape_block(std::uint64_t block,
                                    std::span<const DeviceId> homes) {
  const unsigned k = scheme_->fragment_count();
  const std::span<const DeviceId> from = homes.first(k);
  const std::span<const DeviceId> to = homes.subspan(k, k);

  // Verify each moving fragment in its old home.  A fragment that stays is
  // not read: rot there is scrub()'s to find, as it is for reads.
  std::vector<std::optional<Bytes>> fragments(k);  // verified or rebuilt
  std::vector<std::uint32_t> crcs(k);              // and their CRCs
  // The first verified fragment, in its store: valid until the first erase.
  const Fragment* peer = nullptr;
  unsigned present = 0;
  const auto take = [&](unsigned j) {
    const Fragment* stored = verified_fragment(block, j, from[j]);
    if (stored == nullptr) return false;
    fragments[j] = stored->bytes;
    crcs[j] = stored->crc;
    if (peer == nullptr) peer = stored;
    ++present;
    return true;
  };
  std::vector<unsigned> lost;  // moving fragments whose source is gone
  for (unsigned j = 0; j < k; ++j) {
    if (from[j] != to[j] && !take(j)) lost.push_back(j);
  }
  if (!lost.empty()) {
    // Rebuild each lost source from verified peers, all gathered before
    // any fragment of the block moves.
    for (unsigned j = 0; j < k && present < scheme_->min_fragments(); ++j) {
      if (from[j] == to[j]) (void)take(j);  // moving ones: taken above
    }
    // With too few peers the block was unrecoverable before this reshape
    // and stays so: its lost fragments stay missing.
    if (present < scheme_->min_fragments()) lost.clear();
    for (const unsigned j : lost) {
      // `peer` is set: min_fragments() fragments verified.  A rebuilt
      // mirror copy equals the peer and takes its CRC; any other rebuilt
      // fragment is sealed fresh.
      Bytes bytes = scheme_->reconstruct_fragment(fragments, j);
      Fragment rebuilt = Fragment::seal_like(std::move(bytes), *peer);
      fragments[j] = std::move(rebuilt.bytes);
      crcs[j] = rebuilt.crc;
      ++stats_.fragments_rebuilt;
      fragments_rebuilt_total_->inc();
    }
  }

  // Erase every moving source before writing any, so a device swapping
  // fragments with another never transiently exceeds its capacity, and the
  // writes check_plans() made room for cannot fail partway.
  for (unsigned j = 0; j < k; ++j) {
    if (from[j] == to[j]) continue;
    const auto src = stores_.find(from[j]);
    if (src != stores_.end()) src->second->erase({block, j, volume_id_});
  }
  for (unsigned j = 0; j < k; ++j) {
    if (from[j] == to[j] || !fragments[j]) continue;
    Fragment moving{std::move(*fragments[j]), crcs[j]};
    stats_.bytes_moved += moving.bytes.size();
    ++stats_.fragments_moved;
    migration_bytes_moved_total_->inc(moving.bytes.size());
    fragments_moved_total_->inc();
    store_fragment(to[j], block, j, std::move(moving));
  }
  return static_cast<unsigned>(lost.size());
}

Result<std::uint64_t> VirtualDisk::reshape(DeviceSet& set,
                                         std::span<VirtualDisk* const> volumes,
                                         ClusterConfig next) {
  set.mu_.assert_held();  // the caller holds it under its own name
  // A failed device must not be a migration target: callers rebuild() before
  // reshaping a degraded pool.
  for (const Device& d : next.devices()) {
    const auto it = set.stores_.find(d.uid);
    if (it != set.stores_.end() && it->second->failed()) {
      return Error{
          ErrorCode::kDeviceFailed,
          "VirtualDisk: rebuild() required before migrating a degraded pool"};
    }
  }
  std::vector<Plan> plans;
  for (VirtualDisk* volume : volumes) {
    volume->mu_.assert_held();
    try {
      plans.push_back({volume, volume->make_strategy(next), {}});
    } catch (const std::invalid_argument& e) {
      return Error{ErrorCode::kInvalidArgument, e.what()};
    }
    plans.back().moving = volume->moving_blocks(*plans.back().strategy);
  }
  Result<void> fits = check_plans(set.stores_, plans, next);
  if (!fits.ok()) return fits.error();

  // Commit: new stores and raised capacities first, so the moves find the
  // room check_plans() counted on.
  for (const Device& d : next.devices()) {
    const auto it = set.stores_.find(d.uid);
    if (it == set.stores_.end()) {
      set.stores_.emplace(d.uid, std::make_shared<DeviceStore>(d));
    } else if (d.capacity > it->second->capacity()) {
      it->second->resize(d.capacity);
    }
  }
  set.config_ = std::move(next);
  constexpr std::size_t kBatch = 1024;  // blocks per latency sample
  std::uint64_t rebuilt = 0;
  for (Plan& plan : plans) {
    VirtualDisk& volume = *plan.volume;
    volume.mu_.assert_held();
    volume.topology_events_total_->inc();
    for (auto it = plan.moving.begin(); it != plan.moving.end();) {
      metrics::ScopedTimer batch_span(*volume.migration_step_latency_ns_);
      for (std::size_t n = 0; n < kBatch && it != plan.moving.end();
           ++n, ++it) {
        rebuilt += volume.reshape_block(it->first, it->second);
      }
    }
    // Install the new strategy and atomically publish the new epoch:
    // concurrent place() calls flip from the old (strategy, config) pair
    // to the new one in a single step.
    volume.strategy_ = std::move(plan.strategy);
    volume.publish_epoch();
  }
  // Lowered capacities and dropped stores last, once the moves drained them.
  const ClusterConfig& config = set.config_;
  std::erase_if(set.stores_, [&](const auto& entry) {
    return !config.contains(entry.first);
  });
  for (const Device& d : config.devices()) {
    DeviceStore& store = *set.stores_.at(d.uid);
    if (d.capacity < store.capacity()) store.resize(d.capacity);
  }
  return rebuilt;
}

std::uint64_t VirtualDisk::repair() {
  const MutexLock lock(mu_);
  const unsigned k = scheme_->fragment_count();
  const std::uint64_t repaired_before = stats_.fragments_repaired;
  std::vector<DeviceId> loc(k);
  for (const auto& [block, size] : blocks_) {
    strategy_->place(block, loc);
    const Gathered gathered = gather_fragments(block, loc, k);
    if (gathered.present == k) continue;                       // healthy
    if (gathered.present < scheme_->min_fragments()) continue;  // lost
    for (unsigned j = 0; j < k; ++j) {
      if (gathered.fragments[j]) continue;
      const auto store = stores_.find(loc[j]);
      if (store == stores_.end() || store->second->failed()) {
        continue;  // home device gone: rebuild() handles that case
      }
      store_fragment(loc[j], block, j,
                     Fragment::seal(scheme_->reconstruct_fragment(
                         gathered.fragments, j)));
      ++stats_.fragments_repaired;
      fragments_repaired_total_->inc();
    }
  }
  return stats_.fragments_repaired - repaired_before;
}

VirtualDisk::ScrubReport VirtualDisk::scrub() {
  const MutexLock lock(mu_);
  ScrubReport report;
  const unsigned k = scheme_->fragment_count();
  std::vector<DeviceId> loc(k);
  for (const auto& [block, size] : blocks_) {
    ++report.blocks_checked;
    strategy_->place(block, loc);
    // Every fragment, not just the ones a read needs: presence AND
    // checksum validity, so rot in fragments reads skip is found here.
    const unsigned present = gather_fragments(block, loc, k).present;
    if (present < scheme_->min_fragments()) {
      ++report.unreadable_blocks;
    } else if (present < k) {
      ++report.degraded_blocks;
    }
  }
  // Any fragment sitting on a device the placement does not map it to?
  std::uint64_t expected_total = 0;
  for (const auto& [block, size] : blocks_) {
    (void)size;
    expected_total += k;
  }
  std::uint64_t stored_total = 0;
  for (const auto& [uid, store] : stores_) {
    stored_total += store->used_by_volume(volume_id_);
  }
  if (stored_total > expected_total) {
    report.misplaced_fragments = stored_total - expected_total;
  }
  return report;
}

std::uint64_t VirtualDisk::used_on(DeviceId uid) const {
  const MutexLock lock(mu_);
  const auto it = stores_.find(uid);
  return it == stores_.end() ? 0 : it->second->used();
}

}  // namespace rds
