// In-memory simulation of one physical storage device.
//
// Substitution note (see DESIGN.md): the paper's evaluation is itself a
// block-count simulation; this store adds actual byte payloads so the
// virtualization layer above can be tested end-to-end (write -> migrate ->
// fail -> rebuild -> read back), while every placement-level number stays
// identical to a hardware deployment.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/cluster/device.hpp"
#include "src/metrics/gauge.hpp"

namespace rds {

/// Key of one stored fragment: (logical block address, fragment index,
/// owning volume).  The volume field namespaces co-hosted volumes that
/// share one set of device stores (see storage/storage_pool.hpp).
struct FragmentKey {
  std::uint64_t block = 0;
  std::uint32_t fragment = 0;
  std::uint32_t volume = 0;

  friend bool operator==(const FragmentKey&, const FragmentKey&) = default;
};

struct FragmentKeyHash {
  [[nodiscard]] std::size_t operator()(const FragmentKey& k) const noexcept;
};

/// One stored fragment: its bytes and the CRC-32 recorded when they were
/// encoded.  The record travels whole: a reshape moves it and a snapshot
/// saves and loads it, CRC included.
struct Fragment {
  std::vector<std::uint8_t> bytes;
  std::uint32_t crc = 0;

  /// Records the CRC of freshly encoded (or rebuilt) bytes.
  [[nodiscard]] static Fragment seal(std::vector<std::uint8_t> bytes);

  /// seal(), except that bytes equal to `peer`'s (a mirror copy) take the
  /// peer's recorded CRC: a memcmp is far cheaper than a second CRC pass.
  [[nodiscard]] static Fragment seal_like(std::vector<std::uint8_t> bytes,
                                          const Fragment& peer);

  /// Whether the bytes still match their recorded CRC.
  [[nodiscard]] bool intact() const noexcept;
};

/// One device's fragments.  Its `rds_device_fragments{device}` gauge
/// follows used() through every write and erase, a snapshot load's
/// included.
class DeviceStore {
 public:
  /// `capacity` is in fragments (the paper's "balls").
  explicit DeviceStore(Device device);

  [[nodiscard]] const Device& device() const noexcept { return device_; }
  [[nodiscard]] std::uint64_t used() const noexcept { return data_.size(); }

  /// Fragments stored for one volume (pool mode shares a store across
  /// volumes).  O(stored fragments).
  [[nodiscard]] std::uint64_t used_by_volume(std::uint32_t volume) const;
  [[nodiscard]] std::uint64_t capacity() const noexcept {
    return device_.capacity;
  }
  [[nodiscard]] bool failed() const noexcept { return failed_; }

  /// Whether write(key, ...) would succeed: the device has not failed, and
  /// either the key is already stored (an overwrite) or there is room.
  [[nodiscard]] bool can_write(const FragmentKey& key) const;

  /// Stores a fragment, replacing the key's old record in place.  Throws
  /// std::runtime_error when !can_write(key).
  void write(const FragmentKey& key, Fragment fragment);

  /// The stored record, without a copy; nullptr if absent or the device is
  /// failed.  Not verified: callers check intact().  Valid until this
  /// store's next mutation.
  [[nodiscard]] const Fragment* read(const FragmentKey& key) const;

  [[nodiscard]] bool contains(const FragmentKey& key) const;

  /// Removes a fragment if present; returns whether it existed.
  bool erase(const FragmentKey& key);

  /// All stored fragments (serialization/diagnostics).
  [[nodiscard]] const std::unordered_map<FragmentKey, Fragment,
                                         FragmentKeyHash>&
  contents() const noexcept {
    return data_;
  }

  /// Changes the device's capacity (in fragments).  Throws
  /// std::invalid_argument on zero or on a capacity below the current
  /// occupancy -- callers drain fragments off before shrinking.
  void resize(std::uint64_t new_capacity);

  /// Simulates a crash: all stored data becomes unreadable.
  void fail() noexcept { failed_ = true; }

  /// Simulates silent data corruption (bit rot): flips a byte of the
  /// stored bytes (or grows empty ones) and leaves the recorded CRC alone,
  /// so the fragment no longer reads as intact().  Returns whether the
  /// fragment existed.  Test/chaos hook.
  bool corrupt(const FragmentKey& key);

 private:
  Device device_;
  std::unordered_map<FragmentKey, Fragment, FragmentKeyHash> data_;
  bool failed_ = false;
  /// Registry-owned (process lifetime), resolved once at construction.
  metrics::Gauge* gauge_;
};

}  // namespace rds
