#include "src/storage/device_store.hpp"

#include <stdexcept>
#include <string>

#include "src/metrics/registry.hpp"
#include "src/util/crc32.hpp"
#include "src/util/hash.hpp"

namespace rds {

std::size_t FragmentKeyHash::operator()(const FragmentKey& k) const noexcept {
  return static_cast<std::size_t>(hash2(
      k.block, (static_cast<std::uint64_t>(k.volume) << 32) | k.fragment));
}

Fragment Fragment::seal(std::vector<std::uint8_t> bytes) {
  const std::uint32_t crc = crc32(bytes);
  return {std::move(bytes), crc};
}

Fragment Fragment::seal_like(std::vector<std::uint8_t> bytes,
                             const Fragment& peer) {
  if (bytes == peer.bytes) return {std::move(bytes), peer.crc};
  return seal(std::move(bytes));
}

bool Fragment::intact() const noexcept { return crc32(bytes) == crc; }

DeviceStore::DeviceStore(Device device)
    : device_(std::move(device)),
      gauge_(&metrics::Registry::global().gauge(
          "rds_device_fragments", {{"device", std::to_string(device_.uid)}})) {
  gauge_->set(0);
}

bool DeviceStore::can_write(const FragmentKey& key) const {
  return !failed_ &&
         (data_.size() < device_.capacity || data_.contains(key));
}

void DeviceStore::write(const FragmentKey& key, Fragment fragment) {
  if (!can_write(key)) {
    throw std::runtime_error(
        (failed_ ? "DeviceStore: write to failed device "
                 : "DeviceStore: device full: ") +
        device_.name);
  }
  data_.insert_or_assign(key, std::move(fragment));
  gauge_->set(static_cast<std::int64_t>(data_.size()));
}

const Fragment* DeviceStore::read(const FragmentKey& key) const {
  if (failed_) return nullptr;
  const auto it = data_.find(key);
  return it == data_.end() ? nullptr : &it->second;
}

bool DeviceStore::contains(const FragmentKey& key) const {
  return !failed_ && data_.contains(key);
}

bool DeviceStore::erase(const FragmentKey& key) {
  if (data_.erase(key) == 0) return false;
  gauge_->set(static_cast<std::int64_t>(data_.size()));
  return true;
}

std::uint64_t DeviceStore::used_by_volume(std::uint32_t volume) const {
  std::uint64_t count = 0;
  for (const auto& [key, fragment] : data_) {
    if (key.volume == volume) ++count;
  }
  return count;
}

void DeviceStore::resize(std::uint64_t new_capacity) {
  if (new_capacity == 0) {
    throw std::invalid_argument("DeviceStore: zero capacity: " + device_.name);
  }
  if (new_capacity < data_.size()) {
    throw std::invalid_argument(
        "DeviceStore: cannot shrink " + device_.name + " below its " +
        std::to_string(data_.size()) + " stored fragments");
  }
  device_.capacity = new_capacity;
}

bool DeviceStore::corrupt(const FragmentKey& key) {
  const auto it = data_.find(key);
  if (it == data_.end()) return false;
  auto& bytes = it->second.bytes;
  if (bytes.empty()) {
    bytes.push_back(0xEE);  // growth is also corruption
  } else {
    bytes[bytes.size() / 2] ^= 0x5A;
  }
  return true;
}

}  // namespace rds
