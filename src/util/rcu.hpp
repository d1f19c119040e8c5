// Minimal shared_ptr-RCU cell: readers take an immutable snapshot with one
// atomic load, a writer publishes a replacement with one atomic store, and
// the old snapshot stays alive until its last reader drops it -- classic
// epoch semantics with shared_ptr reference counts standing in for grace
// periods.
//
// load()/store() are safe from any thread.  Move construction /
// assignment exist so owning objects (VirtualDisk) stay movable and are NOT
// thread-safe: only move a cell while no other thread touches either side.
#pragma once

#include <atomic>
#include <memory>
#include <utility>

namespace rds {

template <typename T>
class RcuCell {
 public:
  RcuCell() = default;
  explicit RcuCell(std::shared_ptr<const T> initial) noexcept
      : cell_(std::move(initial)) {}

  // Relaxed is enough here: moves are documented single-threaded (no other
  // thread may touch either cell), so there is nothing to order against.
  RcuCell(RcuCell&& other) noexcept
      : cell_(other.cell_.load(std::memory_order_relaxed)) {}
  RcuCell& operator=(RcuCell&& other) noexcept {
    cell_.store(other.cell_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    return *this;
  }
  RcuCell(const RcuCell&) = delete;
  RcuCell& operator=(const RcuCell&) = delete;

  /// Current snapshot (may be null before the first store).
  [[nodiscard]] std::shared_ptr<const T> load() const noexcept {
    return cell_.load(std::memory_order_acquire);
  }

  /// Publishes `next`; readers holding the old snapshot keep it alive.
  void store(std::shared_ptr<const T> next) noexcept {
    cell_.store(std::move(next), std::memory_order_release);
  }

 private:
  std::atomic<std::shared_ptr<const T>> cell_;
};

}  // namespace rds
