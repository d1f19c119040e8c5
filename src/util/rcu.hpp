// Minimal shared_ptr-RCU cell: readers take an immutable snapshot (a
// shared_ptr copy under a short lock), a writer publishes a replacement by
// swapping the pointer under the same lock, and the old snapshot stays alive
// until its last reader drops it -- classic epoch semantics with shared_ptr
// reference counts standing in for grace periods.
//
// The lock guards only the pointer copy or swap: a reader never waits for
// more than another reader's or the writer's reference-count update, and
// the writer releases the old snapshot after unlocking, so a destructor
// never runs under it.  (libstdc++'s std::atomic<std::shared_ptr> is not
// lock-free either -- it spins on a lock bit that ThreadSanitizer cannot
// see; an rds::Mutex is visible to TSan and -Wthread-safety alike.)
//
// load()/store() are safe from any thread.  Move construction /
// assignment exist so owning objects (VirtualDisk) stay movable and are NOT
// thread-safe: only move a cell while no other thread touches either side.
#pragma once

#include <memory>
#include <utility>

#include "src/util/mutex.hpp"
#include "src/util/thread_annotations.hpp"

namespace rds {

template <typename T>
class RcuCell {
 public:
  RcuCell() = default;
  explicit RcuCell(std::shared_ptr<const T> initial) noexcept
      : cell_(std::move(initial)) {}

  // Moves are documented single-threaded (no other thread may touch either
  // cell), so they need no lock.
  RcuCell(RcuCell&& other) noexcept RDS_NO_THREAD_SAFETY_ANALYSIS
      : cell_(std::move(other.cell_)) {}
  RcuCell& operator=(RcuCell&& other) noexcept RDS_NO_THREAD_SAFETY_ANALYSIS {
    cell_ = std::move(other.cell_);
    return *this;
  }
  RcuCell(const RcuCell&) = delete;
  RcuCell& operator=(const RcuCell&) = delete;

  /// Current snapshot (may be null before the first store).
  [[nodiscard]] std::shared_ptr<const T> load() const noexcept
      RDS_EXCLUDES(mu_) {
    const MutexLock lock(mu_);
    return cell_;
  }

  /// Publishes `next`; readers holding the old snapshot keep it alive.
  void store(std::shared_ptr<const T> next) noexcept RDS_EXCLUDES(mu_) {
    {
      const MutexLock lock(mu_);
      cell_.swap(next);
    }
    // `next` now holds the old snapshot; it is released here, unlocked.
  }

 private:
  mutable Mutex mu_;
  std::shared_ptr<const T> cell_ RDS_GUARDED_BY(mu_);
};

}  // namespace rds
