// Annotated mutex wrappers: the lockable types Clang's -Wthread-safety
// analysis reasons about (see src/util/thread_annotations.hpp).
//
// rds::Mutex wraps a heap-backed std::mutex so classes that own one stay
// movable (a VirtualDisk's RcuCell moves with the disk Snapshot::load_disk
// returns by value).  Moving a Mutex while any thread holds or waits on it
// is undefined -- like RcuCell, move only while no other thread touches
// either side; a moved-from Mutex may only be destroyed or assigned to.
//
// rds::MutexLock is the scoped guard the analysis tracks.  It is
// re-lockable (unlock()/lock()) so condition-variable loops keep their
// guarded-member reads inside a scope the analysis can see:
//
//     MutexLock lock(mu_);
//     while (!ready_) cv_.wait(lock);   // ready_ RDS_GUARDED_BY(mu_)
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>

#include "src/util/thread_annotations.hpp"

namespace rds {

class CondVar;
class MutexLock;

class RDS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() : raw_(std::make_unique<std::mutex>()) {}
  Mutex(Mutex&&) noexcept = default;
  Mutex& operator=(Mutex&&) noexcept = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() RDS_ACQUIRE() { raw_->lock(); }
  void unlock() RDS_RELEASE() { raw_->unlock(); }
  [[nodiscard]] bool try_lock() RDS_TRY_ACQUIRE(true) {
    return raw_->try_lock();
  }

  /// Tells the thread-safety analysis that the caller holds this mutex.
  /// Objects sharing one mutex reach it through references of their own,
  /// and the analysis cannot see that those name the same lock; the caller
  /// holds it under another object's name.  Checks nothing at run time.
  void assert_held() const RDS_ASSERT_CAPABILITY() {}

 private:
  friend class MutexLock;
  std::unique_ptr<std::mutex> raw_;
};

/// RAII lock the thread-safety analysis understands; re-lockable so
/// wait loops and hand-over-hand sections stay annotated.
class RDS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) RDS_ACQUIRE(mu) : lock_(*mu.raw_) {}
  ~MutexLock() RDS_RELEASE() = default;

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Releases early (the destructor then does nothing).
  void unlock() RDS_RELEASE() { lock_.unlock(); }
  /// Re-acquires after an unlock().
  void lock() RDS_ACQUIRE() { lock_.lock(); }

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable working on MutexLock.  wait() atomically releases and
/// re-acquires the lock; by the time it returns the caller holds the mutex
/// again, so the analysis (which does not model the transient release) stays
/// sound.  Use explicit `while (!predicate) cv.wait(lock);` loops -- a
/// predicate lambda would read guarded members from a scope the analysis
/// cannot connect to the held lock.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(MutexLock& lock) { cv_.wait(lock.lock_); }
  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace rds
