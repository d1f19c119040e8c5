// Clang thread-safety annotation macros (no-ops on every other compiler).
//
// These wrap the attributes behind Clang's `-Wthread-safety` static
// analysis (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html) so the
// locking discipline of the concurrent subsystems -- metrics registry,
// batch placer, migration executor, virtual disk, storage pool -- is
// machine-checked at compile time instead of living in comments.  The CI
// lint job builds the tree with Clang and `-Werror=thread-safety`; GCC
// builds see empty macros and identical code.
//
// Use through rds::Mutex / rds::MutexLock (src/util/mutex.hpp), not by
// annotating raw std::mutex members: the analysis only understands types
// that carry the capability attributes themselves.
#pragma once

#if defined(__clang__)
#define RDS_THREAD_ANNOTATION_ATTRIBUTE_(x) __attribute__((x))
#else
#define RDS_THREAD_ANNOTATION_ATTRIBUTE_(x)  // no-op off Clang
#endif

/// Marks a class as a lockable capability ("mutex" names the kind in
/// diagnostics).
#define RDS_CAPABILITY(x) RDS_THREAD_ANNOTATION_ATTRIBUTE_(capability(x))

/// Marks an RAII class whose constructor acquires and destructor releases a
/// capability (MutexLock).
#define RDS_SCOPED_CAPABILITY RDS_THREAD_ANNOTATION_ATTRIBUTE_(scoped_lockable)

/// Data member readable/writable only while holding the given capability.
#define RDS_GUARDED_BY(x) RDS_THREAD_ANNOTATION_ATTRIBUTE_(guarded_by(x))

/// Pointer member whose *pointee* is protected by the given capability.
#define RDS_PT_GUARDED_BY(x) RDS_THREAD_ANNOTATION_ATTRIBUTE_(pt_guarded_by(x))

/// Lock-ordering declarations (deadlock documentation).
#define RDS_ACQUIRED_BEFORE(...) \
  RDS_THREAD_ANNOTATION_ATTRIBUTE_(acquired_before(__VA_ARGS__))
#define RDS_ACQUIRED_AFTER(...) \
  RDS_THREAD_ANNOTATION_ATTRIBUTE_(acquired_after(__VA_ARGS__))

/// Function requires the capability to be held on entry (and does not
/// release it).
#define RDS_REQUIRES(...) \
  RDS_THREAD_ANNOTATION_ATTRIBUTE_(requires_capability(__VA_ARGS__))
#define RDS_REQUIRES_SHARED(...) \
  RDS_THREAD_ANNOTATION_ATTRIBUTE_(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability and holds it on return.
#define RDS_ACQUIRE(...) \
  RDS_THREAD_ANNOTATION_ATTRIBUTE_(acquire_capability(__VA_ARGS__))
#define RDS_ACQUIRE_SHARED(...) \
  RDS_THREAD_ANNOTATION_ATTRIBUTE_(acquire_shared_capability(__VA_ARGS__))

/// Function releases the capability (which must be held on entry).
#define RDS_RELEASE(...) \
  RDS_THREAD_ANNOTATION_ATTRIBUTE_(release_capability(__VA_ARGS__))
#define RDS_RELEASE_SHARED(...) \
  RDS_THREAD_ANNOTATION_ATTRIBUTE_(release_shared_capability(__VA_ARGS__))

/// Function tries to acquire; first argument is the success return value.
#define RDS_TRY_ACQUIRE(...) \
  RDS_THREAD_ANNOTATION_ATTRIBUTE_(try_acquire_capability(__VA_ARGS__))

/// Function must NOT be called while holding the capability (non-reentrant
/// entry points that acquire it themselves).
#define RDS_EXCLUDES(...) \
  RDS_THREAD_ANNOTATION_ATTRIBUTE_(locks_excluded(__VA_ARGS__))

/// Function asserts that the capability is held: the analysis treats it as
/// held from the call on.  For a capability held under another name (one
/// mutex that several objects share, each through a reference of its own).
#define RDS_ASSERT_CAPABILITY(...) \
  RDS_THREAD_ANNOTATION_ATTRIBUTE_(assert_capability(__VA_ARGS__))

/// Function returns a reference to the given capability.
#define RDS_RETURN_CAPABILITY(x) \
  RDS_THREAD_ANNOTATION_ATTRIBUTE_(lock_returned(x))

/// Escape hatch: disables the analysis for one function.  Pair with a
/// comment saying why the discipline holds anyway.
#define RDS_NO_THREAD_SAFETY_ANALYSIS \
  RDS_THREAD_ANNOTATION_ATTRIBUTE_(no_thread_safety_analysis)
