/**
 * @file
 * Clang Thread Safety Analysis annotations (DESIGN.md §13).
 *
 * Under clang the macros expand to the attributes consumed by
 * -Wthread-safety, so lock-discipline violations — touching a
 * SPUR_GUARDED_BY member without holding its mutex, calling a
 * SPUR_REQUIRES function outside the lock, leaking a lock out of a
 * scope — are *compile errors* (the tree builds with -Werror and the
 * clang CI job enables -Wthread-safety).  Under GCC they expand to
 * nothing; the annotated code is plain C++.
 *
 * The attributes only understand capability types, and libstdc++'s
 * std::mutex is not one, so annotated code locks through the
 * spur::Mutex / spur::MutexLock wrappers in
 * src/common/mutex.h rather than <mutex> primitives directly.
 *
 * tests/thread_safety_fail.cc is a deliberately mis-locked translation
 * unit whose *failure* to compile under clang is asserted by a ctest
 * WILL_FAIL check, proving the analysis is actually armed.
 */
#ifndef SPUR_COMMON_THREAD_ANNOTATIONS_H_
#define SPUR_COMMON_THREAD_ANNOTATIONS_H_

#if defined(__clang__)
#define SPUR_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define SPUR_THREAD_ANNOTATION(x)  // GCC: annotations compile away.
#endif

/** Marks a class as a lockable capability (e.g. a mutex wrapper). */
#define SPUR_CAPABILITY(x) SPUR_THREAD_ANNOTATION(capability(x))

/** Marks an RAII class that acquires in its ctor, releases in its dtor. */
#define SPUR_SCOPED_CAPABILITY SPUR_THREAD_ANNOTATION(scoped_lockable)

/** Data member readable/writable only while holding @p x. */
#define SPUR_GUARDED_BY(x) SPUR_THREAD_ANNOTATION(guarded_by(x))

/** Pointer member whose pointee is protected by @p x. */
#define SPUR_PT_GUARDED_BY(x) SPUR_THREAD_ANNOTATION(pt_guarded_by(x))

/** Function callable only while holding the listed capabilities. */
#define SPUR_REQUIRES(...) \
    SPUR_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Function that acquires the listed capabilities and returns holding them. */
#define SPUR_ACQUIRE(...) \
    SPUR_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** Function that releases the listed capabilities before returning. */
#define SPUR_RELEASE(...) \
    SPUR_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** Function that must NOT be called while holding the listed capabilities. */
#define SPUR_EXCLUDES(...) SPUR_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** Function returning a reference to the capability protecting its result. */
#define SPUR_RETURN_CAPABILITY(x) SPUR_THREAD_ANNOTATION(lock_returned(x))

/** Lock-ordering hint: this capability is acquired after the listed ones. */
#define SPUR_ACQUIRED_AFTER(...) \
    SPUR_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/** Lock-ordering hint: this capability is acquired before the listed ones. */
#define SPUR_ACQUIRED_BEFORE(...) \
    SPUR_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))

/** Escape hatch: disables analysis inside one function body. */
#define SPUR_NO_THREAD_SAFETY_ANALYSIS \
    SPUR_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif  // SPUR_COMMON_THREAD_ANNOTATIONS_H_
