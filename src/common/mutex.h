/**
 * @file
 * Capability-annotated synchronization primitives (DESIGN.md §13).
 *
 * Thin wrappers over <mutex> that carry the Clang Thread Safety
 * Analysis attributes — libstdc++'s std::mutex is not a capability type,
 * so GUARDED_BY declarations must name one of these instead.  Zero
 * overhead: every member is an inline forward to the standard
 * primitive, and the annotations vanish entirely on GCC.
 */
#ifndef SPUR_COMMON_MUTEX_H_
#define SPUR_COMMON_MUTEX_H_

#include <mutex>

#include "src/common/thread_annotations.h"

namespace spur {

/** A std::mutex the thread-safety analysis can reason about. */
class SPUR_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex&) = delete;
    Mutex& operator=(const Mutex&) = delete;

    void Lock() SPUR_ACQUIRE() { mutex_.lock(); }
    void Unlock() SPUR_RELEASE() { mutex_.unlock(); }

  private:
    std::mutex mutex_;
};

/** RAII lock for Mutex (std::lock_guard with scope annotations). */
class SPUR_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex& mutex) SPUR_ACQUIRE(mutex)
      : mutex_(mutex)
    {
        mutex_.Lock();
    }

    ~MutexLock() SPUR_RELEASE() { mutex_.Unlock(); }

    MutexLock(const MutexLock&) = delete;
    MutexLock& operator=(const MutexLock&) = delete;

  private:
    Mutex& mutex_;
};

}  // namespace spur

#endif  // SPUR_COMMON_MUTEX_H_
