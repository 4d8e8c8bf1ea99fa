/**
 * @file
 * Capability-annotated synchronization primitives (DESIGN.md §13).
 *
 * Thin wrappers over <mutex> and <condition_variable> that carry the
 * Clang Thread Safety Analysis attributes — libstdc++'s std::mutex is
 * not a capability type, so GUARDED_BY declarations must name one of
 * these instead.  Zero overhead: every member is an inline forward to
 * the standard primitive, and the annotations vanish entirely on GCC.
 *
 * Condition waits have no predicate overload: a predicate lambda is a
 * separate function to the analysis, which would not see the mutex
 * held.  Callers write the wait loop, which the analysis checks:
 *
 *   MutexLock lock(mutex_);
 *   while (!ready_condition) {   // guarded reads, provably locked
 *       cv_.Wait(mutex_);
 *   }
 */
#ifndef SPUR_COMMON_MUTEX_H_
#define SPUR_COMMON_MUTEX_H_

#include <condition_variable>
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
    friend class CondVar;

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

/** A condition variable waited on under a Mutex (see the file comment). */
class CondVar
{
  public:
    CondVar() = default;
    CondVar(const CondVar&) = delete;
    CondVar& operator=(const CondVar&) = delete;

    /**
     * Atomically releases @p mutex and blocks until notified; holds
     * @p mutex again on return.  Spurious wakeups happen: call it from a
     * loop that re-checks the guarded condition.
     */
    void Wait(Mutex& mutex) SPUR_REQUIRES(mutex)
    {
        // Borrow the held std::mutex for the wait, and hand it back
        // still held.
        std::unique_lock<std::mutex> lock(mutex.mutex_, std::adopt_lock);
        cv_.wait(lock);
        lock.release();
    }

    void NotifyAll() { cv_.notify_all(); }

  private:
    std::condition_variable cv_;
};

}  // namespace spur

#endif  // SPUR_COMMON_MUTEX_H_
