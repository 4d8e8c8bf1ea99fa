#include "src/runner/thread_pool.h"

#include <atomic>
#include <utility>

#include "src/common/mutex.h"

namespace spur::runner {

namespace {
std::atomic<unsigned> g_default_jobs{0};
}  // namespace

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0) {
        threads = 1;
    }
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i) {
        workers_.emplace_back([this] { WorkerLoop(); });
    }
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mutex_);
        stopping_ = true;
    }
    ready_.NotifyAll();
    for (std::thread& worker : workers_) {
        worker.join();
    }
}

void
ThreadPool::Submit(std::function<void()> task)
{
    {
        MutexLock lock(mutex_);
        queue_.push_back(std::move(task));
    }
    ready_.NotifyOne();
}

void
ThreadPool::WorkerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            MutexLock lock(mutex_);
            while (!HasWork()) {
                ready_.Wait(mutex_);
            }
            if (queue_.empty()) {
                return;  // stopping_ and nothing left to drain.
            }
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

unsigned
HardwareJobs()
{
    const unsigned n = std::thread::hardware_concurrency();
    return (n > 0) ? n : 1;
}

void
SetDefaultJobs(unsigned jobs)
{
    g_default_jobs.store(jobs, std::memory_order_relaxed);
}

unsigned
DefaultJobs()
{
    const unsigned jobs = g_default_jobs.load(std::memory_order_relaxed);
    return (jobs > 0) ? jobs : HardwareJobs();
}

}  // namespace spur::runner
