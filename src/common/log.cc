#include "src/common/log.h"

#include <cstdio>
#include <cstdlib>

#include "src/common/mutex.h"

namespace spur {

namespace {
// Serializes all log output: worker threads in the parallel runner may
// Warn() concurrently, and interleaved fprintf bytes would garble the
// stream.
Mutex g_log_mutex;
}  // namespace

void
Fatal(const std::string& message)
{
    {
        MutexLock lock(g_log_mutex);
        std::fprintf(stderr, "fatal: %s\n", message.c_str());
    }
    std::exit(1);
}

void
Panic(const std::string& message)
{
    {
        MutexLock lock(g_log_mutex);
        std::fprintf(stderr, "panic: %s\n", message.c_str());
    }
    std::abort();
}

void
Warn(const std::string& message)
{
    MutexLock lock(g_log_mutex);
    std::fprintf(stderr, "warn: %s\n", message.c_str());
}

}  // namespace spur
