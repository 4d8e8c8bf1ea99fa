// Runtime-SHOULD-FAIL probe for lock-order inversions (DESIGN.md §18).
// Two threads take the same two spur::Mutex in opposite orders — the
// classic ABBA deadlock.  The threads run one after the other, so the
// program never actually deadlocks, but TSan's deadlock detector
// records the acquisition order of every nested lock and must report a
// lock-order-inversion anyway.  The lock_order_inversion_is_reported
// ctest entry (TSan builds only) runs it and asserts the report.
#include <thread>

#include "src/common/mutex.h"

namespace {

spur::Mutex g_first;
spur::Mutex g_second;
int g_shared = 0;

void
ForwardOrder()
{
    spur::MutexLock outer(g_first);
    spur::MutexLock inner(g_second);
    ++g_shared;
}

void
ReverseOrder()
{
    spur::MutexLock outer(g_second);
    spur::MutexLock inner(g_first);
    --g_shared;
}

}  // namespace

int
main()
{
    std::thread(ForwardOrder).join();
    std::thread(ReverseOrder).join();
    return g_shared;
}
