// Compile-SHOULD-FAIL probe for the thread-safety annotations
// (DESIGN.md §13).  This file is deliberately mis-locked: it writes a
// SPUR_GUARDED_BY member without holding its mutex.  Under clang with
// -Wthread-safety -Werror it must NOT compile; the
// thread_safety_rejects_mislocked_code ctest entry builds it on demand
// and asserts clang's "requires holding mutex" diagnostic.  It is
// EXCLUDE_FROM_ALL and never part of spur_tests.
#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"

namespace {

struct Counter {
    spur::Mutex mutex;
    int value SPUR_GUARDED_BY(mutex) = 0;
};

}  // namespace

int
main()
{
    Counter counter;
    counter.value = 1;  // BUG: guarded write without holding the mutex.
    return counter.value;
}
