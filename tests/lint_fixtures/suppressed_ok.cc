// Clean fixture for tests/lint_test.cc: a justified suppression comment
// on the preceding line silences the finding.
#include <chrono>

int
JustifiedNoise()
{
    // spur-lint: allow(no-rand) — fixture proving suppressions work
    return rand();
}

// The same scoped allow over a monotonic clock read: the marker
// silences no-wallclock without widening the rule's path whitelist.
long
NowMs()
{
    // spur-lint: allow(no-wallclock)
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               now.time_since_epoch())
        .count();
}
