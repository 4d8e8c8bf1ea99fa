// Seeded violation corpus for tests/lint_test.cc — this file must trip
// exactly one spur_lint rule: bench-session.  The directory name makes
// it normalize to bench/no_session.cc, where main() without
// runner::BenchSession is a violation.
#include <cstdio>

int
main()
{
    std::printf("raw bytes that --json never sees\n");
    return 0;
}
