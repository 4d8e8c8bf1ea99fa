// Compile-SHOULD-FAIL probe for switch coverage (DESIGN.md §18): a
// defaultless switch over a scoped enum that skips one enumerator.
// Under -Werror=switch it must NOT compile; the
// switch_coverage_is_a_build_error ctest entry builds it on demand and
// asserts the "not handled in switch" diagnostic (GCC and clang spell
// it the same).  It is EXCLUDE_FROM_ALL and never part of spur_tests.
namespace spur::fixture {

enum class Phase {
    kFill,
    kDrain,
    kSettle,
};

int
Step(Phase phase)
{
    switch (phase) {
        case Phase::kFill:
            return 1;
        case Phase::kDrain:
            return -1;
    }
    return 0;
}

}  // namespace spur::fixture
