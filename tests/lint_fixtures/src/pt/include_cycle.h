// The other half of the seeded include cycle: pt includes mem back
// (see src/mem/include_cycle.h).
#ifndef SPUR_TESTS_LINT_FIXTURES_PT_INCLUDE_CYCLE_H_
#define SPUR_TESTS_LINT_FIXTURES_PT_INCLUDE_CYCLE_H_

#include "src/mem/include_cycle.h"

namespace spur::pt {

unsigned SeededCyclePt();

}  // namespace spur::pt

#endif  // SPUR_TESTS_LINT_FIXTURES_PT_INCLUDE_CYCLE_H_
