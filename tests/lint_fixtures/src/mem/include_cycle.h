// One half of the seeded include cycle: mem includes pt, and
// src/pt/include_cycle.h includes mem back.  include_cycle_layers.toml
// declares both edges, so the only finding is the cycle mem -> pt -> mem.
#ifndef SPUR_TESTS_LINT_FIXTURES_MEM_INCLUDE_CYCLE_H_
#define SPUR_TESTS_LINT_FIXTURES_MEM_INCLUDE_CYCLE_H_

#include "src/pt/include_cycle.h"

namespace spur::mem {

unsigned SeededCycleMem();

}  // namespace spur::mem

#endif  // SPUR_TESTS_LINT_FIXTURES_MEM_INCLUDE_CYCLE_H_
