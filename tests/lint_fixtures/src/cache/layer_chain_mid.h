// Middle hop of the seeded transitive layering chain: a cache-layer
// header that itself includes the forbidden subsystem.  Linted
// together with layer_chain.cc it yields two findings — one for this
// header (two-hop chain) and one for the .cc (three-hop chain).
#ifndef SPUR_TESTS_LINT_FIXTURES_LAYER_CHAIN_MID_H_
#define SPUR_TESTS_LINT_FIXTURES_LAYER_CHAIN_MID_H_

#include "src/runner/runner.h"

namespace spur::cache {

unsigned SeededMidHop();

}  // namespace spur::cache

#endif  // SPUR_TESTS_LINT_FIXTURES_LAYER_CHAIN_MID_H_
