// Top of the seeded transitive layering chain: this file's only
// include is same-subsystem (allowed), but that header reaches the
// forbidden runner subsystem, so the violation must report the full
// three-hop chain
//   src/cache/layer_chain.cc -> src/cache/layer_chain_mid.h
//     -> src/runner/runner.h
// anchored at the first hop's include line in THIS file.
#include "src/cache/layer_chain_mid.h"

namespace spur::cache {

unsigned
SeededChainTop()
{
    return SeededMidHop();
}

}  // namespace spur::cache
