// Seeded layering violation: a machine-layer file (normalized path
// src/cache/...) reaching directly into the orchestration layer.
// cache's LAYERS.toml closure is {cache, common, sim}; runner is
// forbidden, so the include below must produce exactly one layering
// finding with a two-hop chain.
#include "src/runner/runner.h"

namespace spur::cache {

unsigned
SeededBreach()
{
    return runner::HardwareJobs();
}

}  // namespace spur::cache
