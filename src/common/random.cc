#include "src/common/random.h"

#include <cmath>

namespace spur {

namespace {

/** splitmix64, used to expand a single seed into the xoshiro state. */
uint64_t
SplitMix64(uint64_t& x)
{
    x += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t s = seed;
    for (auto& word : state_) {
        word = SplitMix64(s);
    }
    // A state of all zeros would be a fixed point; splitmix cannot produce
    // four zero outputs from any seed, but be defensive anyway.
    if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) {
        state_[0] = 1;
    }
}

uint64_t
Rng::NextZipf(uint64_t n, double skew)
{
    if (n <= 1) {
        return 0;
    }
    // Power transform: floor(n * u^k) with k >= 1 concentrates mass near
    // index zero; k grows without bound as skew approaches 1.
    const double k = 1.0 / ((skew >= 0.95) ? 0.05 : (1.0 - skew));
    const double u = NextDouble();
    auto idx = static_cast<uint64_t>(static_cast<double>(n) * std::pow(u, k));
    return (idx >= n) ? (n - 1) : idx;
}

}  // namespace spur
