/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * Uses xoshiro256** (public-domain algorithm by Blackman & Vigna): fast,
 * high quality, and — unlike std::mt19937 — guaranteed to produce the same
 * sequence on every platform, which keeps experiments reproducible.
 */
#ifndef SPUR_COMMON_RANDOM_H_
#define SPUR_COMMON_RANDOM_H_

#include <cstdint>

namespace spur {

/** A small, fast, deterministic PRNG (xoshiro256**). */
class Rng
{
  public:
    /** Seeds the generator; the same seed always yields the same stream. */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Returns the next raw 64-bit value. */
    uint64_t Next();

    /** Returns a uniformly distributed value in [0, bound). @p bound > 0. */
    uint64_t NextBelow(uint64_t bound);

    /** Returns a uniformly distributed double in [0, 1). */
    double NextDouble();

    /** Returns true with probability @p p (clamped to [0,1]). */
    bool Chance(double p);

    /**
     * Returns an index in [0, n) with a Zipf-like bias toward low indices.
     *
     * Used to model temporal locality of page reuse within a working set:
     * index 0 is the hottest entry.  @p skew in (0, 2]; larger is more
     * skewed.  Implemented by inverse-power transform of a uniform draw,
     * which is inexpensive and adequate for locality modelling.
     */
    uint64_t NextZipf(uint64_t n, double skew);

  private:
    static constexpr uint64_t Rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t state_[4];
};

// The per-draw calls are defined here, inline: workload generation makes
// several per simulated reference.

inline uint64_t
Rng::Next()
{
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);

    return result;
}

inline uint64_t
Rng::NextBelow(uint64_t bound)
{
    // Lemire's multiply-shift bounded draw; the slight modulo bias of the
    // plain form is irrelevant for workload synthesis, so we skip the
    // rejection step for speed.
    const unsigned __int128 product =
        static_cast<unsigned __int128>(Next()) * bound;
    return static_cast<uint64_t>(product >> 64);
}

inline double
Rng::NextDouble()
{
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

inline bool
Rng::Chance(double p)
{
    if (p <= 0.0) {
        return false;
    }
    if (p >= 1.0) {
        return true;
    }
    return NextDouble() < p;
}

}  // namespace spur

#endif  // SPUR_COMMON_RANDOM_H_
