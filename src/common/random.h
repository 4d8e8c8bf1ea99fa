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

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

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

    /** Returns a uniformly distributed 53-bit draw in [0, 2^53): the
     *  integer NextDouble() scales by 2^-53. */
    uint64_t Next53() { return Next() >> 11; }

    /** Returns a uniformly distributed double in [0, 1). */
    double NextDouble();

    /**
     * The integer form of `NextDouble() < p`: `Next53() < Threshold53(p)`
     * consumes the same draw and gives the same answer for every p.
     * NextDouble() is m * 2^-53 with m < 2^53, and p * 2^53 is exact, so
     * m * 2^-53 < p holds exactly when m < ceil(p * 2^53).
     */
    static uint64_t Threshold53(double p);

    /** Returns true with probability @p p (clamped to [0,1]). */
    bool Chance(double p);

    /**
     * Returns an index in [0, n) with a Zipf-like bias toward low indices.
     *
     * Used to model temporal locality of page reuse within a working set:
     * index 0 is the hottest entry.  @p skew in (0, 2]; larger is more
     * skewed.  Implemented by inverse-power transform of a uniform draw,
     * which is inexpensive and adequate for locality modelling.  n <= 1
     * consumes no draw.
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
    return static_cast<double>(Next53()) * 0x1.0p-53;
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

/** The exponent NextZipf(n, skew) raises its uniform draw to. */
double ZipfExponent(double skew);

/**
 * The Zipf formula itself: the index NextZipf(n, skew) returns for the
 * 53-bit draw @p m, with @p exponent = ZipfExponent(skew) and n >= 1.
 * Every Zipf index in the simulator comes from this one definition.
 */
uint64_t ZipfIndex(uint64_t n, double exponent, uint64_t m);

/**
 * Rng::NextZipf(n, skew) as a table: Sample() consumes the same draw and
 * returns the same index on every draw, without a call to pow.
 *
 * The table holds each step of the formula, bound[j] = the least draw
 * whose index exceeds j; a draw's index is the number of bounds at or
 * below it.  A lookup starts from the draw's bucket (its top 8 bits)
 * and walks forward over the bounds in that bucket.  The formula's own
 * rounding can move a step by a grid point or two, so a draw within
 * kGuard grid points of a bound evaluates the formula instead: the
 * result equals the formula's even where pow is off by an ulp.  Exponents
 * below 1 (skew < 0) and windows over 65536 entries keep no bounds and
 * evaluate the formula on every draw.
 */
class ZipfTable
{
  public:
    ZipfTable(uint64_t n, double skew);

    /** The next index in [0, n), as Rng::NextZipf(n, skew) draws it. */
    uint64_t Sample(Rng& rng) const
    {
        return (n_ <= 1) ? 0 : Index(rng.Next53());
    }

    /** The index of the 53-bit draw @p m: ZipfIndex(n, exponent, m). */
    uint64_t Index(uint64_t m) const
    {
        uint64_t i = starts_[m >> kBucketShift];
        while (edges_[i + 1] <= m) {
            ++i;
        }
        // edges_[i] <= m < edges_[i + 1]; unsigned wrap keeps the
        // sentinel edges_[0] = 2^63 far from every draw.
        if (m - edges_[i] <= guard_ || edges_[i + 1] - m <= guard_) {
            return ZipfIndex(n_, exponent_, m);
        }
        return i;
    }

  private:
    static constexpr unsigned kBucketShift = 53 - 8;
    static constexpr uint64_t kGuard = 16;

    uint64_t n_;
    double exponent_;
    uint64_t guard_ = ~uint64_t{0};  ///< Formula-only until bounds exist.
    /// Bounds at or below each bucket's first draw.
    std::array<uint16_t, std::size_t{1} << (53 - kBucketShift)> starts_{};
    /// 2^63 (below every draw), bound[0..n-2], 2^64-1 (above every draw).
    std::vector<uint64_t> edges_;
};

}  // namespace spur

#endif  // SPUR_COMMON_RANDOM_H_
