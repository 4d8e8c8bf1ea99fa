#include "src/common/random.h"

#include <algorithm>
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
Rng::Threshold53(double p)
{
    if (!(p > 0.0)) {
        return 0;  // Also NaN: NextDouble() < NaN never holds.
    }
    if (p >= 1.0) {
        return uint64_t{1} << 53;
    }
    return static_cast<uint64_t>(std::ceil(p * 0x1.0p53));
}

double
ZipfExponent(double skew)
{
    // Power transform: floor(n * u^k) with k >= 1 concentrates mass near
    // index zero; k grows without bound as skew approaches 1.
    return 1.0 / ((skew >= 0.95) ? 0.05 : (1.0 - skew));
}

uint64_t
ZipfIndex(uint64_t n, double exponent, uint64_t m)
{
    const double u = static_cast<double>(m) * 0x1.0p-53;
    auto idx =
        static_cast<uint64_t>(static_cast<double>(n) * std::pow(u, exponent));
    return (idx >= n) ? (n - 1) : idx;
}

uint64_t
Rng::NextZipf(uint64_t n, double skew)
{
    if (n <= 1) {
        return 0;
    }
    return ZipfIndex(n, ZipfExponent(skew), Next53());
}

ZipfTable::ZipfTable(uint64_t n, double skew)
    : n_(n), exponent_(ZipfExponent(skew))
{
    constexpr uint64_t kTop = uint64_t{1} << 53;
    // Sentinels: 2^63 is below every draw (by unsigned wrap in the guard
    // test), 2^64 - 1 above every draw.
    constexpr uint64_t kBelow = uint64_t{1} << 63;
    constexpr uint64_t kAbove = ~uint64_t{0};
    if (n_ <= 1 || !(exponent_ >= 1.0) || n_ - 1 > UINT16_MAX) {
        edges_ = {kBelow, kAbove};  // Formula on every draw.
        return;
    }
    // bound[j]: guess from the inverse formula, then find the step of
    // the formula itself by galloping out from the guess and bisecting.
    // index(0) = 0 <= j and index(2^53) = n - 1 > j bracket every step.
    const auto above = [&](uint64_t m, uint64_t j) {
        return m >= kTop || ZipfIndex(n_, exponent_, m) > j;
    };
    edges_.reserve(n_ + 1);
    edges_.push_back(kBelow);
    uint64_t bound = 0;
    for (uint64_t j = 0; j + 1 < n_; ++j) {
        const double guess =
            std::ceil(std::pow(static_cast<double>(j + 1) /
                                   static_cast<double>(n_),
                               1.0 / exponent_) *
                      0x1.0p53);
        const uint64_t start = std::clamp<uint64_t>(
            static_cast<uint64_t>(std::min(guess, 0x1.0p53)), 1, kTop);
        uint64_t lo = 0;  // index(lo) <= j
        uint64_t hi = 0;  // index(hi) > j
        uint64_t step = 1;
        if (above(start, j)) {
            hi = start;
            while (hi > step && above(hi - step, j)) {
                hi -= step;
                step *= 2;
            }
            lo = (hi > step) ? hi - step : 0;
        } else {
            lo = start;
            while (!above(lo + step, j)) {
                lo += step;
                step *= 2;
            }
            hi = std::min(lo + step, kTop);
        }
        while (hi - lo > 1) {
            const uint64_t mid = lo + (hi - lo) / 2;
            (above(mid, j) ? hi : lo) = mid;
        }
        // Steps never go backwards, so the lookup's walk stays ordered.
        bound = std::max(bound, hi);
        edges_.push_back(bound);
    }
    edges_.push_back(kAbove);
    for (size_t b = 0, i = 0; b < starts_.size(); ++b) {
        const uint64_t first = uint64_t{b} << kBucketShift;
        while (edges_[i + 1] <= first) {
            ++i;
        }
        starts_[b] = static_cast<uint16_t>(i);
    }
    guard_ = kGuard;
}

}  // namespace spur
