/**
 * @file
 * Host-measurement primitives: a monotonic stopwatch and the process's
 * peak resident set size.
 *
 * The benchmark harness (spur_bench/) times its layers with these.  No
 * simulated result or output byte depends on them, which is why the
 * no-wallclock lint rule allows clock reads here and nowhere else.
 */
#ifndef SPUR_SWEEP_TELEMETRY_H_
#define SPUR_SWEEP_TELEMETRY_H_

#include <chrono>
#include <cstdint>

namespace spur::sweep {

/** Monotonic wall-clock stopwatch, started at construction. */
class Stopwatch
{
  public:
    Stopwatch()
      : start_(std::chrono::steady_clock::now())
    {
    }

    /** Seconds elapsed since construction. */
    double Seconds() const
    {
        const auto elapsed = std::chrono::steady_clock::now() - start_;
        return std::chrono::duration<double>(elapsed).count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

/**
 * Peak resident set size of this process in bytes (getrusage).  Returns
 * 0 on platforms without getrusage — callers must treat 0 as "not
 * measured", never as an actual footprint.
 */
uint64_t PeakRssBytes();

}  // namespace spur::sweep

#endif  // SPUR_SWEEP_TELEMETRY_H_
