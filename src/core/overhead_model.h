/**
 * @file
 * The analytic overhead models of Section 3.2.
 *
 * The paper evaluates the dirty-bit alternatives by combining *measured
 * event frequencies* (Table 3.3) with *modelled per-event costs*
 * (Table 3.2):
 *
 *   O(FAULT) = (N_ds + N_ef) * t_ds
 *   O(FLUSH) = N_ds * (t_ds + t_flush)
 *   O(SPUR)  = N_ds * (t_ds + t_dm) + N_dm * t_dm
 *   O(WRITE) = N_ds * t_ds + N_w-hit * t_dc
 *   O(MIN)   = N_ds * t_ds
 *
 * For Table 3.4 the zero-fill faults are excluded (N_ds - N_zfod is
 * substituted for N_ds) because they are not intrinsic to the dirty-bit
 * mechanism.  Also provided: the geometric excess-fault model of
 * footnote 3.
 */
#ifndef SPUR_CORE_OVERHEAD_MODEL_H_
#define SPUR_CORE_OVERHEAD_MODEL_H_

#include <cstdint>

#include "src/common/types.h"
#include "src/policy/dirty_policy.h"
#include "src/sim/config.h"
#include "src/sim/events.h"

namespace spur::core {

/** The Table 3.3 event-frequency tuple for one run. */
struct EventFrequencies {
    uint64_t n_ds = 0;      ///< Necessary dirty faults (incl. zero-fill).
    uint64_t n_zfod = 0;    ///< Zero-fill subset of the above.
    uint64_t n_ef = 0;      ///< Excess faults == dirty-bit misses (N_dm).
    uint64_t n_w_hit = 0;   ///< Blocks read in, later modified.
    uint64_t n_w_miss = 0;  ///< Blocks brought in by a write miss.

    /** Extracts the tuple from a finished run's counters. */
    static EventFrequencies FromEvents(const sim::EventCounts& events);

    /** N_ds excluding the zero-fill class. */
    uint64_t IntrinsicFaults() const
    {
        return (n_ds >= n_zfod) ? n_ds - n_zfod : 0;
    }
};

/** Computes the Section 3.2 overheads from frequencies and time params. */
class OverheadModel
{
  public:
    explicit OverheadModel(const sim::MachineConfig& config)
        : t_ds_(config.t_fault),
          t_flush_(config.t_flush_page),
          t_dm_(config.t_dirty_miss),
          t_dc_(config.t_dirty_check)
    {
    }

    /** Direct construction from the Table 3.2 parameters. */
    OverheadModel(Cycles t_ds, Cycles t_flush, Cycles t_dm, Cycles t_dc)
        : t_ds_(t_ds), t_flush_(t_flush), t_dm_(t_dm), t_dc_(t_dc)
    {
    }

    /**
     * Overhead in cycles of @p kind given @p freq.
     * @param exclude_zfod substitute (N_ds - N_zfod) for N_ds, as in
     *                     Table 3.4.
     */
    double Overhead(policy::DirtyPolicyKind kind,
                    const EventFrequencies& freq,
                    bool exclude_zfod = true) const;

    // ---- Footnote 3: the geometric excess-fault model --------------------

    /** p_w = N_w-miss / (N_w-hit + N_w-miss). */
    static double WriteMissProbability(const EventFrequencies& freq);

    /**
     * Expected excess faults per necessary fault under the footnote-3
     * assumptions (uniform miss mix, infinite pages, necessary faults
     * only on write misses): the mean of a geometric distribution with
     * parameter p_w, i.e. (1 - p_w) / p_w.
     */
    static double PredictedExcessRatio(const EventFrequencies& freq);

    /** Measured excess ratio N_ef / (N_ds - N_zfod). */
    static double MeasuredExcessRatio(const EventFrequencies& freq,
                                      bool exclude_zfod = true);

    Cycles t_ds() const { return t_ds_; }
    Cycles t_flush() const { return t_flush_; }
    Cycles t_dm() const { return t_dm_; }
    Cycles t_dc() const { return t_dc_; }

  private:
    Cycles t_ds_;
    Cycles t_flush_;
    Cycles t_dm_;
    Cycles t_dc_;
};

}  // namespace spur::core

#endif  // SPUR_CORE_OVERHEAD_MODEL_H_
