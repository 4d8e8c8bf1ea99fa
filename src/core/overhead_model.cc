#include "src/core/overhead_model.h"

#include "src/common/log.h"

namespace spur::core {

EventFrequencies
EventFrequencies::FromEvents(const sim::EventCounts& events)
{
    EventFrequencies freq;
    freq.n_ds = events.Get(sim::Event::kDirtyFault);
    freq.n_zfod = events.Get(sim::Event::kDirtyFaultZfod);
    // N_ef and N_dm are the same population seen by different policies;
    // a SPUR-policy measurement run reports them as dirty-bit misses, a
    // FAULT-policy run as excess faults.
    freq.n_ef = events.Get(sim::Event::kDirtyBitMiss) +
                events.Get(sim::Event::kExcessFault);
    freq.n_w_hit = events.Get(sim::Event::kWriteHitCleanBlock);
    freq.n_w_miss = events.Get(sim::Event::kWriteMissFill);
    return freq;
}

double
OverheadModel::Overhead(policy::DirtyPolicyKind kind,
                        const EventFrequencies& freq,
                        bool exclude_zfod) const
{
    const double n_ds = static_cast<double>(
        exclude_zfod ? freq.IntrinsicFaults() : freq.n_ds);
    const double n_ef = static_cast<double>(freq.n_ef);
    const double n_w_hit = static_cast<double>(freq.n_w_hit);
    const double t_ds = static_cast<double>(t_ds_);
    const double t_flush = static_cast<double>(t_flush_);
    const double t_dm = static_cast<double>(t_dm_);
    const double t_dc = static_cast<double>(t_dc_);

    switch (kind) {
      case policy::DirtyPolicyKind::kMin:
        return n_ds * t_ds;
      case policy::DirtyPolicyKind::kFault:
        return (n_ds + n_ef) * t_ds;
      case policy::DirtyPolicyKind::kFlush:
        return n_ds * (t_ds + t_flush);
      case policy::DirtyPolicyKind::kSpur:
        return n_ds * (t_ds + t_dm) + n_ef * t_dm;
      case policy::DirtyPolicyKind::kWrite:
        return n_ds * t_ds + n_w_hit * t_dc;
      case policy::DirtyPolicyKind::kSpurProt:
        // Identical structure to SPUR (Section 3.1).
        return n_ds * (t_ds + t_dm) + n_ef * t_dm;
      case policy::DirtyPolicyKind::kWriteHw:
        // No faults at all: only the per-block hardware check.
        return n_w_hit * t_dc;
    }
    Panic("OverheadModel: bad policy kind");
}

double
OverheadModel::WriteMissProbability(const EventFrequencies& freq)
{
    const double total =
        static_cast<double>(freq.n_w_hit + freq.n_w_miss);
    if (total <= 0) {
        return 1.0;
    }
    return static_cast<double>(freq.n_w_miss) / total;
}

double
OverheadModel::PredictedExcessRatio(const EventFrequencies& freq)
{
    const double p_w = WriteMissProbability(freq);
    if (p_w <= 0) {
        return 0.0;  // Degenerate: no write misses at all.
    }
    return (1.0 - p_w) / p_w;
}

double
OverheadModel::MeasuredExcessRatio(const EventFrequencies& freq,
                                   bool exclude_zfod)
{
    const double n_ds = static_cast<double>(
        exclude_zfod ? freq.IntrinsicFaults() : freq.n_ds);
    if (n_ds <= 0) {
        return 0.0;
    }
    return static_cast<double>(freq.n_ef) / n_ds;
}

}  // namespace spur::core
