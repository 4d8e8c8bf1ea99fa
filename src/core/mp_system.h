/**
 * @file
 * MpSpurSystem: the SPUR multiprocessor — up to twelve processors, each
 * with its own 128 KB virtual-address cache and in-cache translation
 * engine, kept coherent over a shared snooping bus running the Berkeley
 * Ownership protocol [Katz85], over one shared Sprite kernel (page
 * table, VM, policies).
 *
 * This is the machine the paper's mechanisms were *designed* for (the
 * measured prototype was the uniprocessor configuration): dirty-bit
 * updates are done in software because PTEs are shared between
 * processors, and true reference bits are expensive because clearing one
 * must flush the page from *all* the caches.  The ablation bench
 * `ablation_mp_refbits` quantifies that claim.
 *
 * Each processor runs the uniprocessor's access path (access_path.h)
 * with BusCoherence: the same events and charges as SpurSystem, plus
 * the bus transactions and one stall cycle per ownership upgrade.
 *
 * Timing note: the aggregate TimingModel accumulates total work cycles
 * across processors (not wall-clock of a parallel execution); the
 * experiments built on this class compare policy overheads, which are
 * work terms.
 */
#ifndef SPUR_CORE_MP_SYSTEM_H_
#define SPUR_CORE_MP_SYSTEM_H_

#include <memory>
#include <vector>

#include "src/cache/bus.h"
#include "src/cache/cache.h"
#include "src/cache/flusher.h"
#include "src/common/types.h"
#include "src/core/access_path.h"
#include "src/core/kernel.h"
#include "src/policy/dirty_policy.h"
#include "src/policy/ref_policy.h"
#include "src/sim/config.h"
#include "src/xlate/translator.h"

namespace spur::core {

/** Fans page flushes out across every cache in the machine. */
class AllCachesFlusher final : public cache::PageFlusher
{
  public:
    explicit AllCachesFlusher(
        std::vector<std::unique_ptr<cache::VirtualCache>>& caches)
        : caches_(caches)
    {
    }

    cache::FlushResult FlushPageChecked(GlobalAddr addr) override;

    unsigned NumFlushTargets() const override
    {
        return static_cast<unsigned>(caches_.size());
    }

  private:
    std::vector<std::unique_ptr<cache::VirtualCache>>& caches_;
};

/** The multiprocessor SPUR workstation. */
class MpSpurSystem
{
  public:
    /** Builds a machine with @p num_cpus processors (1..12). */
    MpSpurSystem(const sim::MachineConfig& config, unsigned num_cpus,
                 policy::DirtyPolicyKind dirty, policy::RefPolicyKind ref);

    ~MpSpurSystem();

    MpSpurSystem(const MpSpurSystem&) = delete;
    MpSpurSystem& operator=(const MpSpurSystem&) = delete;

    /** The shared kernel: address spaces, counters, timing, audit. */
    Kernel& kernel() { return kernel_; }
    const Kernel& kernel() const { return kernel_; }

    // ---- The hot path ------------------------------------------------------

    /** Executes one reference on processor @p cpu: the uniprocessor's
     *  access path (access_path.h) for the constructor's policy pair,
     *  over that CPU's cache, translator and bus port. */
    void Access(unsigned cpu, const MemRef& ref)
    {
        access_fn_(cpus_[cpu], ref);
    }

    // ---- State access ------------------------------------------------------

    unsigned NumCpus() const
    {
        return static_cast<unsigned>(caches_.size());
    }
    const cache::VirtualCache& vcache(unsigned cpu) const
    {
        return *caches_[cpu];
    }

    /**
     * A WorkloadHost view of one processor: synthetic processes and the
     * job driver built for the uniprocessor API can run pinned to a CPU
     * of the multiprocessor through this adapter.
     */
    class CpuPort final : public KernelHost
    {
      public:
        CpuPort(MpSpurSystem& system, unsigned cpu)
            : system_(system), cpu_(cpu)
        {
        }

        Kernel& kernel() override { return system_.kernel(); }
        const Kernel& kernel() const override { return system_.kernel(); }
        void Access(const MemRef& ref) override
        {
            system_.Access(cpu_, ref);
        }

      private:
        MpSpurSystem& system_;
        unsigned cpu_;
    };

    /** A workload-host view pinned to processor @p cpu. */
    CpuPort Port(unsigned cpu) { return CpuPort(*this, cpu); }

  private:
    std::vector<std::unique_ptr<cache::VirtualCache>> caches_;
    AllCachesFlusher flusher_;
    Kernel kernel_;
    cache::SnoopBus bus_;
    std::vector<std::unique_ptr<xlate::Translator>> xlates_;
    /// Each processor as the access path sees it.
    std::vector<Cpu<BusCoherence>> cpus_;

    /// The (dirty, ref) instantiation of the access path, picked once.
    void (*access_fn_)(Cpu<BusCoherence>&, const MemRef&) = nullptr;
};

}  // namespace spur::core

#endif  // SPUR_CORE_MP_SYSTEM_H_
