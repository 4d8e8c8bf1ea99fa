/**
 * @file
 * SpurSystem: the complete simulated SPUR workstation.
 *
 * Wires the virtual-address cache and in-cache translation to the
 * Sprite kernel (kernel.h: VM, dirty/reference-bit policies, cycle
 * accounting, event counters), and exposes the hot-path entry points
 * Access()/AccessBatch() that workloads drive with memory references.
 *
 * This is the library's primary public type: construct one per
 * experiment run, create processes and regions, feed references, read
 * the counters and the timing breakdown.
 */
#ifndef SPUR_CORE_SYSTEM_H_
#define SPUR_CORE_SYSTEM_H_

#include <cstddef>
#include <cstdint>

#include "src/cache/cache.h"
#include "src/common/types.h"
#include "src/core/access_path.h"
#include "src/core/kernel.h"
#include "src/policy/dirty_policy.h"
#include "src/policy/ref_policy.h"
#include "src/sim/config.h"
#include "src/xlate/translator.h"

namespace spur::core {

/**
 * The instantiations of the batch hit scan (DESIGN.md §15): one source,
 * compiled for baseline x86-64 and, by a target attribute, for BMI1 and
 * BMI2.  Both give the same result on every reference.
 */
enum class HitScanKernel : uint8_t { kBaseline, kBmi2 };

/** kBmi2 where this build and CPU have BMI2, else kBaseline; read from
 *  CPUID once per process. */
HitScanKernel HostHitScanKernel();

/** One simulated SPUR workstation. */
class SpurSystem final : public KernelHost
{
  public:
    /**
     * @param config machine parameters (validated).
     * @param dirty  dirty-bit alternative to run.
     * @param ref    reference-bit policy to run.
     * @param scan   the batch hit scan AccessBatch() runs; only tests
     *               ask for another than the host's.  kBmi2 on a CPU
     *               without BMI2 is a fatal error.
     */
    SpurSystem(const sim::MachineConfig& config,
               policy::DirtyPolicyKind dirty, policy::RefPolicyKind ref,
               HitScanKernel scan = HostHitScanKernel());

    ~SpurSystem();

    SpurSystem(const SpurSystem&) = delete;
    SpurSystem& operator=(const SpurSystem&) = delete;

    Kernel& kernel() override { return cpu_.kernel; }
    const Kernel& kernel() const override { return cpu_.kernel; }

    // ---- The hot path ----------------------------------------------------
    //
    // Access()/AccessBatch() run the access path (access_path.h) of
    // the (dirty, ref) pair the constructor picked: the policy logic
    // (policy_ops.h) is resolved at compile time, so the per-reference
    // loop makes no virtual policy call.

    /** Executes one memory reference through the whole memory system. */
    void Access(const MemRef& ref) override { access_fn_(cpu_, ref); }

    /** Executes @p n references in issue order (identical semantics to a
     *  per-reference Access() loop; one dispatch for the whole run). */
    void AccessBatch(const MemRef* refs, size_t n) override
    {
        (this->*batch_fn_)(refs, n);
    }

    /** Convenience overload. */
    void Access(Pid pid, ProcessAddr addr, AccessType type)
    {
        Access(MemRef{pid, addr, type});
    }

    const cache::VirtualCache& vcache() const { return cpu_.vcache; }

  private:
    /// The one processor, which owns the cache, kernel and translator.
    Cpu<NoCoherence> cpu_;
    HitScanKernel scan_;

    // ---- Devirtualized dispatch -----------------------------------------

    using AccessFn = void (*)(Cpu<NoCoherence>&, const MemRef&);
    using AccessBatchFn = void (SpurSystem::*)(const MemRef*, size_t);

    /// The (dirty, ref) instantiations of the hot path, picked once.
    AccessFn access_fn_ = nullptr;
    AccessBatchFn batch_fn_ = nullptr;

    /** The batch: scan_'s leaf takes the hits, everything else runs
     *  the access path's code; one dispatch for the whole batch. */
    template <policy::DirtyPolicyKind D, policy::RefPolicyKind R>
    void AccessBatchImpl(const MemRef* refs, size_t n);
};

}  // namespace spur::core

#endif  // SPUR_CORE_SYSTEM_H_
