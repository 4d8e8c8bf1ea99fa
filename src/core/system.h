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

    Kernel& kernel() override { return kernel_; }
    const Kernel& kernel() const override { return kernel_; }

    // ---- The hot path ----------------------------------------------------
    //
    // Access()/AccessBatch() dispatch through member-function pointers to
    // a per-(dirty, ref) template instantiation: the policy logic
    // (policy_ops.h) is resolved at compile time, so the per-reference
    // loop runs with no virtual policy calls.  The pointers are selected
    // once at construction.

    /** Executes one memory reference through the whole memory system. */
    void Access(const MemRef& ref) override { (this->*access_fn_)(ref); }

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

    const cache::VirtualCache& vcache() const { return vcache_; }

  private:
    cache::VirtualCache vcache_;
    Kernel kernel_;
    xlate::Translator xlate_;
    HitScanKernel scan_;

    // ---- Devirtualized dispatch -----------------------------------------

    using AccessFn = void (SpurSystem::*)(const MemRef&);
    using AccessBatchFn = void (SpurSystem::*)(const MemRef*, size_t);

    /// Selected (dirty, ref) instantiations of the hot path.
    AccessFn access_fn_ = nullptr;
    AccessBatchFn batch_fn_ = nullptr;

    /** Points access_fn_/batch_fn_ at the instantiation matching the
     *  kernel's policies. */
    void SelectDispatch();

    template <policy::DirtyPolicyKind D>
    void SelectDispatchRef();

    template <policy::DirtyPolicyKind D, policy::RefPolicyKind R>
    void SetDispatchFns();

    /** One reference through the compile-time-policy path. */
    template <policy::DirtyPolicyKind D, policy::RefPolicyKind R>
    void AccessImpl(const MemRef& ref);

    /** The batch: scan_'s leaf takes the hits, everything else runs
     *  AccessImpl's code; one dispatch for the whole batch. */
    template <policy::DirtyPolicyKind D, policy::RefPolicyKind R>
    void AccessBatchImpl(const MemRef* refs, size_t n);

    /** Handles the miss path for @p gva; @p type as in Access(). */
    template <policy::DirtyPolicyKind D, policy::RefPolicyKind R>
    void AccessMissImpl(GlobalAddr gva, AccessType type);

    /** The non-fast-path tail of a write hit: policy hook, cost
     *  charging, and the FLUSH re-execute-as-miss case. */
    template <policy::DirtyPolicyKind D, policy::RefPolicyKind R>
    void WriteHitSlow(cache::LineRef line, GlobalAddr gva);
};

}  // namespace spur::core

#endif  // SPUR_CORE_SYSTEM_H_
