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

#include "src/cache/cache.h"
#include "src/common/types.h"
#include "src/core/kernel.h"
#include "src/policy/dirty_policy.h"
#include "src/policy/ref_policy.h"
#include "src/sim/config.h"
#include "src/xlate/translator.h"

namespace spur::core {

/** One simulated SPUR workstation. */
class SpurSystem final : public KernelHost
{
  public:
    /**
     * @param config machine parameters (validated).
     * @param dirty  dirty-bit alternative to run.
     * @param ref    reference-bit policy to run.
     */
    SpurSystem(const sim::MachineConfig& config,
               policy::DirtyPolicyKind dirty, policy::RefPolicyKind ref);

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

    /** The batch scan: hits stay in registers, everything else runs
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
