/**
 * @file
 * AuditingHost: a WorkloadHost that forwards every call to another host
 * and audits a machine (core::Kernel::Audit) after each context switch,
 * process teardown included.  Auditing there costs too much to ship in
 * every run, so the tests run it over the shipped access paths.
 */
#ifndef SPUR_TESTS_AUDITING_HOST_H_
#define SPUR_TESTS_AUDITING_HOST_H_

#include <cstddef>
#include <string>

#include "src/check/report.h"
#include "src/core/kernel.h"
#include "src/workload/host.h"

namespace spur::testing_support {

class AuditingHost final : public workload::WorkloadHost
{
  public:
    /** Forwards to @p inner and audits @p kernel, the kernel of the
     *  machine @p inner drives. */
    AuditingHost(workload::WorkloadHost& inner, const core::Kernel& kernel)
        : inner_(inner), kernel_(kernel)
    {
    }

    Pid CreateProcess() override { return inner_.CreateProcess(); }
    void DestroyProcess(Pid pid) override
    {
        inner_.DestroyProcess(pid);
        Audit();
    }
    void MapRegion(Pid pid, ProcessAddr base, uint64_t bytes,
                   vm::PageKind kind) override
    {
        inner_.MapRegion(pid, base, bytes, kind);
    }
    void ShareSegment(Pid pid, unsigned reg, Pid other,
                      unsigned other_reg) override
    {
        inner_.ShareSegment(pid, reg, other, other_reg);
    }
    void Access(const MemRef& ref) override { inner_.Access(ref); }
    void AccessBatch(const MemRef* refs, size_t n) override
    {
        inner_.AccessBatch(refs, n);
    }
    void OnContextSwitch() override
    {
        inner_.OnContextSwitch();
        Audit();
    }
    const sim::MachineConfig& config() const override
    {
        return inner_.config();
    }

    /** Audits run so far. */
    size_t audits() const { return audits_; }

    /** The first failing audit's number and summary; empty when every
     *  audit passed. */
    const std::string& first_failure() const { return first_failure_; }

  private:
    void Audit()
    {
        ++audits_;
        const check::AuditReport report = kernel_.Audit();
        if (!report.ok() && first_failure_.empty()) {
            first_failure_ = "audit " + std::to_string(audits_) + ": " +
                             report.Summary();
        }
    }

    workload::WorkloadHost& inner_;
    const core::Kernel& kernel_;
    size_t audits_ = 0;
    std::string first_failure_;
};

}  // namespace spur::testing_support

#endif  // SPUR_TESTS_AUDITING_HOST_H_
