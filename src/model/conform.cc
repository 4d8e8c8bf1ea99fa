#include "src/model/conform.h"

#include <array>
#include <memory>
#include <vector>

#include "src/common/log.h"
#include "src/core/mp_system.h"
#include "src/core/system.h"
#include "src/pt/page_table.h"
#include "src/sim/config.h"
#include "src/vm/region.h"

namespace spur::model {

namespace {

/** Heap segment base (segment register 2) — same layout the synthetic
 *  workloads use; defined here so src/model does not pull in workload. */
constexpr ProcessAddr kHeapBase = 0x80000000;

/** Offset, in blocks, of tracked block 0 within the tracked page.
 *  Blocks 2 and 3 rather than 0 and 1: the tracked page's own PTE line
 *  maps to cache index 0 in the prototype geometry, and a tracked block
 *  sharing that index would be collaterally displaced by PTE fills the
 *  abstraction does not model.  The constructor checks the final
 *  geometry and refuses to run on a collision. */
constexpr unsigned kFirstTrackedBlock = 2;

/**
 * One freshly built real machine plus the concretization of the
 * abstract model: a single heap region of cache_bytes + page_bytes, the
 * tracked blocks inside its first page, each Evict alias one cache size
 * above its block (same cache index, different tag).
 */
class Harness
{
  public:
    Harness(const ModelConfig& config, Implementation impl)
        : procs_(config.procs)
    {
        const sim::MachineConfig machine = sim::MachineConfig::Prototype(1);
        if (impl == Implementation::kUniprocessorBatch) {
            if (config.procs != 1) {
                Fatal("model: the uniprocessor batch harness requires "
                      "procs=1");
            }
            uni_ = std::make_unique<core::SpurSystem>(machine, config.dirty,
                                                      config.ref);
            kernel_ = &uni_->kernel();
        } else {
            mp_ = std::make_unique<core::MpSpurSystem>(
                machine, config.procs, config.dirty, config.ref);
            kernel_ = &mp_->kernel();
        }
        pid_ = kernel_->CreateProcess();
        kernel_->MapRegion(pid_, kHeapBase,
                           machine.cache_bytes + machine.page_bytes,
                           vm::PageKind::kHeap);
        for (unsigned b = 0; b < kTrackedBlocks; ++b) {
            target_va_[b] = static_cast<ProcessAddr>(
                kHeapBase + (kFirstTrackedBlock + b) * machine.block_bytes);
            alias_va_[b] = static_cast<ProcessAddr>(target_va_[b] +
                                                    machine.cache_bytes);
            target_gva_[b] = ToGlobal(target_va_[b]);
        }
        CheckGeometry(machine);
    }

    void Apply(const Stimulus& stimulus)
    {
        switch (stimulus.kind) {
            case StimulusKind::kRead:
                Access(stimulus.cpu, MemRef{pid_, target_va_[stimulus.block],
                                            AccessType::kRead});
                return;
            case StimulusKind::kWrite:
                Access(stimulus.cpu, MemRef{pid_, target_va_[stimulus.block],
                                            AccessType::kWrite});
                return;
            case StimulusKind::kEvict:
                // A read of the alias block: same index, different tag —
                // the conflict miss displaces the tracked block.
                Access(stimulus.cpu, MemRef{pid_, alias_va_[stimulus.block],
                                            AccessType::kRead});
                return;
            case StimulusKind::kFlushPage:
                kernel_->FlushPage(target_gva_[0]);
                return;
            case StimulusKind::kClearRef:
                kernel_->ClearRefBit(target_gva_[0]);
                return;
        }
    }

    /** Reads the machine back into the abstract state space. */
    ProtoState Abstract() const
    {
        ProtoState state;
        state.procs = procs_;
        for (unsigned cpu = 0; cpu < procs_; ++cpu) {
            const cache::VirtualCache& vcache =
                uni_ != nullptr ? uni_->vcache() : mp_->vcache(cpu);
            for (unsigned b = 0; b < kTrackedBlocks; ++b) {
                const cache::ConstLineRef line =
                    vcache.Lookup(target_gva_[b]);
                if (line) {
                    state.line[cpu][b] =
                        LineState{line.state(), line.prot(),
                                  line.page_dirty(), line.block_dirty()};
                }
            }
        }
        const pt::Pte* pte = kernel_->FindPte(target_gva_[0]);
        if (pte != nullptr && pte->valid()) {
            state.pte.resident = true;
            state.pte.prot = pte->protection();
            state.pte.dirty = pte->dirty();
            state.pte.soft_dirty = pte->soft_dirty();
            state.pte.referenced = pte->referenced();
            state.pte.zfod = pte->zfod_clean();
        }
        return state;
    }

  private:
    GlobalAddr ToGlobal(ProcessAddr va) const
    {
        return kernel_->ToGlobal(pid_, va);
    }

    /**
     * The abstraction assumes nothing but the two tracked blocks and
     * their deliberate aliases ever occupies the tracked cache indexes.
     * Translation also fills *PTE* blocks into the cache, so the PTE
     * lines of the tracked page and of the alias page must map to other
     * indexes — otherwise a PTE fill would displace a tracked block
     * behind the model's back.  Checked here, once, against the real
     * geometry rather than assumed.
     */
    void CheckGeometry(const sim::MachineConfig& machine) const
    {
        const auto index_of = [&machine](GlobalAddr gva) {
            return (gva >> machine.BlockShift()) &
                   ((uint64_t{1} << machine.IndexBits()) - 1);
        };
        const GlobalAddr pte_lines[2] = {
            pt::PageTable::PteVa(target_gva_[0] >> machine.PageShift()),
            pt::PageTable::PteVa(ToGlobal(alias_va_[0]) >>
                                 machine.PageShift()),
        };
        for (unsigned b = 0; b < kTrackedBlocks; ++b) {
            for (const GlobalAddr pte_line : pte_lines) {
                if (index_of(pte_line) == index_of(target_gva_[b])) {
                    Fatal("model: tracked block " + std::to_string(b) +
                          " (cache index " +
                          std::to_string(index_of(target_gva_[b])) +
                          ") collides with a page-table line; move "
                          "kFirstTrackedBlock");
                }
            }
        }
    }

    void Access(unsigned cpu, const MemRef& ref)
    {
        if (uni_ != nullptr) {
            // Through the devirtualized SoA batch path, one reference at
            // a time — identical semantics to Access(), and exactly the
            // code the issue's conformance contract targets.
            uni_->AccessBatch(&ref, 1);
        } else {
            mp_->Access(cpu, ref);
        }
    }

    unsigned procs_;
    std::unique_ptr<core::SpurSystem> uni_;
    std::unique_ptr<core::MpSpurSystem> mp_;
    core::Kernel* kernel_ = nullptr;  ///< The machine's kernel (either).
    Pid pid_ = 0;
    std::array<ProcessAddr, kTrackedBlocks> target_va_ = {};
    std::array<ProcessAddr, kTrackedBlocks> alias_va_ = {};
    std::array<GlobalAddr, kTrackedBlocks> target_gva_ = {};
};

/** Replays @p trace on a fresh machine. */
std::unique_ptr<Harness>
Replay(const ModelConfig& config, Implementation impl,
       const std::vector<Stimulus>& trace)
{
    auto harness = std::make_unique<Harness>(config, impl);
    for (const Stimulus& stimulus : trace) {
        harness->Apply(stimulus);
    }
    return harness;
}

std::string
Mismatch(const char* what, const ExploreResult& graph, size_t index,
         const Stimulus* stimulus, const ProtoState& expected,
         const ProtoState& actual, Implementation impl)
{
    std::string out = std::string("conformance divergence (") +
                      ToString(impl) + "): " + what + "\n";
    out += "  spec:           " + ToString(expected) + "\n";
    out += "  implementation: " + ToString(actual) + "\n";
    out += "stimulus trace:\n";
    out += FormatTrace(graph, index);
    if (stimulus != nullptr) {
        out += "     -- " + ToString(*stimulus) + " -->  (diverges)\n";
    }
    return out;
}

}  // namespace

const char*
ToString(Implementation impl)
{
    switch (impl) {
        case Implementation::kUniprocessorBatch:
            return "uniprocessor-batch";
        case Implementation::kMultiprocessor:
            return "multiprocessor";
    }
    return "?";
}

ConformResult
Conform(const ModelConfig& config, Implementation impl)
{
    ConformResult result;

    ExploreResult graph = Explore(config);
    if (!graph.ok) {
        result.problem = "spec exploration failed: " + graph.problem;
        return result;
    }

    for (size_t i = 0; i < graph.states.size(); ++i) {
        const ProtoState& state = graph.states[i].state;
        const std::vector<Stimulus> trace = TraceTo(graph, i);

        // Reconstruct the representative and verify the replay lands on
        // it — this re-checks every prefix transition along the way.
        const std::unique_ptr<Harness> base = Replay(config, impl, trace);
        const ProtoState replayed = base->Abstract();
        if (!(replayed == state)) {
            result.problem = Mismatch("replaying the trace does not "
                                      "reproduce the explored state",
                                      graph, i, nullptr, state, replayed,
                                      impl);
            return result;
        }
        ++result.states_replayed;

        for (const Stimulus& stimulus : EnumerateStimuli(state)) {
            SpecStepResult step;
            std::string error;
            if (!SpecStep(state, stimulus, config, &step, &error)) {
                result.problem = "spec failure during conformance: " + error;
                return result;
            }
            const std::unique_ptr<Harness> probe =
                Replay(config, impl, trace);
            probe->Apply(stimulus);
            const ProtoState actual = probe->Abstract();
            if (!(actual == step.next)) {
                std::string what =
                    std::string("successor mismatch on rule '") +
                    step.rule->id + "'";
                result.problem = Mismatch(what.c_str(), graph, i, &stimulus,
                                          step.next, actual, impl);
                return result;
            }
            ++result.pairs_checked;
        }
    }

    result.ok = true;
    return result;
}

}  // namespace spur::model
