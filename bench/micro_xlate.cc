/**
 * @file
 * google-benchmark micro-benchmarks for in-cache translation and the
 * page-fault path: PTE cached vs. not, table pages at shared in-segment
 * offsets across many segments, fault handling with zero-fill
 * and with page-in, and the workload generator's raw speed.
 */
#include <benchmark/benchmark.h>

#include <array>

#include "bench/micro_common.h"

#include "src/common/random.h"
#include "src/core/system.h"
#include "src/pt/page_table.h"
#include "src/pt/segment_map.h"
#include "src/sim/config.h"
#include "src/workload/process.h"
#include "src/workload/workloads.h"
#include "src/xlate/translator.h"

namespace {

using namespace spur;

void
BM_TranslatePteCached(benchmark::State& state)
{
    sim::MachineConfig config = sim::MachineConfig::Prototype(8);
    cache::VirtualCache vcache(config);
    pt::PageTable table;
    xlate::Translator xlate(vcache, table, config);
    sim::EventCounts events;
    // One warm translation caches the PTE block; afterwards every
    // translation of nearby pages hits the same PTE block.
    const GlobalAddr addr = 0x40000;
    xlate.Translate(addr, events);
    for (auto _ : state) {
        benchmark::DoNotOptimize(xlate.Translate(addr, events));
    }
}
BENCHMARK(BM_TranslatePteCached);

void
BM_TranslatePteCold(benchmark::State& state)
{
    sim::MachineConfig config = sim::MachineConfig::Prototype(8);
    cache::VirtualCache vcache(config);
    pt::PageTable table;
    xlate::Translator xlate(vcache, table, config);
    sim::EventCounts events;
    Rng rng(1);
    for (auto _ : state) {
        // Spread addresses so PTE blocks rarely stay cached.
        const GlobalAddr addr = rng.NextBelow(uint64_t{1} << 38) &
                                ~uint64_t{0xFFF};
        benchmark::DoNotOptimize(xlate.Translate(addr, events));
    }
}
BENCHMARK(BM_TranslatePteCold);

void
BM_TranslateManySegments(benchmark::State& state)
{
    // WORKLOAD1's page-table shape: processes lay out their segments
    // alike, so table pages sit at the same in-segment offsets across
    // many segments and their second-level indices differ only in high
    // bits.  BM_TranslatePteCold's uniform addresses spread the low bits
    // and so never exercise this case.  Each translation picks a random
    // (segment, offset) pair, so the page table's MRU entry rarely hits
    // and the second-level probe runs every time.
    sim::MachineConfig config = sim::MachineConfig::Prototype(8);
    cache::VirtualCache vcache(config);
    pt::PageTable table;
    xlate::Translator xlate(vcache, table, config);
    sim::EventCounts events;
    constexpr uint64_t kSegments = 256;
    constexpr std::array<uint64_t, 4> kOffsets = {
        0x00000000, 0x00400000, 0x00800000, 0x3FC00000};
    const auto addr_of = [](uint64_t segment, uint64_t offset) {
        return ((segment + 1) << pt::kSegmentShift) | offset;
    };
    for (uint64_t segment = 0; segment < kSegments; ++segment) {
        for (const uint64_t offset : kOffsets) {
            xlate.Translate(addr_of(segment, offset), events);
        }
    }
    Rng rng(1);
    for (auto _ : state) {
        const uint64_t pick = rng.NextBelow(kSegments * kOffsets.size());
        const GlobalAddr addr =
            addr_of(pick / kOffsets.size(), kOffsets[pick % kOffsets.size()]);
        benchmark::DoNotOptimize(xlate.Translate(addr, events));
    }
}
BENCHMARK(BM_TranslateManySegments);

void
BM_PageFaultZeroFill(benchmark::State& state)
{
    sim::MachineConfig config = sim::MachineConfig::Prototype(64);
    core::SpurSystem system(config, policy::DirtyPolicyKind::kSpur,
                            policy::RefPolicyKind::kMiss);
    const Pid pid = system.CreateProcess();
    const uint64_t pages = 8192;
    system.MapRegion(pid, workload::kHeapBase, pages * config.page_bytes,
                     vm::PageKind::kHeap);
    uint64_t next = 0;
    for (auto _ : state) {
        // Touch a fresh page each iteration (wraps; wrapped pages are
        // already resident and measure the lookup instead).
        const ProcessAddr addr = workload::kHeapBase +
                                 static_cast<ProcessAddr>(
                                     (next++ % pages) * config.page_bytes);
        system.Access(pid, addr, AccessType::kWrite);
    }
}
BENCHMARK(BM_PageFaultZeroFill);

void
BM_WorkloadGenerator(benchmark::State& state)
{
    sim::MachineConfig config = sim::MachineConfig::Prototype(8);
    core::SpurSystem system(config, policy::DirtyPolicyKind::kSpur,
                            policy::RefPolicyKind::kMiss);
    workload::ProcessProfile profile;  // Defaults.
    workload::SyntheticProcess process(system, profile, 1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(process.Next());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_WorkloadGenerator);

void
BM_EndToEndWorkload1(benchmark::State& state)
{
    // Whole-stack throughput: references per second through workload
    // generation, cache, translation, policies and VM.
    for (auto _ : state) {
        sim::MachineConfig config = sim::MachineConfig::Prototype(8);
        core::SpurSystem system(config, policy::DirtyPolicyKind::kSpur,
                                policy::RefPolicyKind::kMiss);
        workload::Driver driver(system, workload::MakeWorkload1(),
                                500'000, 1);
        driver.Run();
        benchmark::DoNotOptimize(system.events().TotalRefs());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            500'000);
}
BENCHMARK(BM_EndToEndWorkload1)->Unit(benchmark::kMillisecond);

}  // namespace

SPUR_MICRO_BENCHMARK_MAIN()
