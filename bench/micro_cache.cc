/**
 * @file
 * google-benchmark micro-benchmarks for the virtual cache's primitive
 * operations: lookup hit/miss, fill, tag-checked page flush vs. SPUR's
 * indexed flush, and the full system Access() hot path.
 */
#include <benchmark/benchmark.h>

#include <vector>

#include "bench/micro_common.h"

#include "src/cache/cache.h"
#include "src/common/random.h"
#include "src/core/system.h"
#include "src/sim/config.h"
#include "src/workload/process.h"

namespace {

using namespace spur;

void
BM_CacheLookupHit(benchmark::State& state)
{
    sim::MachineConfig config = sim::MachineConfig::Prototype(8);
    cache::VirtualCache vcache(config);
    for (GlobalAddr a = 0; a < config.cache_bytes; a += config.block_bytes) {
        vcache.Fill(a, Protection::kReadWrite, true, nullptr);
    }
    Rng rng(1);
    for (auto _ : state) {
        const GlobalAddr addr = rng.NextBelow(config.cache_bytes);
        benchmark::DoNotOptimize(vcache.Lookup(addr));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheLookupHit);

void
BM_CacheLookupMiss(benchmark::State& state)
{
    sim::MachineConfig config = sim::MachineConfig::Prototype(8);
    cache::VirtualCache vcache(config);
    Rng rng(1);
    for (auto _ : state) {
        // Addresses beyond the filled range always miss on tag.
        const GlobalAddr addr =
            config.cache_bytes + rng.NextBelow(1 << 30);
        benchmark::DoNotOptimize(vcache.Lookup(addr));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheLookupMiss);

void
BM_CacheFill(benchmark::State& state)
{
    sim::MachineConfig config = sim::MachineConfig::Prototype(8);
    cache::VirtualCache vcache(config);
    Rng rng(1);
    cache::Eviction eviction;
    for (auto _ : state) {
        const GlobalAddr addr = rng.NextBelow(uint64_t{1} << 32);
        cache::LineRef line =
            vcache.Fill(addr, Protection::kReadWrite, false, &eviction);
        benchmark::DoNotOptimize(line);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheFill);

/**
 * Writes every slot of the cache with a seeded random kind of line —
 * invalid, or valid clean or dirty and of page @p page_tag's run or of
 * another page — so the page flushes that follow meet a pattern no
 * branch predictor learns.  Each run of BlocksPerPage() slots is one
 * page's, and page r's base address is returned in @p pages[r].
 */
void
MixSlots(cache::VirtualCache& vcache, const sim::MachineConfig& config,
         uint64_t page_tag, Rng& rng, std::vector<GlobalAddr>* pages)
{
    const uint64_t tag_shift =
        config.BlockShift() + static_cast<unsigned>(config.IndexBits());
    pages->clear();
    for (uint64_t first = 0; first < vcache.NumLines();
         first += config.BlocksPerPage()) {
        pages->push_back((page_tag << tag_shift) |
                         (first << config.BlockShift()));
        for (uint64_t i = first; i < first + config.BlocksPerPage(); ++i) {
            const uint64_t kind = rng.NextBelow(5);
            cache::Line line;
            if (kind != 0) {
                line.tag = kind <= 2 ? page_tag : page_tag + kind;
                line.prot = Protection::kReadWrite;
                line.page_dirty = true;
                line.block_dirty = kind % 2 == 0;
                line.state = line.block_dirty
                                 ? cache::CoherencyState::kOwnedExclusive
                                 : cache::CoherencyState::kUnOwned;
            }
            vcache.SlotAt(i).Set(line);
        }
    }
}

/** Flushes every page of a freshly mixed cache per iteration. */
template <bool kTagChecked>
void
BM_FlushMixedPages(benchmark::State& state)
{
    sim::MachineConfig config = sim::MachineConfig::Prototype(8);
    cache::VirtualCache vcache(config);
    Rng rng(1);
    std::vector<GlobalAddr> pages;
    for (auto _ : state) {
        state.PauseTiming();
        MixSlots(vcache, config, 1 + rng.NextBelow(1024), rng, &pages);
        state.ResumeTiming();
        for (const GlobalAddr page : pages) {
            benchmark::DoNotOptimize(kTagChecked
                                         ? vcache.FlushPageChecked(page)
                                         : vcache.FlushPageIndexed(page));
        }
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(pages.size()));
}

void
BM_FlushPageChecked(benchmark::State& state)
{
    BM_FlushMixedPages<true>(state);
}
BENCHMARK(BM_FlushPageChecked);

void
BM_FlushPageIndexed(benchmark::State& state)
{
    BM_FlushMixedPages<false>(state);
}
BENCHMARK(BM_FlushPageIndexed);

void
BM_SystemAccessHot(benchmark::State& state)
{
    sim::MachineConfig config = sim::MachineConfig::Prototype(8);
    core::SpurSystem system(config, policy::DirtyPolicyKind::kSpur,
                            policy::RefPolicyKind::kMiss);
    const Pid pid = system.CreateProcess();
    system.MapRegion(pid, workload::kHeapBase, 64 * config.page_bytes,
                     vm::PageKind::kHeap);
    Rng rng(1);
    // Confine to 16 pages so the simulated cache mostly hits: this
    // measures the simulator's per-reference overhead on the fast path.
    const uint32_t span = 16 * static_cast<uint32_t>(config.page_bytes);
    for (auto _ : state) {
        const auto offset =
            static_cast<ProcessAddr>(rng.NextBelow(span) & ~3u);
        system.Access(pid, workload::kHeapBase + offset,
                      AccessType::kRead);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SystemAccessHot);

}  // namespace

SPUR_MICRO_BENCHMARK_MAIN()
