/**
 * @file
 * Section 3.2's flush-mechanism aside, measured: SPUR's real flush
 * "flushes a single cache block regardless of its virtual address tag",
 * so flushing a page costs 128 blind operations and evicts innocent
 * blocks from other pages (the paper estimates ~2000 cycles, with
 * one-fifth of blocks written back); a tag-checked flush (assumed for
 * the comparisons) costs ~500.
 *
 * This bench fills the cache from a realistic workload snapshot, flushes
 * pages both ways, and reports the collateral damage: foreign blocks
 * evicted, writebacks forced, and the refetch misses the victimized
 * pages suffer afterwards.
 */
#include <cstdio>

#include "src/cache/cache.h"
#include "src/common/random.h"
#include "src/common/table.h"
#include "src/runner/runner.h"
#include "src/runner/session.h"
#include "src/sim/config.h"

int
main(int argc, char** argv)
{
    using namespace spur;
    runner::BenchSession session("ablation_flush_mechanism", argc, argv);
    const sim::MachineConfig config = sim::MachineConfig::Prototype(8);

    Table t("Indexed (SPUR hardware) vs. tag-checked page flush: "
            "collateral damage over 512 page flushes");
    t.SetHeader({"flush kind", "blocks flushed", "of page", "foreign",
                 "writebacks", "est. cycles/page"});

    // The two flush mechanisms run concurrently; each has a private
    // cache and RNG, and rows are added in a fixed order afterwards.
    struct Variant {
        uint64_t flushed = 0;
        uint64_t own = 0;
        uint64_t foreign = 0;
        uint64_t writebacks = 0;
        double per_page = 0.0;
    };
    const bool kinds[] = {true, false};
    Variant variants[2];
    runner::ParallelFor(2, session.jobs(), [&](size_t v) {
        const bool checked = kinds[v];
        cache::VirtualCache vcache(config);
        Rng rng(3);
        // A working set of 160 pages with ~10% of each page's blocks
        // cached (the paper's flush-cost assumption), a third dirty.
        auto populate = [&] {
            for (uint64_t i = 0; i < config.NumBlocks() / 2; ++i) {
                const GlobalAddr addr =
                    (rng.NextBelow(160) * config.page_bytes) |
                    (rng.NextBelow(config.BlocksPerPage()) *
                     config.block_bytes);
                cache::LineRef line = vcache.Fill(
                    addr, Protection::kReadWrite, true, nullptr);
                if (rng.Chance(0.33)) {
                    cache::VirtualCache::MarkWritten(line);
                }
            }
        };
        populate();

        uint64_t flushed = 0;
        uint64_t own = 0;
        uint64_t foreign = 0;
        uint64_t writebacks = 0;
        const int kFlushes = 512;
        for (int i = 0; i < kFlushes; ++i) {
            // Flush a page from the live working set, then refill the
            // cache to steady state so each flush sees the same load.
            const GlobalAddr page =
                rng.NextBelow(160) * config.page_bytes;
            const cache::FlushResult result =
                checked ? vcache.FlushPageChecked(page)
                        : vcache.FlushPageIndexed(page);
            flushed += result.blocks_flushed;
            foreign += result.foreign_flushed;
            own += result.blocks_flushed - result.foreign_flushed;
            writebacks += result.writebacks;
            if (i % 8 == 7) {
                populate();
            }
        }
        // Cycle estimate per the paper's accounting: 2 cycles per slot of
        // loop overhead for checked (1 for blind hardware ops), plus 10
        // cycles per block actually flushed (writeback path).
        const double per_page =
            (checked ? 2.0 : 1.0) * config.BlocksPerPage() +
            10.0 * static_cast<double>(flushed) / kFlushes +
            // Refetch cost of the innocent foreign blocks.
            static_cast<double>(config.BlockFetchCycles()) *
                static_cast<double>(foreign) / kFlushes;
        variants[v] = Variant{flushed, own, foreign, writebacks, per_page};
    });

    for (size_t v = 0; v < 2; ++v) {
        const Variant& r = variants[v];
        t.AddRow({kinds[v] ? "tag-checked" : "indexed (SPUR)",
                  Table::Num(r.flushed), Table::Num(r.own),
                  Table::Num(r.foreign), Table::Num(r.writebacks),
                  Table::Num(r.per_page, 0)});
        stats::RunRecord record;
        record.workload = kinds[v] ? "tag-checked" : "indexed";
        record.memory_mb = 8;
        record.AddMetric("blocks_flushed", static_cast<double>(r.flushed));
        record.AddMetric("foreign_flushed",
                         static_cast<double>(r.foreign));
        record.AddMetric("writebacks", static_cast<double>(r.writebacks));
        record.AddMetric("est_cycles_per_page", r.per_page);
        session.Record(std::move(record));
    }
    t.Print(stdout);
    std::printf(
        "\nThe indexed flush touches the same 128 slots but cannot tell\n"
        "whose blocks they hold: the foreign evictions (plus their later\n"
        "refetch misses) are why the paper prices SPUR's real flush at\n"
        "~4x the tag-checked one, and why FLUSH-style policies need the\n"
        "better hardware to be even marginally viable.\n");
    return session.Finish();
}
