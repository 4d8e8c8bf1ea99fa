/**
 * @file
 * Reproduces Figure 3.2 — the SPUR page-table-entry and cache-line
 * formats — by rendering the live bit layouts of pt::Pte and cache::Line
 * and demonstrating the copy-on-fill of PR and the page dirty bit.
 *
 * Flags: the session flags (src/runner/session.h), for uniformity
 */
#include <cstdio>

#include "src/cache/cache.h"
#include "src/common/table.h"
#include "src/pt/pte.h"
#include "src/runner/session.h"
#include "src/sim/config.h"

int
main(int argc, char** argv)
{
    using namespace spur;
    runner::BenchSession session("fig_3_2_formats", argc, argv);

    std::printf("Figure 3.2(a): SPUR Page Table Entry format\n\n");
    std::printf("  31                    12 11  10   9   8  7 6  5  4  3  2  1  0\n");
    std::printf(" +------------------------+---+----+---+---+----+--+--+--+--+--+--+\n");
    std::printf(" |          PFN           |SW |ZF  |WI |SD | PR |C |K |D |R |V |- |\n");
    std::printf(" +------------------------+---+----+---+---+----+--+--+--+--+--+--+\n");
    std::printf("  PR = Protection (2 bits)   C = Coherency   K = Cacheable\n");
    std::printf("  D = Page Dirty Bit   R = Page Referenced Bit   V = Page Valid\n");
    std::printf("  (SD/WI/ZF: software bits used by the Sprite-style kernel)\n\n");

    // Demonstrate the packing with a worked example.
    pt::Pte pte;
    pte.set_pfn(0x00ABC);
    pte.set_protection(Protection::kReadOnly);
    pte.set_cacheable(true);
    pte.set_coherent(true);
    pte.set_valid(true);
    pte.set_referenced(true);
    Table p("Worked PTE example");
    p.SetHeader({"field", "value"});
    p.AddRow({"raw image", Table::Num(uint64_t{pte.raw()})});
    p.AddRow({"pfn", Table::Num(uint64_t{pte.pfn()})});
    p.AddRow({"protection", ToString(pte.protection())});
    p.AddRow({"dirty (D)", pte.dirty() ? "1" : "0"});
    p.AddRow({"referenced (R)", pte.referenced() ? "1" : "0"});
    p.AddRow({"valid (V)", pte.valid() ? "1" : "0"});
    p.Print(stdout);

    std::printf("\nFigure 3.2(b): SPUR Cache Line (block frame) format\n\n");
    std::printf(" +----------------+----+---+---+------+\n");
    std::printf(" |      VTag      | PR | P | B |  CS  |\n");
    std::printf(" +----------------+----+---+---+------+\n");
    std::printf("  PR = Protection (2 bits)   P = Page Dirty Bit\n");
    std::printf("  B = Block Dirty Bit        CS = Coherency State (2 bits)\n\n");

    // Demonstrate the fill-time copy of PR and the page dirty bit, and
    // that the cached copies go stale when the PTE later changes — the
    // phenomenon the whole paper is about.
    sim::MachineConfig config = sim::MachineConfig::Prototype(8);
    cache::VirtualCache vcache(config);
    const GlobalAddr addr = 0x12340;
    const cache::Line line =
        vcache.Fill(addr, pte.protection(), pte.dirty(), nullptr).Get();
    Table c("Cache line filled from the PTE (copy-on-fill)");
    c.SetHeader({"field", "value"});
    c.AddRow({"VTag", Table::Num(uint64_t{line.tag})});
    c.AddRow({"PR (copied)", ToString(line.prot)});
    c.AddRow({"P (copied page dirty)", line.page_dirty ? "1" : "0"});
    c.AddRow({"B (block dirty)", line.block_dirty ? "1" : "0"});
    c.AddRow({"CS", ToString(line.state)});
    c.Print(stdout);

    pte.set_protection(Protection::kReadWrite);
    pte.set_dirty(true);
    std::printf("\nAfter the kernel upgrades the PTE to read-write+dirty:\n"
                "  PTE:        PR=%s D=%d\n"
                "  cache line: PR=%s P=%d   <-- stale copies (Figure 3.1)\n",
                ToString(pte.protection()), pte.dirty() ? 1 : 0,
                ToString(line.prot), line.page_dirty ? 1 : 0);

    stats::RunRecord record;
    record.workload = "pte_cache_line_formats";
    record.AddMetric("pte_raw", static_cast<double>(pte.raw()));
    record.AddMetric("line_tag", static_cast<double>(line.tag));
    record.AddMetric("line_page_dirty", line.page_dirty ? 1.0 : 0.0);
    record.AddMetric("pte_dirty", pte.dirty() ? 1.0 : 0.0);
    session.Record(std::move(record));
    return session.Finish();
}
