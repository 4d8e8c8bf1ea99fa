/**
 * @file
 * Reproduces Table 2.1 — "SPUR System Configuration" — from the live
 * MachineConfig, and validates the derived timing quantities the rest of
 * the evaluation depends on (block fetch latency, page-in cost).
 *
 * Flags: --memory-mb=N (default 8) and the session flags (session.h)
 */
#include <cstdio>

#include "src/common/table.h"
#include "src/runner/session.h"
#include "src/sim/config.h"

int
main(int argc, char** argv)
{
    using namespace spur;
    runner::BenchSession session("table_2_1_config", argc, argv,
                                 {runner::kMemoryMbFlag});
    sim::MachineConfig config =
        sim::MachineConfig::Prototype(session.MemoryMb(8));

    Table t("Table 2.1: SPUR System Configuration");
    t.SetHeader({"Parameter", "Value"});
    t.AddRow({"Processor Information", ""});
    t.AddSeparator();
    t.AddRow({"Cache Size",
              std::to_string(config.cache_bytes / 1024) + " Kbytes"});
    t.AddRow({"Associativity", "Direct Mapped"});
    t.AddRow({"Block Size", std::to_string(config.block_bytes) + " bytes"});
    t.AddRow({"Page Size",
              std::to_string(config.page_bytes / 1024) + " Kbytes"});
    t.AddRow({"Instruction Buffer", "Disabled"});
    t.AddRow({"Processor cycle time",
              Table::Num(config.cpu_cycle_ns, 0) + "ns"});
    t.AddRow({"Backplane cycle time",
              Table::Num(config.bus_cycle_ns, 0) + "ns"});
    t.AddSeparator();
    t.AddRow({"Memory Information", ""});
    t.AddSeparator();
    t.AddRow({"Time to first word",
              std::to_string(config.mem_first_word_cycles) + " cycles"});
    t.AddRow({"Time to next word",
              std::to_string(config.mem_next_word_cycles) + " cycles"});
    t.AddRow({"Main memory size",
              std::to_string(config.memory_bytes / (1024 * 1024)) +
                  " Mbytes"});
    t.Print(stdout);

    Table d("Derived timing quantities (checked by the test suite)");
    d.SetHeader({"Quantity", "Value"});
    d.AddRow({"Cache blocks", Table::Num(config.NumBlocks())});
    d.AddRow({"Blocks per page", Table::Num(config.BlocksPerPage())});
    d.AddRow({"Page frames", Table::Num(config.NumFrames())});
    d.AddRow({"Block fetch (bus cycles)",
              Table::Num(uint64_t{config.BlockFetchBusCycles()})});
    d.AddRow({"Block fetch (CPU cycles)",
              Table::Num(uint64_t{config.BlockFetchCycles()})});
    d.AddRow({"Fault handler t_ds (cycles)",
              Table::Num(uint64_t{config.t_fault})});
    d.AddRow({"Page flush t_flush (cycles)",
              Table::Num(uint64_t{config.t_flush_page})});
    d.AddRow({"Dirty-bit miss t_dm (cycles)",
              Table::Num(uint64_t{config.t_dirty_miss})});
    d.AddRow({"Dirty check t_dc (cycles)",
              Table::Num(uint64_t{config.t_dirty_check})});
    d.Print(stdout);

    // No simulation runs here; the JSON record carries the derived
    // machine parameters instead.
    stats::RunRecord record;
    record.memory_mb = config.memory_bytes / (1024 * 1024);
    record.AddMetric("cache_bytes", static_cast<double>(config.cache_bytes));
    record.AddMetric("block_bytes", static_cast<double>(config.block_bytes));
    record.AddMetric("page_bytes", static_cast<double>(config.page_bytes));
    record.AddMetric("t_fault", static_cast<double>(config.t_fault));
    record.AddMetric("t_flush_page",
                     static_cast<double>(config.t_flush_page));
    record.AddMetric("t_dirty_miss",
                     static_cast<double>(config.t_dirty_miss));
    record.AddMetric("t_dirty_check",
                     static_cast<double>(config.t_dirty_check));
    session.Record(std::move(record));
    return session.Finish();
}
