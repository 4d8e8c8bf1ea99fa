/**
 * @file
 * A synthetic process: owns an address space in a SpurSystem and generates
 * a reference stream according to its ProcessProfile.
 */
#ifndef SPUR_WORKLOAD_PROCESS_H_
#define SPUR_WORKLOAD_PROCESS_H_

#include <array>
#include <cstdint>

#include "src/common/random.h"
#include "src/common/types.h"
#include "src/workload/host.h"
#include "src/workload/profile.h"

namespace spur::workload {

/** Process-VA layout constants: one segment register per region kind
 *  (top two address bits select the register, see pt::SegmentMap), so
 *  text or data can be shared between processes at segment granularity. */
inline constexpr ProcessAddr kCodeBase = 0x00000000;   // Segment 0.
inline constexpr ProcessAddr kDataBase = 0x40000000;   // Segment 1.
inline constexpr ProcessAddr kHeapBase = 0x80000000;   // Segment 2.
inline constexpr ProcessAddr kStackBase = 0xC0000000;  // Segment 3.

/** Segment-register indexes of the regions. */
inline constexpr unsigned kCodeSeg = 0;
inline constexpr unsigned kDataSeg = 1;

/**
 * Sharing instructions for a new process: reuse another process's text
 * and/or data segment instead of mapping private regions (Sprite's
 * sticky text and file-cache effects for repeatedly invoked tools).
 */
struct ShareSpec {
    Pid owner = 0;
    bool text = false;
    bool data = false;
};

/**
 * Maps the data segment for @p profile on @p pid: when the profile writes
 * output files, the lower half (input files, read through the file cache)
 * is mapped read-only and the upper half (output files) read-write;
 * otherwise the whole region is file-cache.
 */
void MapDataSegment(WorkloadHost& system, Pid pid,
                    const ProcessProfile& profile);

/** One live synthetic process. */
class SyntheticProcess
{
  public:
    /**
     * Creates the process in @p system and maps its regions.
     * @param seed  deterministic per-process random seed.
     */
    SyntheticProcess(WorkloadHost& system, const ProcessProfile& profile,
                     uint64_t seed, const ShareSpec* share = nullptr);

    /** Tears the process down in the system (frees all its pages). */
    ~SyntheticProcess();

    SyntheticProcess(const SyntheticProcess&) = delete;
    SyntheticProcess& operator=(const SyntheticProcess&) = delete;

    /** Generates and returns the next memory reference. */
    MemRef Next();

    /**
     * Fills @p out with up to @p max references and returns how many were
     * generated (short only when the process finishes).  Exactly the
     * stream a sequence of Next() calls would produce: both run the same
     * generator body, which is pure (rng + cursors, no feedback from the
     * system), so batching cannot change it.
     */
    size_t NextBatch(MemRef* out, size_t max);

    /** Issues the next reference directly into the system. */
    void Step() { system_.Access(Next()); }

    /** True once lifetime_refs references have been generated. */
    bool Done() const
    {
        return profile_.lifetime_refs != 0 &&
               refs_issued_ >= profile_.lifetime_refs;
    }

    Pid pid() const { return pid_; }
    const ProcessProfile& profile() const { return profile_; }
    uint64_t refs_issued() const { return refs_issued_; }

  private:
    /**
     * Everything the generator changes: the rng and every cursor.  Fill()
     * copies it into a local for the whole batch and writes it back
     * once, so that the state can live in registers; kept in the object,
     * each draw loaded and stored the rng's four words through `this`.
     * Everything else the generator reads is fixed at construction and
     * stays in the object.
     */
    struct GenState {
        Rng rng;
        // Instruction-fetch loop model.
        ProcessAddr loop_base = 0;   ///< First block of the current loop body.
        uint32_t loop_blocks = 1;    ///< Body length in blocks.
        uint32_t loop_iters_left = 1;///< Iterations remaining.
        ProcessAddr loop_pc = 0;     ///< Next fetch address.
        ProcessAddr loop_end = 0;    ///< End of the body.
        uint32_t code_ws_base = 0;   ///< Hot-code window base page.
        ProcessAddr seq_read_pos = kDataBase;  ///< Data-scan cursor.
        ProcessAddr alloc_front = kHeapBase;   ///< Heap allocation cursor
                                               ///< (seq_write).
        ProcessAddr file_write_pos = 0;  ///< Output-file cursor (file_write).
        uint32_t heap_ws_base = 0;   ///< Heap working-set window base page.
        // Pending write burst (rmw completion, rand/stack store runs).
        ProcessAddr burst_addr = 0;  ///< Next word to write, or 0.
        uint32_t burst_words = 0;    ///< Words remaining in the burst.
        // scan_update state machine.
        ProcessAddr scan_page = 0;   ///< Page being scanned (0 = pick new).
        uint32_t scan_index = 0;     ///< Next block within the burst.
        bool scan_writing = false;   ///< Read phase vs. write-back phase.
    };

    WorkloadHost& system_;
    ProcessProfile profile_;
    Pid pid_;
    uint64_t refs_issued_ = 0;

    uint32_t block_bytes_;
    uint32_t page_bytes_;
    uint32_t blocks_per_page_;

    // ---- Precomputed draws ----------------------------------------------
    // Every `NextDouble() < p` test of the generator as the integer test
    // `Next53() < Rng::Threshold53(p)`: same draw, same answer.
    uint64_t ifetch_below_;      ///< frac_ifetch.
    uint64_t stack_below_;       ///< frac_stack.
    uint64_t rand_write_below_;  ///< rand_write_frac.
    uint64_t reread_below_;      ///< file_reread_frac.
    uint64_t stack_store_below_; ///< GenStack's 0.55 store bias.
    /// Chance(ws_slide_prob): p <= 0 or p >= 1 draws nothing and then
    /// slides when slide_below_ != 0.
    uint64_t slide_below_;
    bool slide_draws_;

    /** The data generators, in weight order, then the stack. */
    enum class Gen : uint8_t {
        kSeqRead, kSeqWrite, kRmw, kScanUpdate, kRand, kFileWrite, kStack,
    };
    /// Integer thresholds of the cumulative generator weights (the last,
    /// 1.0, needs none): k = the number at or below a draw.
    std::array<uint64_t, 5> gen_below_{};
    /// The generator for each k, with the region fall-throughs resolved.
    std::array<Gen, 6> gen_of_k_{};

    ZipfTable code_zipf_;   ///< Over the hot-code window.
    ZipfTable heap_zipf_;   ///< Over the heap working-set window.
    ZipfTable stack_zipf_;  ///< Over the whole stack, skew 0.85.

    // Region geometry, fixed at construction.
    uint32_t heap_wrap_;          ///< max(1, heap_pages).
    uint32_t rand_write_span_;    ///< GenRand's write window, pages.
    ProcessAddr code_end_;        ///< End of the text region.
    ProcessAddr seq_read_end_;    ///< End of the input files.
    ProcessAddr heap_end_;        ///< End of the heap region.
    ProcessAddr file_lo_;         ///< Start of the output files.
    ProcessAddr data_end_;        ///< End of the data region.

    GenState state_;  ///< Between batches; see GenState.

    /** Generates @p n references into @p out: the one loop behind
     *  Next() and NextBatch(), with no lifetime check. */
    void Fill(MemRef* out, size_t n);

    // The generator body, written straight into the caller's MemRef.
    // All of it inlines into Fill(), so the local state @p s never has
    // its address taken.
    void Generate(GenState& s, MemRef& out) const;
    void IFetch(GenState& s, MemRef& out) const;
    void PickNextLoop(GenState& s) const;
    void DataRef(GenState& s, MemRef& out) const;
    void GenSeqRead(GenState& s, MemRef& out) const;
    void GenSeqWrite(GenState& s, MemRef& out) const;
    void GenRmw(GenState& s, MemRef& out) const;
    void GenScanUpdate(GenState& s, MemRef& out) const;
    void GenRand(GenState& s, MemRef& out) const;
    void GenStack(GenState& s, MemRef& out) const;
    void GenFileWrite(GenState& s, MemRef& out) const;

    /** Starts a write burst at @p addr, clipped to its cache block, and
     *  emits the first write of the burst. */
    void StartBurst(GenState& s, MemRef& out, ProcessAddr addr,
                    uint32_t words) const;

    /** Picks a page within [base, base + window) of a region of
     *  max(1, @p wrap) pages; base + window <= 2 * wrap. */
    static uint32_t ZipfPage(Rng& rng, const ZipfTable& window,
                             uint32_t window_base, uint32_t wrap);

    /** A block-aligned address inside @p region_base + page. */
    ProcessAddr BlockAddr(ProcessAddr region_base, uint32_t page,
                          uint32_t block) const
    {
        return region_base + page * page_bytes_ + block * block_bytes_;
    }

    static void Emit(MemRef& out, ProcessAddr addr, AccessType type)
    {
        out.addr = addr;
        out.type = type;
    }
};

}  // namespace spur::workload

#endif  // SPUR_WORKLOAD_PROCESS_H_
