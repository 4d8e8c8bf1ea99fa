#include "src/workload/process.h"

#include <algorithm>

#include "src/common/log.h"

namespace spur::workload {

namespace {

/** @p profile with its windows clamped to the region sizes. */
ProcessProfile
ClampWindows(ProcessProfile profile)
{
    profile.heap_ws_pages =
        std::max(1u, std::min(profile.heap_ws_pages, profile.heap_pages));
    profile.code_ws_pages =
        std::max(1u, std::min(profile.code_ws_pages, profile.code_pages));
    return profile;
}

/** x mod n for x < 2n. */
uint32_t
Wrap(uint32_t x, uint32_t n)
{
    return (x >= n) ? x - n : x;
}

}  // namespace

SyntheticProcess::SyntheticProcess(WorkloadHost& system,
                                   const ProcessProfile& profile,
                                   uint64_t seed, const ShareSpec* share)
    : system_(system),
      profile_(ClampWindows(profile)),
      pid_(system.CreateProcess()),
      block_bytes_(static_cast<uint32_t>(system.config().block_bytes)),
      page_bytes_(static_cast<uint32_t>(system.config().page_bytes)),
      blocks_per_page_(page_bytes_ / block_bytes_),
      ifetch_below_(Rng::Threshold53(profile_.frac_ifetch)),
      stack_below_(Rng::Threshold53(profile_.frac_stack)),
      rand_write_below_(Rng::Threshold53(profile_.rand_write_frac)),
      reread_below_(Rng::Threshold53(profile_.file_reread_frac)),
      stack_store_below_(Rng::Threshold53(0.55)),
      slide_below_(Rng::Threshold53(profile_.ws_slide_prob)),
      slide_draws_(!(profile_.ws_slide_prob <= 0.0) &&
                   !(profile_.ws_slide_prob >= 1.0)),
      code_zipf_(profile_.code_ws_pages, profile_.zipf_skew),
      heap_zipf_(profile_.heap_ws_pages, profile_.zipf_skew),
      stack_zipf_(profile_.stack_pages, /*skew=*/0.85),
      heap_wrap_(std::max(1u, profile_.heap_pages)),
      rand_write_span_(std::max(1u, profile_.heap_ws_pages / 2)),
      code_end_(kCodeBase + profile_.code_pages * page_bytes_),
      seq_read_end_(kDataBase +
                    ((profile_.w_file_write > 0)
                         ? std::max(1u, profile_.data_pages / 2)
                         : profile_.data_pages) *
                        page_bytes_),
      heap_end_(kHeapBase + profile_.heap_pages * page_bytes_),
      file_lo_(kDataBase +
               std::max(1u, profile_.data_pages / 2) * page_bytes_),
      data_end_(kDataBase + profile_.data_pages * page_bytes_),
      state_{.rng = Rng(seed), .file_write_pos = file_lo_}
{
    const auto& config = system.config();
    auto map = [&](ProcessAddr base, uint32_t pages, vm::PageKind kind) {
        if (pages > 0) {
            system_.MapRegion(pid_, base, uint64_t{pages} * config.page_bytes,
                              kind);
        }
    };
    if (share != nullptr && share->text) {
        system_.ShareSegment(pid_, kCodeSeg, share->owner, kCodeSeg);
    } else {
        map(kCodeBase, profile_.code_pages, vm::PageKind::kCode);
    }
    if (share != nullptr && share->data) {
        system_.ShareSegment(pid_, kDataSeg, share->owner, kDataSeg);
    } else {
        MapDataSegment(system_, pid_, profile_);
    }
    map(kHeapBase, profile_.heap_pages, vm::PageKind::kHeap);
    map(kStackBase, profile_.stack_pages, vm::PageKind::kStack);

    // The cumulative distribution over the six data generators, as
    // integer thresholds on the 53-bit draw.
    const std::array<double, 6> weights = {
        profile_.w_seq_read, profile_.w_seq_write, profile_.w_rmw,
        profile_.w_scan_update, profile_.w_rand, profile_.w_file_write};
    double total = 0;
    for (double w : weights) {
        if (w < 0) {
            Fatal("ProcessProfile: negative generator weight");
        }
        total += w;
    }
    if (total <= 0) {
        Fatal("ProcessProfile: all generator weights are zero");
    }
    double acc = 0;
    for (size_t i = 0; i < gen_below_.size(); ++i) {
        acc += weights[i] / total;
        gen_below_[i] = Rng::Threshold53(acc);
    }
    // The thresholds ascend, so the k-th generator is the first whose
    // threshold lies above the draw.  A generator whose region is
    // missing falls through to the next one that has its region, then
    // to file_write, rand and finally the stack.
    const bool data = profile_.data_pages > 0;
    const bool heap = profile_.heap_pages > 0;
    for (size_t k = 0; k < gen_of_k_.size(); ++k) {
        if (k == 0 && data) {
            gen_of_k_[k] = Gen::kSeqRead;
        } else if (k < 5 && heap) {
            gen_of_k_[k] = static_cast<Gen>(std::max<size_t>(k, 1));
        } else if (data) {
            gen_of_k_[k] = Gen::kFileWrite;
        } else if (heap) {
            gen_of_k_[k] = Gen::kRand;
        } else {
            gen_of_k_[k] = Gen::kStack;
        }
    }
}

void
MapDataSegment(WorkloadHost& system, Pid pid,
               const ProcessProfile& profile)
{
    if (profile.data_pages == 0) {
        return;
    }
    const uint64_t page_bytes = system.config().page_bytes;
    if (profile.w_file_write > 0 && profile.data_pages >= 4) {
        const uint32_t half = profile.data_pages / 2;
        system.MapRegion(pid, kDataBase, uint64_t{half} * page_bytes,
                         vm::PageKind::kFileCache);
        system.MapRegion(pid,
                         kDataBase + static_cast<ProcessAddr>(
                                         half * page_bytes),
                         uint64_t{profile.data_pages - half} * page_bytes,
                         vm::PageKind::kData);
    } else {
        system.MapRegion(pid, kDataBase,
                         uint64_t{profile.data_pages} * page_bytes,
                         profile.w_file_write > 0 ? vm::PageKind::kData
                                                  : vm::PageKind::kFileCache);
    }
}

SyntheticProcess::~SyntheticProcess()
{
    system_.DestroyProcess(pid_);
}

// ---- The generator ---------------------------------------------------------
// Forced inline into Fill(), so that the whole generator compiles to one
// straight-line loop body writing into the caller's MemRef, over Fill()'s
// local GenState: no call takes its address, so its fields stay in
// registers for the whole batch.

[[gnu::always_inline]] inline void
SyntheticProcess::Generate(GenState& s, MemRef& out) const
{
    out.pid = pid_;
    if (s.rng.Next53() < ifetch_below_) {
        IFetch(s, out);
    } else {
        DataRef(s, out);
    }
}

[[gnu::always_inline]] inline void
SyntheticProcess::IFetch(GenState& s, MemRef& out) const
{
    // loop_base == 0 doubles as "no loop yet", so a loop placed at text
    // offset 0 is re-picked as a far jump before it is fetched (a known
    // quirk, DESIGN.md §6; every pinned stream depends on it).
    if (s.loop_base == 0) {
        PickNextLoop(s);
    }
    Emit(out, s.loop_pc, AccessType::kIFetch);
    s.loop_pc += 4;
    if (s.loop_pc == s.loop_end) {
        s.loop_pc = s.loop_base;
        if (--s.loop_iters_left == 0) {
            PickNextLoop(s);
        }
    }
}

[[gnu::always_inline]] inline void
SyntheticProcess::PickNextLoop(GenState& s) const
{
    if (s.loop_base == 0 || s.rng.Chance(profile_.call_prob)) {
        // Call or long jump into the hot-code window, which itself drifts
        // slowly across the text (program phases).
        if (s.rng.Chance(0.02)) {
            s.code_ws_base = static_cast<uint32_t>(s.rng.NextBelow(
                std::max(1u,
                         profile_.code_pages - profile_.code_ws_pages + 1)));
        }
        const uint32_t page =
            ZipfPage(s.rng, code_zipf_, s.code_ws_base, profile_.code_pages);
        const uint32_t block =
            static_cast<uint32_t>(s.rng.NextBelow(blocks_per_page_));
        s.loop_base = BlockAddr(kCodeBase, page, block);
    } else {
        // Fall through to the code after the previous loop body.
        s.loop_base += s.loop_blocks * block_bytes_;
        if (s.loop_base >= code_end_) {
            s.loop_base = kCodeBase;
        }
    }
    s.loop_blocks = 1 + static_cast<uint32_t>(
                            s.rng.NextBelow(profile_.loop_blocks_max));
    s.loop_iters_left = 1 + static_cast<uint32_t>(
                                s.rng.NextBelow(profile_.loop_iters_max));
    // Keep the body inside the region.
    if (s.loop_base + s.loop_blocks * block_bytes_ > code_end_) {
        s.loop_base = code_end_ - s.loop_blocks * block_bytes_;
    }
    s.loop_pc = s.loop_base;
    s.loop_end = s.loop_base + s.loop_blocks * block_bytes_;
}

[[gnu::always_inline]] inline void
SyntheticProcess::DataRef(GenState& s, MemRef& out) const
{
    // Slide the heap working set occasionally: phase behaviour.
    const bool slide =
        slide_draws_ ? s.rng.Next53() < slide_below_ : slide_below_ != 0;
    if (slide && profile_.heap_pages > 0) {
        s.heap_ws_base = (s.heap_ws_base + 1 +
                          static_cast<uint32_t>(s.rng.NextBelow(4))) %
                         heap_wrap_;
    }
    if (profile_.stack_pages > 0 && s.rng.Next53() < stack_below_) {
        GenStack(s, out);
        return;
    }
    // A pending write burst completes before anything else starts.
    if (s.burst_words != 0) {
        Emit(out, s.burst_addr, AccessType::kWrite);
        s.burst_addr += 4;
        --s.burst_words;
        return;
    }
    const uint64_t m = s.rng.Next53();
    const size_t k = size_t{m >= gen_below_[0]} + size_t{m >= gen_below_[1]} +
                     size_t{m >= gen_below_[2]} + size_t{m >= gen_below_[3]} +
                     size_t{m >= gen_below_[4]};
    switch (gen_of_k_[k]) {
    case Gen::kSeqRead:
        GenSeqRead(s, out);
        return;
    case Gen::kSeqWrite:
        GenSeqWrite(s, out);
        return;
    case Gen::kRmw:
        GenRmw(s, out);
        return;
    case Gen::kScanUpdate:
        GenScanUpdate(s, out);
        return;
    case Gen::kRand:
        GenRand(s, out);
        return;
    case Gen::kFileWrite:
        GenFileWrite(s, out);
        return;
    case Gen::kStack:
        GenStack(s, out);
        return;
    }
}

[[gnu::always_inline]] inline void
SyntheticProcess::StartBurst(GenState& s, MemRef& out, ProcessAddr addr,
                             uint32_t words) const
{
    // Clip the burst to its cache block so every word after the first
    // hits the freshly written (dirty) block.
    const uint32_t word_in_block = (addr % block_bytes_) / 4;
    const uint32_t room = block_bytes_ / 4 - word_in_block;
    const uint32_t len = std::max(1u, std::min(words, room));
    s.burst_addr = addr + 4;
    s.burst_words = len - 1;
    Emit(out, addr, AccessType::kWrite);
}

[[gnu::always_inline]] inline void
SyntheticProcess::GenFileWrite(GenState& s, MemRef& out) const
{
    // Sometimes re-read an earlier output page (previewing what was
    // written) rather than appending.
    const uint32_t written_pages =
        static_cast<uint32_t>((s.file_write_pos - file_lo_) / page_bytes_);
    if (written_pages > 0 && s.rng.Next53() < reread_below_) {
        const uint32_t page =
            static_cast<uint32_t>(s.rng.NextBelow(written_pages));
        const ProcessAddr addr =
            file_lo_ + page * page_bytes_ +
            static_cast<ProcessAddr>(s.rng.NextBelow(page_bytes_) & ~3u);
        Emit(out, addr, AccessType::kRead);
        return;
    }
    Emit(out, s.file_write_pos, AccessType::kWrite);
    s.file_write_pos += 4;
    if (s.file_write_pos >= data_end_) {
        s.file_write_pos = file_lo_;
    }
}

[[gnu::always_inline]] inline void
SyntheticProcess::GenSeqRead(GenState& s, MemRef& out) const
{
    // Input files live in the lower part of the data region; output files
    // (GenFileWrite) in the upper part, so scans do not pre-cache the
    // blocks the writer dirties.
    Emit(out, s.seq_read_pos, AccessType::kRead);
    s.seq_read_pos += 4;
    if (s.seq_read_pos >= seq_read_end_) {
        s.seq_read_pos = kDataBase;
    }
}

[[gnu::always_inline]] inline void
SyntheticProcess::GenSeqWrite(GenState& s, MemRef& out) const
{
    Emit(out, s.alloc_front, AccessType::kWrite);
    s.alloc_front += 4;
    if (s.alloc_front >= heap_end_) {
        s.alloc_front = kHeapBase;
    }
}

[[gnu::always_inline]] inline void
SyntheticProcess::GenRmw(GenState& s, MemRef& out) const
{
    const uint32_t page =
        ZipfPage(s.rng, heap_zipf_, s.heap_ws_base, heap_wrap_);
    const uint32_t block =
        static_cast<uint32_t>(s.rng.NextBelow(blocks_per_page_));
    const ProcessAddr addr = BlockAddr(kHeapBase, page, block);
    // The modify-write of a couple of words follows on later accesses.
    s.burst_addr = addr;
    s.burst_words = 2;
    Emit(out, addr, AccessType::kRead);
}

[[gnu::always_inline]] inline void
SyntheticProcess::GenScanUpdate(GenState& s, MemRef& out) const
{
    const uint32_t read_burst =
        std::min(profile_.scan_read_blocks, blocks_per_page_);
    const uint32_t write_burst =
        std::min(profile_.scan_write_blocks, read_burst);

    if (s.scan_page == 0) {
        // Scans walk *allocated* structures: pages at or below the
        // allocation high-water mark.  Resident allocated pages are
        // already dirty (writes take the fast path), but pages that were
        // paged out and reloaded come back clean — so the excess-fault
        // rate tracks paging pressure, as in the paper's Table 3.3.
        const uint32_t allocated = static_cast<uint32_t>(
            (s.alloc_front - kHeapBase) / page_bytes_);
        if (allocated == 0) {
            GenRand(s, out);
            return;
        }
        const uint32_t page =
            static_cast<uint32_t>(s.rng.NextBelow(allocated));
        s.scan_page = kHeapBase + page * page_bytes_;
        s.scan_index = 0;
        s.scan_writing = false;
    }
    if (!s.scan_writing) {
        Emit(out, s.scan_page + s.scan_index * block_bytes_,
             AccessType::kRead);
        if (++s.scan_index >= read_burst) {
            s.scan_index = 0;
            s.scan_writing = true;
        }
    } else {
        Emit(out, s.scan_page + s.scan_index * block_bytes_,
             AccessType::kWrite);
        if (++s.scan_index >= write_burst) {
            s.scan_page = 0;  // Burst complete; pick a new page next time.
        }
    }
}

[[gnu::always_inline]] inline void
SyntheticProcess::GenRand(GenState& s, MemRef& out) const
{
    const bool write = s.rng.Next53() < rand_write_below_;
    // Reads concentrate on the hot (Zipf) pages, which therefore live in
    // the cache; update bursts scatter uniformly over the window, mostly
    // landing on blocks that are *not* cached — real programs update far
    // more data than they keep hot, which is why the paper measures four
    // to six write-miss fills per write hit on a clean block.
    // Updates cover only the lower half of the window: the upper half
    // models initialized-once, read-many structures (tables, loaded
    // structures), which is where replaced-but-never-modified writable
    // pages come from (Table 3.5's "not modified" column).
    const uint32_t page =
        write ? Wrap(s.heap_ws_base + static_cast<uint32_t>(
                                          s.rng.NextBelow(rand_write_span_)),
                     heap_wrap_)
              : ZipfPage(s.rng, heap_zipf_, s.heap_ws_base, heap_wrap_);
    const uint32_t block =
        static_cast<uint32_t>(s.rng.NextBelow(blocks_per_page_));
    const ProcessAddr addr =
        BlockAddr(kHeapBase, page, block) +
        4 * static_cast<uint32_t>(s.rng.NextBelow(block_bytes_ / 4));
    if (write) {
        StartBurst(s, out, addr, profile_.write_burst_words);
    } else {
        Emit(out, addr, AccessType::kRead);
    }
}

[[gnu::always_inline]] inline void
SyntheticProcess::GenStack(GenState& s, MemRef& out) const
{
    // Stack activity clusters near the top (page 0 of the region), with a
    // write bias: call frames are written on entry.
    const uint32_t page = static_cast<uint32_t>(stack_zipf_.Sample(s.rng));
    const uint32_t block =
        static_cast<uint32_t>(s.rng.NextBelow(blocks_per_page_));
    const ProcessAddr addr = BlockAddr(kStackBase, page, block);
    if (s.rng.Next53() < stack_store_below_) {
        // Frame setup: a run of stores.
        StartBurst(s, out, addr, block_bytes_ / 4);
    } else {
        Emit(out, addr, AccessType::kRead);
    }
}

[[gnu::always_inline]] inline uint32_t
SyntheticProcess::ZipfPage(Rng& rng, const ZipfTable& window,
                           uint32_t window_base, uint32_t wrap)
{
    const auto offset = static_cast<uint32_t>(window.Sample(rng));
    return Wrap(window_base + offset, std::max(1u, wrap));
}

void
SyntheticProcess::Fill(MemRef* out, size_t n)
{
    GenState s = state_;
    for (size_t i = 0; i < n; ++i) {
        Generate(s, out[i]);
    }
    state_ = s;
}

MemRef
SyntheticProcess::Next()
{
    ++refs_issued_;
    MemRef ref;
    Fill(&ref, 1);
    return ref;
}

size_t
SyntheticProcess::NextBatch(MemRef* out, size_t max)
{
    if (profile_.lifetime_refs != 0) {
        const uint64_t left = (refs_issued_ >= profile_.lifetime_refs)
                                  ? 0
                                  : profile_.lifetime_refs - refs_issued_;
        max = static_cast<size_t>(std::min<uint64_t>(max, left));
    }
    refs_issued_ += max;
    Fill(out, max);
    return max;
}

}  // namespace spur::workload
