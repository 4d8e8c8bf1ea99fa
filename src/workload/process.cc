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
      rng_(seed),
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
      seq_read_pos_(kDataBase),
      alloc_front_(kHeapBase),
      file_write_pos_(file_lo_)
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
// straight-line loop body writing into the caller's MemRef.

[[gnu::always_inline]] inline void
SyntheticProcess::Generate(MemRef& out)
{
    out.pid = pid_;
    if (rng_.Next53() < ifetch_below_) {
        IFetch(out);
    } else {
        DataRef(out);
    }
}

[[gnu::always_inline]] inline void
SyntheticProcess::IFetch(MemRef& out)
{
    // loop_base_ == 0 doubles as "no loop yet", so a loop placed at text
    // offset 0 is re-picked as a far jump before it is fetched (a known
    // quirk, DESIGN.md §6; every pinned stream depends on it).
    if (loop_base_ == 0) {
        PickNextLoop();
    }
    Emit(out, loop_pc_, AccessType::kIFetch);
    loop_pc_ += 4;
    if (loop_pc_ == loop_end_) {
        loop_pc_ = loop_base_;
        if (--loop_iters_left_ == 0) {
            PickNextLoop();
        }
    }
}

void
SyntheticProcess::PickNextLoop()
{
    if (loop_base_ == 0 || rng_.Chance(profile_.call_prob)) {
        // Call or long jump into the hot-code window, which itself drifts
        // slowly across the text (program phases).
        if (rng_.Chance(0.02)) {
            code_ws_base_ = static_cast<uint32_t>(rng_.NextBelow(
                std::max(1u,
                         profile_.code_pages - profile_.code_ws_pages + 1)));
        }
        const uint32_t page =
            ZipfPage(code_zipf_, code_ws_base_, profile_.code_pages);
        const uint32_t block =
            static_cast<uint32_t>(rng_.NextBelow(blocks_per_page_));
        loop_base_ = BlockAddr(kCodeBase, page, block);
    } else {
        // Fall through to the code after the previous loop body.
        loop_base_ += loop_blocks_ * block_bytes_;
        if (loop_base_ >= code_end_) {
            loop_base_ = kCodeBase;
        }
    }
    loop_blocks_ = 1 + static_cast<uint32_t>(
                           rng_.NextBelow(profile_.loop_blocks_max));
    loop_iters_left_ = 1 + static_cast<uint32_t>(
                               rng_.NextBelow(profile_.loop_iters_max));
    // Keep the body inside the region.
    if (loop_base_ + loop_blocks_ * block_bytes_ > code_end_) {
        loop_base_ = code_end_ - loop_blocks_ * block_bytes_;
    }
    loop_pc_ = loop_base_;
    loop_end_ = loop_base_ + loop_blocks_ * block_bytes_;
}

[[gnu::always_inline]] inline void
SyntheticProcess::DataRef(MemRef& out)
{
    // Slide the heap working set occasionally: phase behaviour.
    const bool slide =
        slide_draws_ ? rng_.Next53() < slide_below_ : slide_below_ != 0;
    if (slide && profile_.heap_pages > 0) {
        heap_ws_base_ = (heap_ws_base_ + 1 +
                         static_cast<uint32_t>(rng_.NextBelow(4))) %
                        heap_wrap_;
    }
    if (profile_.stack_pages > 0 && rng_.Next53() < stack_below_) {
        GenStack(out);
        return;
    }
    // A pending write burst completes before anything else starts.
    if (burst_words_ != 0) {
        Emit(out, burst_addr_, AccessType::kWrite);
        burst_addr_ += 4;
        --burst_words_;
        return;
    }
    const uint64_t m = rng_.Next53();
    const size_t k = size_t{m >= gen_below_[0]} + size_t{m >= gen_below_[1]} +
                     size_t{m >= gen_below_[2]} + size_t{m >= gen_below_[3]} +
                     size_t{m >= gen_below_[4]};
    switch (gen_of_k_[k]) {
    case Gen::kSeqRead:
        GenSeqRead(out);
        return;
    case Gen::kSeqWrite:
        GenSeqWrite(out);
        return;
    case Gen::kRmw:
        GenRmw(out);
        return;
    case Gen::kScanUpdate:
        GenScanUpdate(out);
        return;
    case Gen::kRand:
        GenRand(out);
        return;
    case Gen::kFileWrite:
        GenFileWrite(out);
        return;
    case Gen::kStack:
        GenStack(out);
        return;
    }
}

[[gnu::always_inline]] inline void
SyntheticProcess::StartBurst(MemRef& out, ProcessAddr addr, uint32_t words)
{
    // Clip the burst to its cache block so every word after the first
    // hits the freshly written (dirty) block.
    const uint32_t word_in_block = (addr % block_bytes_) / 4;
    const uint32_t room = block_bytes_ / 4 - word_in_block;
    const uint32_t len = std::max(1u, std::min(words, room));
    burst_addr_ = addr + 4;
    burst_words_ = len - 1;
    Emit(out, addr, AccessType::kWrite);
}

[[gnu::always_inline]] inline void
SyntheticProcess::GenFileWrite(MemRef& out)
{
    // Sometimes re-read an earlier output page (previewing what was
    // written) rather than appending.
    const uint32_t written_pages =
        static_cast<uint32_t>((file_write_pos_ - file_lo_) / page_bytes_);
    if (written_pages > 0 && rng_.Next53() < reread_below_) {
        const uint32_t page =
            static_cast<uint32_t>(rng_.NextBelow(written_pages));
        const ProcessAddr addr =
            file_lo_ + page * page_bytes_ +
            static_cast<ProcessAddr>(rng_.NextBelow(page_bytes_) & ~3u);
        Emit(out, addr, AccessType::kRead);
        return;
    }
    Emit(out, file_write_pos_, AccessType::kWrite);
    file_write_pos_ += 4;
    if (file_write_pos_ >= data_end_) {
        file_write_pos_ = file_lo_;
    }
}

[[gnu::always_inline]] inline void
SyntheticProcess::GenSeqRead(MemRef& out)
{
    // Input files live in the lower part of the data region; output files
    // (GenFileWrite) in the upper part, so scans do not pre-cache the
    // blocks the writer dirties.
    Emit(out, seq_read_pos_, AccessType::kRead);
    seq_read_pos_ += 4;
    if (seq_read_pos_ >= seq_read_end_) {
        seq_read_pos_ = kDataBase;
    }
}

[[gnu::always_inline]] inline void
SyntheticProcess::GenSeqWrite(MemRef& out)
{
    Emit(out, alloc_front_, AccessType::kWrite);
    alloc_front_ += 4;
    if (alloc_front_ >= heap_end_) {
        alloc_front_ = kHeapBase;
    }
}

[[gnu::always_inline]] inline void
SyntheticProcess::GenRmw(MemRef& out)
{
    const uint32_t page = ZipfPage(heap_zipf_, heap_ws_base_, heap_wrap_);
    const uint32_t block =
        static_cast<uint32_t>(rng_.NextBelow(blocks_per_page_));
    const ProcessAddr addr = BlockAddr(kHeapBase, page, block);
    // The modify-write of a couple of words follows on later accesses.
    burst_addr_ = addr;
    burst_words_ = 2;
    Emit(out, addr, AccessType::kRead);
}

[[gnu::always_inline]] inline void
SyntheticProcess::GenScanUpdate(MemRef& out)
{
    const uint32_t read_burst =
        std::min(profile_.scan_read_blocks, blocks_per_page_);
    const uint32_t write_burst =
        std::min(profile_.scan_write_blocks, read_burst);

    if (scan_page_ == 0) {
        // Scans walk *allocated* structures: pages at or below the
        // allocation high-water mark.  Resident allocated pages are
        // already dirty (writes take the fast path), but pages that were
        // paged out and reloaded come back clean — so the excess-fault
        // rate tracks paging pressure, as in the paper's Table 3.3.
        const uint32_t allocated = static_cast<uint32_t>(
            (alloc_front_ - kHeapBase) / page_bytes_);
        if (allocated == 0) {
            GenRand(out);
            return;
        }
        const uint32_t page =
            static_cast<uint32_t>(rng_.NextBelow(allocated));
        scan_page_ = kHeapBase + page * page_bytes_;
        scan_index_ = 0;
        scan_writing_ = false;
    }
    if (!scan_writing_) {
        Emit(out, scan_page_ + scan_index_ * block_bytes_, AccessType::kRead);
        if (++scan_index_ >= read_burst) {
            scan_index_ = 0;
            scan_writing_ = true;
        }
    } else {
        Emit(out, scan_page_ + scan_index_ * block_bytes_,
             AccessType::kWrite);
        if (++scan_index_ >= write_burst) {
            scan_page_ = 0;  // Burst complete; pick a new page next time.
        }
    }
}

[[gnu::always_inline]] inline void
SyntheticProcess::GenRand(MemRef& out)
{
    const bool write = rng_.Next53() < rand_write_below_;
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
        write ? Wrap(heap_ws_base_ + static_cast<uint32_t>(
                                         rng_.NextBelow(rand_write_span_)),
                     heap_wrap_)
              : ZipfPage(heap_zipf_, heap_ws_base_, heap_wrap_);
    const uint32_t block =
        static_cast<uint32_t>(rng_.NextBelow(blocks_per_page_));
    const ProcessAddr addr =
        BlockAddr(kHeapBase, page, block) +
        4 * static_cast<uint32_t>(rng_.NextBelow(block_bytes_ / 4));
    if (write) {
        StartBurst(out, addr, profile_.write_burst_words);
    } else {
        Emit(out, addr, AccessType::kRead);
    }
}

[[gnu::always_inline]] inline void
SyntheticProcess::GenStack(MemRef& out)
{
    // Stack activity clusters near the top (page 0 of the region), with a
    // write bias: call frames are written on entry.
    const uint32_t page = static_cast<uint32_t>(stack_zipf_.Sample(rng_));
    const uint32_t block =
        static_cast<uint32_t>(rng_.NextBelow(blocks_per_page_));
    const ProcessAddr addr = BlockAddr(kStackBase, page, block);
    if (rng_.Next53() < stack_store_below_) {
        // Frame setup: a run of stores.
        StartBurst(out, addr, block_bytes_ / 4);
    } else {
        Emit(out, addr, AccessType::kRead);
    }
}

[[gnu::always_inline]] inline uint32_t
SyntheticProcess::ZipfPage(const ZipfTable& window, uint32_t window_base,
                           uint32_t wrap)
{
    const auto offset = static_cast<uint32_t>(window.Sample(rng_));
    return Wrap(window_base + offset, std::max(1u, wrap));
}

void
SyntheticProcess::Fill(MemRef* out, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        Generate(out[i]);
    }
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
