/**
 * @file
 * Differential test for the SoA cache rewrite: an array-of-structs
 * reference model re-implements the pre-rewrite VirtualCache semantics
 * (one `Line` struct per slot, per-block-address page flush walk), and
 * a seeded random workload of ~1M mixed operations is replayed against
 * both.  Every operation's observable result must match, and the full
 * slot-by-slot cache state is compared at checkpoints and at the end.
 *
 * This is the safety net under the hot-path rearchitecture: any drift
 * in the packed-metadata encoding, the Fill/eviction protocol, the
 * flush scans or the HotView fast path shows up here as a first
 * divergence with the op index attached.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/cache/cache.h"
#include "src/common/bits.h"
#include "src/common/random.h"
#include "src/sim/config.h"

namespace spur::cache {
namespace {

/**
 * The pre-SoA cache: an array of Line structs and straight-line field
 * updates.  Mirrors the old VirtualCache public behaviour, including
 * the original page flush that walks block *addresses* (not a slot
 * run), which also covers pages larger than the cache.
 */
class AosReferenceCache
{
  public:
    explicit AosReferenceCache(const sim::MachineConfig& config)
        : block_shift_(config.BlockShift()),
          index_bits_(config.IndexBits()),
          index_mask_(config.NumBlocks() - 1),
          page_shift_(config.PageShift()),
          blocks_per_page_(static_cast<uint32_t>(config.BlocksPerPage())),
          lines_(config.NumBlocks())
    {
    }

    uint64_t IndexOf(GlobalAddr addr) const
    {
        return (addr >> block_shift_) & index_mask_;
    }
    uint64_t TagOf(GlobalAddr addr) const
    {
        return addr >> (block_shift_ + index_bits_);
    }

    const Line* Lookup(GlobalAddr addr) const
    {
        const Line& line = lines_[IndexOf(addr)];
        return (line.valid() && line.tag == TagOf(addr)) ? &line : nullptr;
    }

    Line* Lookup(GlobalAddr addr)
    {
        Line& line = lines_[IndexOf(addr)];
        return (line.valid() && line.tag == TagOf(addr)) ? &line : nullptr;
    }

    Line& Fill(GlobalAddr addr, Protection prot, bool page_dirty,
               Eviction* eviction)
    {
        const uint64_t index = IndexOf(addr);
        Line& line = lines_[index];
        if (eviction != nullptr) {
            eviction->writeback = line.valid() && line.block_dirty;
        }
        line.tag = TagOf(addr);
        line.prot = prot;
        line.state = CoherencyState::kUnOwned;
        line.page_dirty = page_dirty;
        line.block_dirty = false;
        return line;
    }

    static void MarkWritten(Line& line)
    {
        line.block_dirty = true;
        line.state = CoherencyState::kOwnedExclusive;
    }

    template <bool kTagChecked>
    FlushResult FlushPage(GlobalAddr addr)
    {
        FlushResult result;
        const GlobalAddr page_base =
            AlignDown(addr, uint64_t{1} << page_shift_);
        for (uint32_t i = 0; i < blocks_per_page_; ++i) {
            const GlobalAddr block_addr =
                page_base + (static_cast<GlobalAddr>(i) << block_shift_);
            const uint64_t index = IndexOf(block_addr);
            Line& line = lines_[index];
            ++result.slots_examined;
            if (!line.valid()) {
                continue;
            }
            const bool belongs = line.tag == TagOf(block_addr);
            if (kTagChecked && !belongs) {
                continue;
            }
            if (!belongs) {
                ++result.foreign_flushed;
            }
            ++result.blocks_flushed;
            if (line.block_dirty) {
                ++result.writebacks;
            }
            line = Line{};
        }
        return result;
    }

    const Line& LineAt(uint64_t index) const { return lines_[index]; }
    void SetLine(uint64_t index, const Line& line) { lines_[index] = line; }
    uint64_t NumLines() const { return lines_.size(); }

  private:
    unsigned block_shift_;
    unsigned index_bits_;
    uint64_t index_mask_;
    unsigned page_shift_;
    uint32_t blocks_per_page_;
    std::vector<Line> lines_;
};

bool
SameLine(const Line& a, const Line& b)
{
    // An invalid slot compares equal regardless of stale tag bits in the
    // reference — except the SoA invariant zeroes both, and the
    // reference model zeroes on invalidate too, so compare exactly.
    return a.tag == b.tag && a.prot == b.prot && a.state == b.state &&
           a.page_dirty == b.page_dirty && a.block_dirty == b.block_dirty;
}

/** Asserts every slot of @p vcache matches @p model. */
void
ExpectSameState(const VirtualCache& vcache, const AosReferenceCache& model,
                uint64_t op_index)
{
    ASSERT_EQ(vcache.NumLines(), model.NumLines());
    for (uint64_t i = 0; i < vcache.NumLines(); ++i) {
        const Line got = vcache.LineAt(i);
        const Line& want = model.LineAt(i);
        ASSERT_TRUE(SameLine(got, want))
            << "slot " << i << " diverged after op " << op_index
            << ": got {tag=" << got.tag
            << " state=" << static_cast<int>(got.state)
            << " prot=" << static_cast<int>(got.prot)
            << " P=" << got.page_dirty << " B=" << got.block_dirty
            << "} want {tag=" << want.tag
            << " state=" << static_cast<int>(want.state)
            << " prot=" << static_cast<int>(want.prot)
            << " P=" << want.page_dirty << " B=" << want.block_dirty << "}";
    }
}

bool
SameFlush(const FlushResult& a, const FlushResult& b)
{
    return a.slots_examined == b.slots_examined &&
           a.blocks_flushed == b.blocks_flushed &&
           a.writebacks == b.writebacks &&
           a.foreign_flushed == b.foreign_flushed;
}

/**
 * Replays @p num_ops random operations against both caches.  Addresses
 * are drawn from a small set of tags crossed with random indices so
 * hits, conflict misses and page overlaps all occur constantly.
 */
void
RunDifferential(const sim::MachineConfig& config, uint64_t num_ops,
                uint64_t seed)
{
    VirtualCache vcache(config);
    AosReferenceCache model(config);
    Rng rng(seed);

    const unsigned block_shift = config.BlockShift();
    const uint64_t num_blocks = config.NumBlocks();
    const uint64_t block_bytes = config.block_bytes;
    const uint64_t page_bytes = config.page_bytes;
    // Few distinct tags over the full index range: dense conflicts.
    const uint64_t tag_choices = 6;
    const uint64_t tag_shift =
        block_shift + static_cast<unsigned>(config.IndexBits());

    const auto random_addr = [&]() -> GlobalAddr {
        const uint64_t tag = rng.NextBelow(tag_choices);
        const uint64_t index = rng.NextBelow(num_blocks);
        const uint64_t offset = rng.NextBelow(block_bytes);
        return (tag << tag_shift) | (index << block_shift) | offset;
    };

    const uint64_t checkpoint_every = num_ops / 64 + 1;
    for (uint64_t op = 0; op < num_ops; ++op) {
        const GlobalAddr addr = random_addr();
        const uint64_t dice = rng.NextBelow(100);
        if (dice < 55) {
            // Lookup, optionally marking the hit written — the
            // read/write hit path.  Odd ops route the write through the
            // HotView line (the batch-loop flavour) and also
            // cross-check the HotView fast path against Lookup.
            LineRef line = vcache.Lookup(addr);
            Line* ref = model.Lookup(addr);
            ASSERT_EQ(static_cast<bool>(line), ref != nullptr)
                << "hit/miss divergence at op " << op;
            const VirtualCache::HotView hv = vcache.hot_view();
            LineRef hv_line =
                hv.Lookup(vcache.IndexOf(addr), vcache.TagOf(addr));
            ASSERT_EQ(static_cast<bool>(hv_line), ref != nullptr)
                << "HotView divergence at op " << op;
            const bool is_write = rng.Chance(0.4);
            if (line) {
                ASSERT_EQ(line.tag(), ref->tag);
                ASSERT_EQ(line.block_dirty(), ref->block_dirty);
                if (is_write) {
                    if ((op & 1) != 0) {
                        hv_line.MarkWritten();
                    } else {
                        VirtualCache::MarkWritten(line);
                    }
                    AosReferenceCache::MarkWritten(*ref);
                }
            }
        } else if (dice < 92) {
            // Fill: the miss path.  Random PTE-derived state.
            const Protection prot = static_cast<Protection>(
                1 + rng.NextBelow(2));  // kReadOnly or kReadWrite
            const bool page_dirty = rng.Chance(0.3);
            Eviction got_ev;
            Eviction want_ev;
            LineRef got = vcache.Fill(addr, prot, page_dirty, &got_ev);
            Line& want = model.Fill(addr, prot, page_dirty, &want_ev);
            ASSERT_EQ(got_ev.writeback, want_ev.writeback) << "op " << op;
            ASSERT_TRUE(SameLine(got.Get(), want)) << "op " << op;
        } else if (dice < 96) {
            const FlushResult got = vcache.FlushPageChecked(addr);
            const FlushResult want = model.FlushPage<true>(addr);
            ASSERT_TRUE(SameFlush(got, want)) << "checked flush, op " << op;
        } else if (dice < 99) {
            const FlushResult got = vcache.FlushPageIndexed(addr);
            const FlushResult want = model.FlushPage<false>(addr);
            ASSERT_TRUE(SameFlush(got, want)) << "indexed flush, op " << op;
        } else {
            // Rare: page-aligned flush of a *page base* address, plus a
            // whole-cache cross-check (affordable at this frequency).
            const GlobalAddr page =
                AlignDown(addr, page_bytes);
            const FlushResult got = vcache.FlushPageChecked(page);
            const FlushResult want = model.FlushPage<true>(page);
            ASSERT_TRUE(SameFlush(got, want)) << "aligned flush, op " << op;
            ExpectSameState(vcache, model, op);
            if (::testing::Test::HasFatalFailure()) {
                return;
            }
        }
        if (op % checkpoint_every == 0) {
            ExpectSameState(vcache, model, op);
            if (::testing::Test::HasFatalFailure()) {
                return;
            }
        }
    }
    ExpectSameState(vcache, model, num_ops);
}

TEST(CacheSoaDiffTest, PrototypeGeometryMillionOps)
{
    // The paper's prototype: 128 KB cache, 32 B blocks, 4 KB pages.
    RunDifferential(sim::MachineConfig::Prototype(8), 1'000'000,
                    /*seed=*/0xD1FFu);
}

TEST(CacheSoaDiffTest, SmallCacheHighConflict)
{
    sim::MachineConfig config = sim::MachineConfig::Prototype(8);
    config.cache_bytes = 8 * 1024;
    config.block_bytes = 16;
    RunDifferential(config, 200'000, /*seed=*/0xBEEFu);
}

TEST(CacheSoaDiffTest, PageLargerThanCacheAliasedFlush)
{
    // blocks_per_page > num_blocks forces the aliasing flush walk where
    // a page's blocks wrap around the whole cache.
    sim::MachineConfig config = sim::MachineConfig::Prototype(8);
    config.cache_bytes = 2 * 1024;
    config.block_bytes = 32;
    config.page_bytes = 4 * 1024;
    RunDifferential(config, 200'000, /*seed=*/0xCAFEu);
}

/** The kinds of line a page flush meets in a slot of its page's run. */
enum class SlotKind { kInvalid, kOwnClean, kOwnDirty, kForeignClean,
                      kForeignDirty };
constexpr int kNumSlotKinds = 5;

/** A line of @p kind in a slot of the page whose tag is @p page_tag. */
Line
LineOfKind(SlotKind kind, uint64_t page_tag, Rng& rng)
{
    Line line;
    if (kind == SlotKind::kInvalid) {
        return line;
    }
    const bool own = kind == SlotKind::kOwnClean ||
                     kind == SlotKind::kOwnDirty;
    const bool dirty = kind == SlotKind::kOwnDirty ||
                       kind == SlotKind::kForeignDirty;
    line.tag = own ? page_tag : page_tag + 1 + rng.NextBelow(3);
    line.prot = static_cast<Protection>(1 + rng.NextBelow(2));
    line.page_dirty = rng.Chance(0.5);
    line.block_dirty = dirty;
    // Clean lines are UnOwned; a dirty line is OwnedExclusive or, as a
    // multiprocessor leaves it, OwnedShared.
    line.state = !dirty           ? CoherencyState::kUnOwned
                 : rng.Chance(0.5) ? CoherencyState::kOwnedExclusive
                                   : CoherencyState::kOwnedShared;
    return line;
}

/**
 * Fills both caches with the same random lines, then writes one page's
 * run of slots with lines of the kinds @p kind_of picks, flushes that
 * page both ways on fresh copies, and compares each FlushResult field
 * and every slot afterwards.
 */
template <typename KindOf>
void
FlushMixedPage(const sim::MachineConfig& config, uint64_t page_tag,
               uint64_t run, Rng& rng, KindOf kind_of)
{
    const uint64_t tag_shift =
        config.BlockShift() + static_cast<unsigned>(config.IndexBits());
    const uint64_t first = run * config.BlocksPerPage();
    const GlobalAddr page =
        (page_tag << tag_shift) | (first << config.BlockShift());
    std::vector<Line> lines(config.NumBlocks());
    for (uint64_t i = 0; i < lines.size(); ++i) {
        const bool in_page = i >= first && i < first + config.BlocksPerPage();
        const SlotKind kind = in_page
                                  ? kind_of(i - first)
                                  : static_cast<SlotKind>(
                                        rng.NextBelow(kNumSlotKinds));
        lines[i] = LineOfKind(kind, page_tag, rng);
    }
    for (const bool checked : {true, false}) {
        VirtualCache vcache(config);
        AosReferenceCache model(config);
        for (uint64_t i = 0; i < lines.size(); ++i) {
            vcache.SlotAt(i).Set(lines[i]);
            model.SetLine(i, lines[i]);
        }
        const FlushResult got = checked ? vcache.FlushPageChecked(page)
                                        : vcache.FlushPageIndexed(page);
        const FlushResult want = checked ? model.FlushPage<true>(page)
                                         : model.FlushPage<false>(page);
        EXPECT_EQ(got.slots_examined, want.slots_examined);
        EXPECT_EQ(got.blocks_flushed, want.blocks_flushed);
        EXPECT_EQ(got.writebacks, want.writebacks);
        EXPECT_EQ(got.foreign_flushed, want.foreign_flushed);
        ExpectSameState(vcache, model, run);
    }
}

/** Seeded mixes of every slot kind, then pages of each kind alone. */
void
RunFlushCoverage(const sim::MachineConfig& config, uint64_t seed)
{
    Rng rng(seed);
    const uint64_t runs = config.NumBlocks() / config.BlocksPerPage();
    for (int trial = 0; trial < 200; ++trial) {
        const uint64_t page_tag = rng.NextBelow(6);
        FlushMixedPage(config, page_tag, rng.NextBelow(runs), rng,
                       [&rng](uint64_t) {
                           return static_cast<SlotKind>(
                               rng.NextBelow(kNumSlotKinds));
                       });
        if (::testing::Test::HasFailure()) {
            FAIL() << "mixed page, trial " << trial;
        }
    }
    for (int kind = 0; kind < kNumSlotKinds; ++kind) {
        FlushMixedPage(config, 1 + rng.NextBelow(5), rng.NextBelow(runs),
                       rng, [kind](uint64_t) {
                           return static_cast<SlotKind>(kind);
                       });
        if (::testing::Test::HasFailure()) {
            FAIL() << "page of kind " << kind << " only";
        }
    }
}

TEST(CacheSoaDiffTest, PageFlushesCoverEveryKindOfLine)
{
    // Pages of 128 slots mixing invalid, own-clean, own-dirty,
    // foreign-clean and foreign-dirty lines, including page tag 0
    // (where an invalid slot's zeroed tag equals the page's).
    RunFlushCoverage(sim::MachineConfig::Prototype(8), /*seed=*/0xF1u);
    // 16-byte blocks: 256 slots per page.
    sim::MachineConfig small = sim::MachineConfig::Prototype(8);
    small.cache_bytes = 8 * 1024;
    small.block_bytes = 16;
    RunFlushCoverage(small, /*seed=*/0xF2u);
    // 64-byte pages of 16-byte blocks: 4 slots per page, fewer than the
    // eight the scan takes at a time, so only its one-slot loop runs.
    small.page_bytes = 64;
    RunFlushCoverage(small, /*seed=*/0xF3u);
}

}  // namespace
}  // namespace spur::cache
