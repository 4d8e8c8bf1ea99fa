/**
 * @file
 * SPUR's 128 KB direct-mapped, virtually-addressed, unified cache.
 *
 * Each cache line carries the Figure 3.2(b) tag fields:
 *   VTag  virtual address tag,
 *   PR    cached copy of the page protection (2 bits),
 *   P     cached copy of the *page* dirty bit,
 *   B     *block* dirty bit (this block was modified while cached),
 *   CS    Berkeley Ownership coherency state (2 bits).
 *
 * PR and P are copied from the PTE when the block is filled and may go
 * stale when the PTE changes afterwards — the central phenomenon studied
 * by the paper.  The cache is a metadata model: block data contents are
 * never simulated because no experiment depends on them.
 *
 * Storage is structure-of-arrays: one vector of VTags and one vector of
 * packed per-line metadata bytes holding CS | PR | P | B.  The whole
 * metadata array for the prototype cache is 4 KB, so the per-reference
 * valid/tag check and the page-flush scans run against L1-resident
 * state.  The `Line` struct survives as a value-type snapshot of one
 * line (tests, invariant passes); live lines are reached through the
 * `LineRef` proxy, which preserves Figure 3.2(b) field semantics over
 * the packed byte.
 *
 * On the uniprocessor configuration the Berkeley Ownership protocol
 * [Katz85] degenerates to: fills enter UnOwned, writes promote to
 * OwnedExclusive (dirty).  The multiprocessor configuration connects
 * several of these caches over the snooping bus in bus.h, which drives
 * the full protocol state machine.
 */
// spur:hot-path
#ifndef SPUR_CACHE_CACHE_H_
#define SPUR_CACHE_CACHE_H_

#include <cstdint>
#include <vector>

#include "src/cache/flusher.h"
#include "src/common/types.h"
#include "src/sim/config.h"

namespace spur::cache {

/** Berkeley Ownership coherency states (2-bit CS field). */
enum class CoherencyState : uint8_t {
    kInvalid = 0,
    kUnOwned = 1,         ///< Clean, possibly shared.
    kOwnedShared = 2,     ///< Dirty, other caches may hold copies.
    kOwnedExclusive = 3,  ///< Dirty, no other cached copies.
};

/** Returns a short name for a coherency state. */
const char* ToString(CoherencyState state);

/**
 * One cache line (block frame) of tag state, as a value snapshot.
 * Live lines are stored packed (see LineRef); this struct is the
 * unpacked view used by tests, the invariant passes, and anything that
 * wants to hold line state independent of the cache arrays.
 */
struct Line {
    uint64_t tag = 0;                ///< VTag: address bits above the index.
    Protection prot = Protection::kNone;  ///< PR: cached page protection.
    CoherencyState state = CoherencyState::kInvalid;  ///< CS.
    bool page_dirty = false;         ///< P: cached copy of page dirty bit.
    bool block_dirty = false;        ///< B: block modified while cached.

    bool valid() const { return state != CoherencyState::kInvalid; }
};

/** Packed layout of the per-line metadata byte. */
namespace meta {
inline constexpr uint8_t kStateMask = 0x03;   ///< CS, bits 0-1.
inline constexpr unsigned kProtShift = 2;     ///< PR, bits 2-3.
inline constexpr uint8_t kProtMask = 0x0C;
inline constexpr uint8_t kPageDirtyBit = 0x10;   ///< P, bit 4.
inline constexpr uint8_t kBlockDirtyBit = 0x20;  ///< B, bit 5.

/** Packs a Line's non-tag fields into one byte. */
inline uint8_t
Pack(const Line& line)
{
    return static_cast<uint8_t>(
        (static_cast<uint8_t>(line.state) & kStateMask) |
        ((static_cast<uint8_t>(line.prot) << kProtShift) & kProtMask) |
        (line.page_dirty ? kPageDirtyBit : 0) |
        (line.block_dirty ? kBlockDirtyBit : 0));
}

/** Unpacks a metadata byte (+ tag) back into a Line snapshot. */
inline Line
Unpack(uint64_t tag, uint8_t m)
{
    Line line;
    line.tag = tag;
    line.state = static_cast<CoherencyState>(m & kStateMask);
    line.prot = static_cast<Protection>((m & kProtMask) >> kProtShift);
    line.page_dirty = (m & kPageDirtyBit) != 0;
    line.block_dirty = (m & kBlockDirtyBit) != 0;
    return line;
}

/** Pack fills bits 0-5 only, so every metadata byte is below 64 and a
 *  set of bytes fits one 64-bit map (bit m stands for byte m). */
inline constexpr unsigned kUsedBits = 6;

/**
 * A test on a metadata byte: `(m & mask) == value`.  Policies state the
 * line states they care about as patterns built from the ones below,
 * so the bit layout stays in this header.
 */
struct Pattern {
    uint8_t mask;
    uint8_t value;

    constexpr bool Matches(uint8_t m) const { return (m & mask) == value; }

    /** The bytes this pattern matches, as a byte map. */
    constexpr uint64_t Bytes() const
    {
        uint64_t bytes = 0;
        for (unsigned m = 0; m < (1u << kUsedBits); ++m) {
            if (Matches(static_cast<uint8_t>(m))) {
                bytes |= uint64_t{1} << m;
            }
        }
        return bytes;
    }

    /** This pattern, and the cached page-dirty bit P set. */
    constexpr Pattern WithPageDirty() const
    {
        return {static_cast<uint8_t>(mask | kPageDirtyBit),
                static_cast<uint8_t>(value | kPageDirtyBit)};
    }

    /** This pattern, and the cached protection PR equal to @p prot. */
    constexpr Pattern WithProt(Protection prot) const
    {
        return {static_cast<uint8_t>(mask | kProtMask),
                static_cast<uint8_t>(
                    value | ((static_cast<uint8_t>(prot) << kProtShift) &
                             kProtMask))};
    }
};

/** A line a write has already marked: B set and CS OwnedExclusive, the
 *  two fields LineRef::MarkWritten ORs in. */
inline constexpr Pattern kWritten{
    static_cast<uint8_t>(kBlockDirtyBit | kStateMask),
    static_cast<uint8_t>(
        kBlockDirtyBit |
        static_cast<uint8_t>(CoherencyState::kOwnedExclusive))};

/** An invalid slot: CS Invalid (the rest of the byte is zero too). */
inline constexpr Pattern kInvalid{
    kStateMask, static_cast<uint8_t>(CoherencyState::kInvalid)};
}  // namespace meta

/**
 * Read-only proxy for one live line in the SoA arrays.  Null (falsy)
 * when a lookup missed.  Accessors mirror the Line fields exactly.
 */
class ConstLineRef
{
  public:
    ConstLineRef() = default;
    ConstLineRef(const uint64_t* tag, const uint8_t* m)
        : tag_(tag), meta_(m)
    {
    }

    explicit operator bool() const { return meta_ != nullptr; }

    uint64_t tag() const { return *tag_; }
    CoherencyState state() const
    {
        return static_cast<CoherencyState>(*meta_ & meta::kStateMask);
    }
    Protection prot() const
    {
        return static_cast<Protection>((*meta_ & meta::kProtMask) >>
                                       meta::kProtShift);
    }
    bool page_dirty() const { return (*meta_ & meta::kPageDirtyBit) != 0; }
    bool block_dirty() const { return (*meta_ & meta::kBlockDirtyBit) != 0; }
    bool valid() const { return (*meta_ & meta::kStateMask) != 0; }

    /** Unpacked snapshot of the line. */
    Line Get() const { return meta::Unpack(*tag_, *meta_); }

  protected:
    const uint64_t* tag_ = nullptr;
    const uint8_t* meta_ = nullptr;
};

/** Mutable proxy for one live line (what Lookup()/Fill() hand out). */
class LineRef : public ConstLineRef
{
  public:
    LineRef() = default;
    LineRef(uint64_t* tag, uint8_t* m) : ConstLineRef(tag, m) {}

    void set_tag(uint64_t tag) { *mutable_tag() = tag; }
    void set_state(CoherencyState state)
    {
        *mutable_meta() = static_cast<uint8_t>(
            (*meta_ & ~meta::kStateMask) |
            (static_cast<uint8_t>(state) & meta::kStateMask));
    }
    void set_prot(Protection prot)
    {
        *mutable_meta() = static_cast<uint8_t>(
            (*meta_ & ~meta::kProtMask) |
            ((static_cast<uint8_t>(prot) << meta::kProtShift) &
             meta::kProtMask));
    }
    void set_page_dirty(bool dirty)
    {
        *mutable_meta() = static_cast<uint8_t>(
            dirty ? (*meta_ | meta::kPageDirtyBit)
                  : (*meta_ & ~meta::kPageDirtyBit));
    }
    void set_block_dirty(bool dirty)
    {
        *mutable_meta() = static_cast<uint8_t>(
            dirty ? (*meta_ | meta::kBlockDirtyBit)
                  : (*meta_ & ~meta::kBlockDirtyBit));
    }

    /** Sets B and promotes CS to OwnedExclusive.  OwnedExclusive is both
     *  state bits set, so the whole transition is one OR into the packed
     *  byte (the hardware's write-hit fast path). */
    void MarkWritten() { MarkWrittenIf(true); }

    /** MarkWritten() when @p written, else a store of the byte as it
     *  is: the OR's operand is the written bits times @p written, so a
     *  caller whose condition is a coin flip takes no branch on it. */
    void MarkWrittenIf(bool written)
    {
        *mutable_meta() = static_cast<uint8_t>(
            *meta_ | (meta::kWritten.value * static_cast<uint8_t>(written)));
    }

    /** Overwrites the whole line from a snapshot. */
    void Set(const Line& line)
    {
        *mutable_tag() = line.tag;
        *mutable_meta() = meta::Pack(line);
    }

    /** Resets the line to the default (invalid) state, tag included —
     *  the packed equivalent of `line = Line{}`. */
    void Invalidate()
    {
        *mutable_tag() = 0;
        *mutable_meta() = 0;
    }

  private:
    // The base class holds const pointers so ConstLineRef conversion is
    // free; a LineRef is only ever built from mutable storage.
    uint64_t* mutable_tag() { return const_cast<uint64_t*>(tag_); }
    uint8_t* mutable_meta() { return const_cast<uint8_t*>(meta_); }
};

/**
 * Owns storage for one free-standing line and hands out LineRefs to it.
 * For tests and callers that exercised policies against stack-allocated
 * `cache::Line` values under the old array-of-structs layout.
 */
class LineBuf
{
  public:
    LineBuf() = default;
    explicit LineBuf(const Line& line)
        : tag_(line.tag), meta_(meta::Pack(line))
    {
    }

    LineRef ref() { return LineRef(&tag_, &meta_); }
    ConstLineRef cref() const { return ConstLineRef(&tag_, &meta_); }
    Line Get() const { return meta::Unpack(tag_, meta_); }

  private:
    uint64_t tag_ = 0;
    uint8_t meta_ = 0;
};

/** Result of evicting a line during Fill(). */
struct Eviction {
    bool writeback = false;  ///< A block-dirty line was displaced.
};

/** Result of VirtualCache::Touch(). */
struct Touched {
    bool hit = false;        ///< The block was already cached.
    bool writeback = false;  ///< A miss displaced a block-dirty line.
};

/** Result of a page flush operation. */
struct FlushResult {
    uint32_t slots_examined = 0;  ///< Cache slots visited.
    uint32_t blocks_flushed = 0;  ///< Valid blocks invalidated.
    uint32_t writebacks = 0;      ///< Of those, dirty blocks written back.
    uint32_t foreign_flushed = 0; ///< Blocks from *other* pages flushed
                                  ///< (indexed flush only).
};

/** The direct-mapped virtual-address cache. */
class VirtualCache final : public PageFlusher
{
  public:
    explicit VirtualCache(const sim::MachineConfig& config);

    VirtualCache(const VirtualCache&) = delete;
    VirtualCache& operator=(const VirtualCache&) = delete;

    /** Returns a ref to the line holding @p addr, or a null ref on miss. */
    LineRef Lookup(GlobalAddr addr)
    {
        const uint64_t index = IndexOf(addr);
        return ((meta_[index] & meta::kStateMask) != 0 &&
                tags_[index] == TagOf(addr))
                   ? LineRef(&tags_[index], &meta_[index])
                   : LineRef();
    }

    /** Const lookup. */
    ConstLineRef Lookup(GlobalAddr addr) const
    {
        const uint64_t index = IndexOf(addr);
        return ((meta_[index] & meta::kStateMask) != 0 &&
                tags_[index] == TagOf(addr))
                   ? ConstLineRef(&tags_[index], &meta_[index])
                   : ConstLineRef();
    }

    /**
     * Installs the block containing @p addr with cached PTE state
     * (@p prot, @p page_dirty).  Fills enter UnOwned (clean).  A
     * non-null @p eviction learns whether the line displaced from the
     * slot was block-dirty.
     */
    [[gnu::always_inline]] LineRef Fill(GlobalAddr addr, Protection prot,
                                        bool page_dirty, Eviction* eviction)
    {
        const uint64_t index = IndexOf(addr);
        const uint8_t old_meta = meta_[index];
        if (eviction != nullptr) {
            const bool valid = (old_meta & meta::kStateMask) != 0;
            eviction->writeback = static_cast<bool>(
                valid & ((old_meta & meta::kBlockDirtyBit) != 0));
        }
        tags_[index] = TagOf(addr);
        meta_[index] = FillMeta(prot, page_dirty);
        return LineRef(&tags_[index], &meta_[index]);
    }

    /**
     * Makes sure the block containing @p addr is cached: a hit leaves
     * its line as it is, a miss fills it as Fill() does.  No branch
     * depends on the outcome: a hit stores the line's own tag and
     * metadata byte back unchanged.
     */
    [[gnu::always_inline]] Touched Touch(GlobalAddr addr, Protection prot,
                                         bool page_dirty)
    {
        const uint64_t index = IndexOf(addr);
        const uint64_t tag = TagOf(addr);
        const uint8_t old = meta_[index];
        // Bitwise, not short-circuit, so the compiler has no branch to
        // make of them; `keep` is 0xFF on a hit and 0 on a miss.
        const bool valid = (old & meta::kStateMask) != 0;
        const bool hit = valid & (tags_[index] == tag);
        const auto keep = static_cast<uint8_t>(-static_cast<int>(hit));
        tags_[index] = tag;
        meta_[index] = static_cast<uint8_t>(
            (old & keep) | (FillMeta(prot, page_dirty) & ~keep));
        const bool dirty = (old & meta::kBlockDirtyBit) != 0;
        return Touched{hit, static_cast<bool>(!hit & valid & dirty)};
    }

    /**
     * Marks the line as written: sets B, promotes CS to OwnedExclusive.
     * @p line must be a live line returned by Lookup()/Fill().
     */
    static void MarkWritten(LineRef line) { line.MarkWritten(); }

    /**
     * Flushes every block of the page containing @p addr with the
     * *tag-checked* flush (the improved operation the paper assumes for
     * its comparisons): slots whose line belongs to another page are left
     * alone.
     */
    FlushResult FlushPageChecked(GlobalAddr addr) override;

    /**
     * Flushes the page with SPUR's real *indexed* flush, which clears the
     * 128 slots the page maps to regardless of tag, evicting innocent
     * blocks from other pages (counted in foreign_flushed).
     */
    FlushResult FlushPageIndexed(GlobalAddr addr);

    /** Number of lines. */
    uint64_t NumLines() const { return tags_.size(); }

    /** Snapshot of the slot at @p index (tests, audit passes, the page
     *  daemon's flush path). */
    Line LineAt(uint64_t index) const
    {
        return meta::Unpack(tags_[index], meta_[index]);
    }

    /** Mutable ref to the slot at @p index (tests and the snoop bus). */
    LineRef SlotAt(uint64_t index)
    {
        return LineRef(&tags_[index], &meta_[index]);
    }

    /** Cache index of @p addr. */
    uint64_t IndexOf(GlobalAddr addr) const
    {
        return (addr >> block_shift_) & index_mask_;
    }

    /** Tag of @p addr (bits above index + block offset). */
    uint64_t TagOf(GlobalAddr addr) const
    {
        return addr >> (block_shift_ + index_bits_);
    }

    /** Reconstructs the block base address of the line at @p index. */
    GlobalAddr BlockAddrOf(uint64_t index, uint64_t tag) const
    {
        return (tag << (block_shift_ + index_bits_)) |
               (index << block_shift_);
    }

    /** Convenience overload for snapshot-holding callers. */
    GlobalAddr BlockAddrOf(uint64_t index, const Line& line) const
    {
        return BlockAddrOf(index, line.tag);
    }

    /** Blocks per page (the number of slots a page flush touches). */
    uint32_t BlocksPerPage() const { return blocks_per_page_; }

    /** log2 of the block size (for callers computing block numbers). */
    unsigned BlockShift() const { return block_shift_; }

    /**
     * Raw SoA view for the batch hot loop.  The metadata store in the
     * write fast path is a byte store, which (char aliasing) would force
     * the compiler to re-load member pointers and geometry from `this`
     * on every loop iteration; callers copy this POD into locals once
     * instead.  The pointers stay valid and stable for the cache's
     * lifetime; Fill()/flush/invalidate mutate array *contents* only.
     */
    struct HotView {
        uint64_t* tags;       ///< tags_.data()
        uint8_t* meta;        ///< meta_.data()
        uint64_t index_mask;  ///< index = (addr >> block_shift) & mask
        unsigned block_shift;
        unsigned tag_shift;   ///< tag = addr >> tag_shift

        /** Same result as VirtualCache::Lookup on the owning cache. */
        LineRef Lookup(uint64_t index, uint64_t tag) const
        {
            return ((meta[index] & meta::kStateMask) != 0 &&
                    tags[index] == tag)
                       ? LineRef(&tags[index], &meta[index])
                       : LineRef();
        }
    };

    /** The hot-loop view (see HotView). */
    HotView hot_view()
    {
        return HotView{tags_.data(), meta_.data(), index_mask_,
                       block_shift_, block_shift_ + index_bits_};
    }

  private:
    unsigned block_shift_;
    unsigned index_bits_;
    uint64_t index_mask_;
    unsigned page_shift_;
    uint32_t blocks_per_page_;
    // Structure-of-arrays line storage: tags_[i] + meta_[i] together are
    // slot i.  Invariant: an invalid slot always has meta_[i] == 0 (its
    // tag is also zeroed on invalidation so snapshots equal Line{}).
    std::vector<uint64_t> tags_;
    std::vector<uint8_t> meta_;

    /** The metadata byte of a freshly filled line: UnOwned, clean, with
     *  the PTE's @p prot and @p page_dirty. */
    static uint8_t FillMeta(Protection prot, bool page_dirty)
    {
        return static_cast<uint8_t>(
            static_cast<uint8_t>(CoherencyState::kUnOwned) |
            ((static_cast<uint8_t>(prot) << meta::kProtShift) &
             meta::kProtMask) |
            (page_dirty ? meta::kPageDirtyBit : 0));
    }

    template <bool kTagChecked>
    FlushResult FlushPageImpl(GlobalAddr addr);
};

}  // namespace spur::cache

#endif  // SPUR_CACHE_CACHE_H_
