/**
 * @file
 * Tests for the virtual-address cache: lookup/fill/eviction mechanics,
 * the Figure 3.2(b) tag fields, the two flush flavours (tag-checked vs.
 * SPUR's indexed flush), and parameterized property sweeps over cache
 * geometries.
 */
#include <gtest/gtest.h>

#include <tuple>

#include "src/cache/cache.h"
#include "src/common/random.h"
#include "src/sim/config.h"

namespace spur::cache {
namespace {

sim::MachineConfig
Config()
{
    return sim::MachineConfig::Prototype(8);
}

TEST(CacheTest, GeometryMatchesPrototype)
{
    VirtualCache vcache(Config());
    EXPECT_EQ(vcache.NumLines(), 4096u);
    EXPECT_EQ(vcache.BlocksPerPage(), 128u);
    EXPECT_EQ(vcache.NumValid(), 0u);
}

TEST(CacheTest, EveryLinePacksBelowSixtyFour)
{
    // The batch loop tests metadata bytes against 64-bit byte maps
    // (meta::Pattern::Bytes), which holds only while Pack leaves the
    // top two bits clear.
    for (const CoherencyState state :
         {CoherencyState::kInvalid, CoherencyState::kUnOwned,
          CoherencyState::kOwnedShared, CoherencyState::kOwnedExclusive}) {
        for (const Protection prot : {Protection::kNone,
                                      Protection::kReadOnly,
                                      Protection::kReadWrite}) {
            for (const bool page_dirty : {false, true}) {
                for (const bool block_dirty : {false, true}) {
                    Line line;
                    line.state = state;
                    line.prot = prot;
                    line.page_dirty = page_dirty;
                    line.block_dirty = block_dirty;
                    EXPECT_LT(meta::Pack(line), 1u << meta::kUsedBits);
                }
            }
        }
    }
    EXPECT_EQ(meta::kInvalid.Bytes() & 1, 1u);
    EXPECT_EQ(meta::kWritten.Bytes() & 1, 0u);
}

TEST(CacheTest, MissThenFillThenHit)
{
    VirtualCache vcache(Config());
    const GlobalAddr addr = 0xABCDE0;
    EXPECT_FALSE(vcache.Lookup(addr));
    LineRef line = vcache.Fill(addr, Protection::kReadOnly, false, nullptr);
    EXPECT_EQ(line.prot(), Protection::kReadOnly);
    EXPECT_FALSE(line.page_dirty());
    EXPECT_FALSE(line.block_dirty());
    EXPECT_EQ(line.state(), CoherencyState::kUnOwned);
    EXPECT_TRUE(vcache.Lookup(addr));
    EXPECT_EQ(vcache.Lookup(addr).tag(), line.tag());
    // Any address within the same block hits (the same slot).
    EXPECT_TRUE(vcache.Lookup(addr + 31));
    EXPECT_EQ(vcache.IndexOf(addr + 31), vcache.IndexOf(addr));
    // The next block does not.
    EXPECT_FALSE(vcache.Lookup(addr + 32));
}

TEST(CacheTest, DirectMappedConflictEvicts)
{
    const sim::MachineConfig config = Config();
    VirtualCache vcache(config);
    const GlobalAddr a = 0x1000;
    const GlobalAddr b = a + config.cache_bytes;  // Same index, other tag.
    vcache.Fill(a, Protection::kReadWrite, false, nullptr);
    Eviction eviction;
    vcache.Fill(b, Protection::kReadWrite, false, &eviction);
    EXPECT_TRUE(eviction.happened);
    EXPECT_FALSE(eviction.writeback);  // Victim was clean.
    EXPECT_EQ(eviction.block_addr, a);
    EXPECT_FALSE(vcache.Lookup(a));
    EXPECT_TRUE(vcache.Lookup(b));
}

TEST(CacheTest, DirtyVictimReportsWriteback)
{
    const sim::MachineConfig config = Config();
    VirtualCache vcache(config);
    const GlobalAddr a = 0x2000;
    LineRef line = vcache.Fill(a, Protection::kReadWrite, false, nullptr);
    VirtualCache::MarkWritten(line);
    EXPECT_TRUE(line.block_dirty());
    EXPECT_EQ(line.state(), CoherencyState::kOwnedExclusive);
    Eviction eviction;
    vcache.Fill(a + config.cache_bytes, Protection::kReadWrite, false,
                &eviction);
    EXPECT_TRUE(eviction.writeback);
    EXPECT_EQ(eviction.block_addr, a);
}

TEST(CacheTest, FillCopiesPteState)
{
    VirtualCache vcache(Config());
    LineRef line = vcache.Fill(0x3000, Protection::kReadWrite,
                               /*page_dirty=*/true, nullptr);
    EXPECT_EQ(line.prot(), Protection::kReadWrite);
    EXPECT_TRUE(line.page_dirty());
    EXPECT_FALSE(line.block_dirty());  // Block dirty is about *this* copy.
}

TEST(CacheTest, InvalidateBlock)
{
    VirtualCache vcache(Config());
    const GlobalAddr addr = 0x4000;
    vcache.Fill(addr, Protection::kReadWrite, false, nullptr);
    EXPECT_FALSE(vcache.InvalidateBlock(addr));  // Clean: no writeback.
    EXPECT_FALSE(vcache.Lookup(addr));

    LineRef again = vcache.Fill(addr, Protection::kReadWrite, false, nullptr);
    VirtualCache::MarkWritten(again);
    EXPECT_TRUE(vcache.InvalidateBlock(addr));  // Dirty: writeback.
    EXPECT_FALSE(vcache.InvalidateBlock(addr));  // Already gone.
}

TEST(CacheTest, BlockAddrOfReconstructsAddress)
{
    VirtualCache vcache(Config());
    const GlobalAddr addr = 0x123456789ull & ~GlobalAddr{31};
    vcache.Fill(addr, Protection::kReadWrite, false, nullptr);
    const uint64_t index = vcache.IndexOf(addr);
    EXPECT_EQ(vcache.BlockAddrOf(index, vcache.LineAt(index)), addr);
}

// ---------------------------------------------------------------------------
// Page flushes
// ---------------------------------------------------------------------------

TEST(CacheFlushTest, CheckedFlushRemovesOnlyThePage)
{
    const sim::MachineConfig config = Config();
    VirtualCache vcache(config);
    const GlobalAddr page = 16 * config.page_bytes;
    // Fill 10 blocks of the page and one conflicting foreign block.
    for (int i = 0; i < 10; ++i) {
        vcache.Fill(page + i * config.block_bytes, Protection::kReadWrite,
                    false, nullptr);
    }
    // A block from another page that maps into one of the same slots:
    // same index as page block 3, different tag.
    const GlobalAddr foreign =
        page + 3 * config.block_bytes + config.cache_bytes;
    vcache.Fill(foreign, Protection::kReadWrite, false, nullptr);

    const FlushResult result = vcache.FlushPageChecked(page);
    EXPECT_EQ(result.slots_examined, config.BlocksPerPage());
    EXPECT_EQ(result.blocks_flushed, 9u);  // Block 3 was already evicted.
    EXPECT_EQ(result.foreign_flushed, 0u);
    EXPECT_TRUE(vcache.Lookup(foreign));  // Untouched.
    for (int i = 0; i < 10; ++i) {
        EXPECT_FALSE(vcache.Lookup(page + i * config.block_bytes));
    }
}

TEST(CacheFlushTest, IndexedFlushHitsInnocentBlocks)
{
    const sim::MachineConfig config = Config();
    VirtualCache vcache(config);
    const GlobalAddr page = 16 * config.page_bytes;
    const GlobalAddr foreign =
        page + 3 * config.block_bytes + config.cache_bytes;
    vcache.Fill(foreign, Protection::kReadWrite, false, nullptr);

    const FlushResult result = vcache.FlushPageIndexed(page);
    EXPECT_EQ(result.blocks_flushed, 1u);
    EXPECT_EQ(result.foreign_flushed, 1u);  // The innocent block died.
    EXPECT_FALSE(vcache.Lookup(foreign));
}

TEST(CacheFlushTest, FlushCountsWritebacks)
{
    const sim::MachineConfig config = Config();
    VirtualCache vcache(config);
    const GlobalAddr page = 8 * config.page_bytes;
    for (int i = 0; i < 4; ++i) {
        LineRef line = vcache.Fill(page + i * config.block_bytes,
                                   Protection::kReadWrite, false, nullptr);
        if (i % 2 == 0) {
            VirtualCache::MarkWritten(line);
        }
    }
    const FlushResult result = vcache.FlushPageChecked(page);
    EXPECT_EQ(result.blocks_flushed, 4u);
    EXPECT_EQ(result.writebacks, 2u);
}

TEST(CacheFlushTest, ResetInvalidatesEverything)
{
    const sim::MachineConfig config = Config();
    VirtualCache vcache(config);
    for (GlobalAddr a = 0; a < config.cache_bytes;
         a += config.block_bytes) {
        vcache.Fill(a, Protection::kReadWrite, true, nullptr);
    }
    EXPECT_EQ(vcache.NumValid(), vcache.NumLines());
    vcache.Reset();
    EXPECT_EQ(vcache.NumValid(), 0u);
}

TEST(CacheTest, CoherencyStateNames)
{
    EXPECT_STREQ(ToString(CoherencyState::kInvalid), "Invalid");
    EXPECT_STREQ(ToString(CoherencyState::kUnOwned), "UnOwned");
    EXPECT_STREQ(ToString(CoherencyState::kOwnedShared), "OwnedShared");
    EXPECT_STREQ(ToString(CoherencyState::kOwnedExclusive),
                 "OwnedExclusive");
}

// ---------------------------------------------------------------------------
// Parameterized geometry sweep: the cache invariants must hold for any
// (cache size, block size) combination, not just the prototype's.
// ---------------------------------------------------------------------------

class CacheGeometryTest
    : public testing::TestWithParam<std::tuple<uint64_t, uint64_t>>
{
  protected:
    sim::MachineConfig MakeConfig() const
    {
        sim::MachineConfig config = Config();
        config.cache_bytes = std::get<0>(GetParam());
        config.block_bytes = std::get<1>(GetParam());
        config.Validate();
        return config;
    }
};

TEST_P(CacheGeometryTest, RandomFillLookupConsistency)
{
    const sim::MachineConfig config = MakeConfig();
    VirtualCache vcache(config);
    Rng rng(99);
    // Property: after Fill(a), Lookup(a) hits and reconstructs a; filling
    // never corrupts an unrelated slot's reconstruction.
    for (int i = 0; i < 2000; ++i) {
        const GlobalAddr addr =
            rng.NextBelow(uint64_t{1} << 34) & ~(config.block_bytes - 1);
        vcache.Fill(addr, Protection::kReadWrite, false, nullptr);
        ASSERT_TRUE(vcache.Lookup(addr));
        const uint64_t index = vcache.IndexOf(addr);
        ASSERT_EQ(vcache.BlockAddrOf(index, vcache.LineAt(index)), addr);
    }
    EXPECT_LE(vcache.NumValid(), vcache.NumLines());
}

TEST_P(CacheGeometryTest, CheckedPageFlushNeverTouchesForeignBlocks)
{
    const sim::MachineConfig config = MakeConfig();
    VirtualCache vcache(config);
    Rng rng(7);
    for (int round = 0; round < 50; ++round) {
        // Fill a random mix of blocks from two pages.
        const GlobalAddr page_a =
            rng.NextBelow(1u << 16) * config.page_bytes;
        const GlobalAddr page_b =
            page_a + config.cache_bytes;  // Guaranteed index conflicts.
        for (int i = 0; i < 20; ++i) {
            const GlobalAddr offset =
                rng.NextBelow(config.page_bytes) &
                ~(config.block_bytes - 1);
            vcache.Fill((i % 2 ? page_a : page_b) + offset,
                        Protection::kReadWrite, false, nullptr);
        }
        const FlushResult result = vcache.FlushPageChecked(page_a);
        EXPECT_EQ(result.foreign_flushed, 0u);
        // Nothing from page A survives.
        for (GlobalAddr a = page_a; a < page_a + config.page_bytes;
             a += config.block_bytes) {
            EXPECT_FALSE(vcache.Lookup(a));
        }
    }
}

TEST_P(CacheGeometryTest, IndexedFlushExaminesBlocksPerPageSlots)
{
    const sim::MachineConfig config = MakeConfig();
    VirtualCache vcache(config);
    const FlushResult result = vcache.FlushPageIndexed(0);
    EXPECT_EQ(result.slots_examined, config.BlocksPerPage());
    EXPECT_EQ(result.blocks_flushed, 0u);  // Cache was empty.
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryTest,
    testing::Combine(testing::Values(32 * 1024, 128 * 1024, 512 * 1024),
                     testing::Values(16, 32, 64)),
    [](const testing::TestParamInfo<std::tuple<uint64_t, uint64_t>>& info) {
        return std::to_string(std::get<0>(info.param) / 1024) + "K_b" +
               std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace spur::cache
