/**
 * @file
 * Tests for the snooping bus: the Berkeley Ownership state machine
 * across caches — supply-on-read, ownership transfer, invalidation on
 * write, and the upgrade path.
 */
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/cache/bus.h"
#include "src/cache/cache.h"
#include "src/sim/config.h"
#include "src/sim/events.h"

namespace spur::cache {
namespace {

class BusTest : public testing::Test
{
  protected:
    BusTest() : config_(sim::MachineConfig::Prototype(8)), bus_(events_)
    {
        for (int i = 0; i < 3; ++i) {
            caches_.push_back(std::make_unique<VirtualCache>(config_));
            bus_.Attach(caches_.back().get());
        }
    }

    /** Puts @p addr into cache @p port with @p state. */
    LineRef Install(unsigned port, GlobalAddr addr, CoherencyState state)
    {
        LineRef line = caches_[port]->Fill(addr, Protection::kReadWrite,
                                           false, nullptr);
        line.set_state(state);
        line.set_block_dirty(state == CoherencyState::kOwnedExclusive ||
                             state == CoherencyState::kOwnedShared);
        return line;
    }

    sim::MachineConfig config_;
    sim::EventCounts events_;
    std::vector<std::unique_ptr<VirtualCache>> caches_;
    SnoopBus bus_;
};

TEST_F(BusTest, ReadWithNoPeersComesFromMemory)
{
    const BusResult result = bus_.Read(0x1000, 0);
    EXPECT_FALSE(result.supplied_by_cache);
    EXPECT_EQ(result.invalidations, 0u);
    EXPECT_EQ(events_.Get(sim::Event::kBusRead), 1u);
}

TEST_F(BusTest, ReadIsSuppliedByOwnerWhoDropsToOwnedShared)
{
    Install(1, 0x1000, CoherencyState::kOwnedExclusive);
    const BusResult result = bus_.Read(0x1000, 0);
    EXPECT_TRUE(result.supplied_by_cache);
    EXPECT_EQ(result.invalidations, 0u);
    EXPECT_EQ(caches_[1]->Lookup(0x1000).state(),
              CoherencyState::kOwnedShared);
    EXPECT_EQ(events_.Get(sim::Event::kBusCacheToCache), 1u);
}

TEST_F(BusTest, ReadLeavesUnOwnedPeersAlone)
{
    Install(1, 0x1000, CoherencyState::kUnOwned);
    const BusResult result = bus_.Read(0x1000, 0);
    EXPECT_FALSE(result.supplied_by_cache);  // Memory supplies.
    EXPECT_EQ(caches_[1]->Lookup(0x1000).state(),
              CoherencyState::kUnOwned);
}

TEST_F(BusTest, ReadOwnedInvalidatesEveryCopy)
{
    Install(1, 0x1000, CoherencyState::kOwnedShared);
    Install(2, 0x1000, CoherencyState::kUnOwned);
    const BusResult result = bus_.ReadOwned(0x1000, 0);
    EXPECT_TRUE(result.supplied_by_cache);
    EXPECT_EQ(result.invalidations, 2u);
    EXPECT_FALSE(caches_[1]->Lookup(0x1000));
    EXPECT_FALSE(caches_[2]->Lookup(0x1000));
    EXPECT_EQ(events_.Get(sim::Event::kBusInvalidation), 2u);
}

TEST_F(BusTest, UpgradeInvalidatesSharersWithoutData)
{
    Install(1, 0x1000, CoherencyState::kUnOwned);
    Install(2, 0x1000, CoherencyState::kUnOwned);
    const BusResult result = bus_.Upgrade(0x1000, 0);
    EXPECT_FALSE(result.supplied_by_cache);
    EXPECT_EQ(result.invalidations, 2u);
    EXPECT_EQ(events_.Get(sim::Event::kBusUpgrade), 1u);
}

TEST_F(BusTest, UpgradeTransfersOwnershipFromDirtyPeer)
{
    // Requester holds UnOwned; a peer owns the dirty block: the upgrade
    // must pull the data across and invalidate the owner.
    Install(0, 0x1000, CoherencyState::kUnOwned);
    Install(1, 0x1000, CoherencyState::kOwnedShared);
    const BusResult result = bus_.Upgrade(0x1000, 0);
    EXPECT_TRUE(result.supplied_by_cache);
    EXPECT_EQ(result.invalidations, 1u);
    EXPECT_FALSE(caches_[1]->Lookup(0x1000));
}

TEST_F(BusTest, EvictionOfOwnedSharedLeavesPeersAndFallsBackToMemory)
{
    // Spec rule `evict` (src/model/spec.cc): displacing the owner
    // writes the dirty block back and leaves UnOwned peers untouched —
    // ownership is not handed over, so the next read is a memory
    // supply (rule `read-miss` with no owner on the bus).
    Install(1, 0x1000, CoherencyState::kOwnedShared);
    Install(2, 0x1000, CoherencyState::kUnOwned);

    // A conflicting fill one cache-size above displaces cache 1's copy.
    Eviction eviction;
    caches_[1]->Fill(0x1000 + config_.cache_bytes, Protection::kReadWrite,
                     false, &eviction);
    EXPECT_TRUE(eviction.writeback);  // The owner's copy was dirty.
    EXPECT_FALSE(caches_[1]->Lookup(0x1000));
    EXPECT_EQ(caches_[2]->Lookup(0x1000).state(),
              CoherencyState::kUnOwned);

    const BusResult result = bus_.Read(0x1000, 0);
    EXPECT_FALSE(result.supplied_by_cache);  // Memory, not cache 2.
    EXPECT_EQ(result.invalidations, 0u);
    EXPECT_EQ(caches_[2]->Lookup(0x1000).state(),
              CoherencyState::kUnOwned);
}

TEST_F(BusTest, WriteHitOnUnOwnedSharedCopyUpgradesAndInvalidatesPeers)
{
    // Spec rules `write-hit-fast`/`write-hit-refresh` (src/model/
    // spec.cc): a write hit on a non-exclusive copy issues Upgrade,
    // every peer copy dies, and MarkWritten leaves the writer
    // OwnedExclusive with B set.
    LineRef writer = caches_[0]->Fill(0x1000, Protection::kReadWrite,
                                      true, nullptr);
    Install(1, 0x1000, CoherencyState::kUnOwned);
    Install(2, 0x1000, CoherencyState::kUnOwned);
    ASSERT_EQ(writer.state(), CoherencyState::kUnOwned);

    const BusResult result = bus_.Upgrade(0x1000, 0);
    VirtualCache::MarkWritten(writer);

    EXPECT_EQ(result.invalidations, 2u);
    EXPECT_FALSE(caches_[1]->Lookup(0x1000));
    EXPECT_FALSE(caches_[2]->Lookup(0x1000));
    EXPECT_EQ(writer.state(), CoherencyState::kOwnedExclusive);
    EXPECT_TRUE(writer.block_dirty());
}

TEST_F(BusTest, TransactionsIgnoreOtherAddresses)
{
    Install(1, 0x2000, CoherencyState::kOwnedExclusive);
    const BusResult result = bus_.ReadOwned(0x1000, 0);
    EXPECT_EQ(result.invalidations, 0u);
    EXPECT_TRUE(caches_[1]->Lookup(0x2000));
}

TEST_F(BusTest, RequesterIsNeverSnooped)
{
    Install(0, 0x1000, CoherencyState::kOwnedExclusive);
    const BusResult result = bus_.Read(0x1000, 0);
    EXPECT_FALSE(result.supplied_by_cache);
    EXPECT_TRUE(caches_[0]->Lookup(0x1000));
}

TEST_F(BusTest, PortNumbering)
{
    EXPECT_EQ(bus_.NumPorts(), 3u);
    EXPECT_EQ(&bus_.CacheAt(1), caches_[1].get());
}

}  // namespace
}  // namespace spur::cache
