/**
 * @file
 * Tests for the segment map (synonym prevention) and the two-level page
 * table with its shift-and-concatenate PTE addressing.
 */
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "src/common/random.h"
#include "src/pt/page_table.h"
#include "src/pt/segment_map.h"

namespace spur::pt {
namespace {

/** 4 KB pages: one page of 4-byte PTEs maps kPtesPerPage of them. */
constexpr unsigned kPageShift = 12;

// ---------------------------------------------------------------------------
// SegmentMap
// ---------------------------------------------------------------------------

TEST(SegmentMapTest, ProcessesGetDistinctSegments)
{
    SegmentMap map;
    const Pid a = map.CreateProcess();
    const Pid b = map.CreateProcess();
    EXPECT_NE(a, b);
    for (unsigned reg = 0; reg < kSegmentsPerProcess; ++reg) {
        EXPECT_NE(map.SegmentOf(a, reg), map.SegmentOf(b, reg));
    }
    EXPECT_EQ(map.NumProcesses(), 2u);
}

TEST(SegmentMapTest, ToGlobalUsesTopTwoBits)
{
    SegmentMap map;
    const Pid pid = map.CreateProcess();
    const uint32_t seg0 = map.SegmentOf(pid, 0);
    const uint32_t seg3 = map.SegmentOf(pid, 3);

    const GlobalAddr g0 = map.ToGlobal(pid, 0x00001234);
    EXPECT_EQ(g0 >> kSegmentShift, seg0);
    EXPECT_EQ(g0 & (kSegmentBytes - 1), 0x1234u);

    const GlobalAddr g3 = map.ToGlobal(pid, 0xC0005678);
    EXPECT_EQ(g3 >> kSegmentShift, seg3);
    EXPECT_EQ(g3 & (kSegmentBytes - 1), 0x5678u);
}

TEST(SegmentMapTest, SharingGivesOneGlobalAddress)
{
    // The SPUR synonym-prevention property: two processes sharing memory
    // see the same *global* address for it.
    SegmentMap map;
    const Pid a = map.CreateProcess();
    const Pid b = map.CreateProcess();
    map.ShareSegment(b, 1, a, 1);
    const ProcessAddr addr = 0x40001000;  // Segment register 1.
    EXPECT_EQ(map.ToGlobal(a, addr), map.ToGlobal(b, addr));
    // Other segments stay private.
    EXPECT_NE(map.ToGlobal(a, 0x00001000), map.ToGlobal(b, 0x00001000));
}

TEST(SegmentMapTest, DestroyAndRecreate)
{
    SegmentMap map;
    const Pid a = map.CreateProcess();
    map.DestroyProcess(a);
    EXPECT_EQ(map.NumProcesses(), 0u);
    const Pid b = map.CreateProcess();
    EXPECT_EQ(map.NumProcesses(), 1u);
    // Segments are never recycled: the new process gets fresh ones.
    for (unsigned reg = 0; reg < kSegmentsPerProcess; ++reg) {
        EXPECT_NE(map.SegmentOf(b, reg), map.SegmentOf(a, reg));
    }
}

TEST(SegmentMapDeathTest, RejectsUnknownPid)
{
    SegmentMap map;
    EXPECT_EXIT(map.SegmentOf(5, 0), testing::ExitedWithCode(1),
                "unknown pid");
}

TEST(SegmentMapDeathTest, RejectsBadRegister)
{
    SegmentMap map;
    const Pid pid = map.CreateProcess();
    EXPECT_EXIT(map.SegmentOf(pid, 4), testing::ExitedWithCode(1),
                "register");
}

// ---------------------------------------------------------------------------
// PageTable
// ---------------------------------------------------------------------------

TEST(PageTableTest, FindBeforeEnsureIsNull)
{
    PageTable table;
    EXPECT_EQ(table.Find(123), nullptr);
    EXPECT_EQ(table.FindMutable(123), nullptr);
    EXPECT_EQ(table.NumTablePages(), 0u);
}

TEST(PageTableTest, EnsureCreatesAndFindSees)
{
    PageTable table;
    Pte& pte = table.Ensure(123);
    pte.set_valid(true);
    pte.set_pfn(77);
    const Pte* found = table.Find(123);
    ASSERT_NE(found, nullptr);
    EXPECT_TRUE(found->valid());
    EXPECT_EQ(found->pfn(), 77u);
    EXPECT_EQ(table.NumTablePages(), 1u);
}

TEST(PageTableTest, NeighboursShareATablePage)
{
    PageTable table;
    table.Ensure(0);
    table.Ensure(kPtesPerPage - 1);
    EXPECT_EQ(table.NumTablePages(), 1u);
    table.Ensure(kPtesPerPage);  // First PTE of the next table page.
    EXPECT_EQ(table.NumTablePages(), 2u);
}

TEST(PageTableTest, FindInExistingPageButUntouchedEntry)
{
    PageTable table;
    table.Ensure(10);
    // Entry 11 shares the table page: Find returns it, and it is invalid.
    const Pte* pte = table.Find(11);
    ASSERT_NE(pte, nullptr);
    EXPECT_FALSE(pte->valid());
}

TEST(PageTableTest, ShiftAndConcatenateAddressing)
{
    // The hardware computes PteVa = PteBase + vpn * 4.
    EXPECT_EQ(PageTable::PteVa(0), kPteBase);
    EXPECT_EQ(PageTable::PteVa(1), kPteBase + 4);
    EXPECT_EQ(PageTable::PteVa(1000), kPteBase + 4000);
    // Inverse.
    EXPECT_EQ(PageTable::VpnOfPteVa(PageTable::PteVa(123456)), 123456u);
    // PTE addresses are recognizable.
    EXPECT_TRUE(PageTable::IsPteAddr(kPteBase));
    EXPECT_FALSE(PageTable::IsPteAddr(0x1000));
}

TEST(PageTableTest, SecondLevelIndexGroupsByTablePage)
{
    EXPECT_EQ(PageTable::SecondLevelIndex(0), 0u);
    EXPECT_EQ(PageTable::SecondLevelIndex(kPtesPerPage - 1), 0u);
    EXPECT_EQ(PageTable::SecondLevelIndex(kPtesPerPage), 1u);
    EXPECT_EQ(PageTable::SecondLevelIndex(5 * kPtesPerPage + 3), 5u);
}

TEST(PageTableTest, PteSegmentIsAboveUserSegments)
{
    // A few thousand processes x 4 segments must never collide with the
    // PTE segment.
    SegmentMap map;
    uint32_t max_segment = 0;
    for (int i = 0; i < 1000; ++i) {
        const Pid pid = map.CreateProcess();
        for (unsigned reg = 0; reg < kSegmentsPerProcess; ++reg) {
            max_segment = std::max(max_segment, map.SegmentOf(pid, reg));
        }
    }
    EXPECT_LT(max_segment, kPteSegment);
}

TEST(PageTableTest, SameOffsetsAcrossSegmentsProbeInConstantTime)
{
    // WORKLOAD1's shape: every process lays out its four segments alike,
    // so table pages sit at the same in-segment offsets across many
    // segments and their second-level indices differ only in high bits.
    // A hash that reads the index's low bits piles them into one
    // linear-probe run; linear probing at the table's 50% load bound
    // expects 1.5 slots per successful probe.
    SegmentMap map;
    PageTable table;
    std::vector<GlobalVpn> vpns;
    for (int p = 0; p < 16; ++p) {
        const Pid pid = map.CreateProcess();
        for (unsigned reg = 0; reg < kSegmentsPerProcess; ++reg) {
            for (const ProcessAddr offset :
                 {0x00000000u, 0x00400000u, 0x00800000u, 0x3FC00000u}) {
                const ProcessAddr addr =
                    (static_cast<ProcessAddr>(reg) << kSegmentShift) |
                    offset;
                vpns.push_back(map.ToGlobal(pid, addr) >> kPageShift);
                table.Ensure(vpns.back());
            }
        }
    }
    ASSERT_EQ(table.NumTablePages(), vpns.size());  // 64 segments x 4.
    size_t total = 0;
    size_t longest = 0;
    for (const GlobalVpn vpn : vpns) {
        const size_t length = table.ProbeLength(vpn);
        total += length;
        longest = std::max(longest, length);
    }
    const double mean =
        static_cast<double>(total) / static_cast<double>(vpns.size());
    EXPECT_LT(mean, 2.0) << "longest probe " << longest;
}

TEST(PageTableTest, MatchesAnOrderedMapAcrossGrowth)
{
    // Differential test against std::map over seeded Ensure/Find/
    // FindMutable calls.  Enough distinct table pages are created to
    // cross several Grow() steps (64 -> 128 -> 256 -> 512 slots).
    Rng rng(17);
    PageTable table;
    std::map<GlobalVpn, Pte> written;    // PTEs the test has set.
    std::set<uint64_t> pages;            // Table pages created.
    const auto random_vpn = [&rng]() -> GlobalVpn {
        const uint64_t segment = 1 + rng.NextBelow(48);
        const uint64_t table_page = rng.NextBelow(12);
        return (segment << (kSegmentShift - kPageShift)) +
               table_page * kPtesPerPage + rng.NextBelow(kPtesPerPage);
    };
    const auto expected = [&](GlobalVpn vpn) -> Pte {
        const auto it = written.find(vpn);
        return it == written.end() ? Pte{} : it->second;
    };
    for (int op = 0; op < 20000; ++op) {
        const GlobalVpn vpn = random_vpn();
        const bool mapped =
            pages.count(PageTable::SecondLevelIndex(vpn)) != 0;
        const uint64_t dice = rng.NextBelow(3);
        if (dice == 0) {
            const Pte value(static_cast<uint32_t>(rng.Next()));
            table.Ensure(vpn) = value;
            written[vpn] = value;
            pages.insert(PageTable::SecondLevelIndex(vpn));
        } else if (dice == 1) {
            const Pte* pte = table.Find(vpn);
            ASSERT_EQ(pte != nullptr, mapped) << "op " << op;
            if (pte != nullptr) {
                ASSERT_EQ(*pte, expected(vpn)) << "op " << op;
            }
        } else {
            Pte* pte = table.FindMutable(vpn);
            ASSERT_EQ(pte != nullptr, mapped) << "op " << op;
            if (pte != nullptr) {
                ASSERT_EQ(*pte, expected(vpn)) << "op " << op;
                pte->set_referenced(true);
                written[vpn] = *pte;
            }
        }
        ASSERT_EQ(table.NumTablePages(), pages.size()) << "op " << op;
    }
    ASSERT_GT(pages.size(), 256u);  // Grew to 1024 slots.

    // ForEachPte visits every PTE of exactly the created pages, once.
    std::map<uint64_t, size_t> visits;
    table.ForEachPte([&](GlobalVpn vpn, const Pte& pte) {
        ++visits[PageTable::SecondLevelIndex(vpn)];
        EXPECT_EQ(pte, expected(vpn)) << "vpn " << vpn;
    });
    ASSERT_EQ(visits.size(), pages.size());
    for (const auto& [index, count] : visits) {
        EXPECT_EQ(pages.count(index), 1u) << "index " << index;
        EXPECT_EQ(count, kPtesPerPage) << "index " << index;
    }
}

TEST(PageTableTest, RecentPagesMatchAnOrderedMapAcrossGrowth)
{
    // The recent-page table in front of the probe holds kRecentEntries
    // pages; its entries are overwritten, never invalidated, so a stale
    // entry must never answer for another page.  Seeded Ensure/Find/
    // FindMutable calls interleave the same in-segment table pages
    // across 48 segments, a group of indices that all share one recent
    // entry, and pages that are only ever looked up, never created.
    // Every returned pointer must be the same PTE of the same table page
    // as at the page's creation, across every Grow() (64 -> 512 slots).
    Rng rng(29);
    PageTable table;
    std::vector<uint64_t> created;   // Indices Ensure may create.
    std::vector<uint64_t> missing;   // Indices never created.
    const uint64_t per_segment =
        (uint64_t{1} << (kSegmentShift - kPageShift)) / kPtesPerPage;
    for (uint64_t segment = 1; segment <= 48; ++segment) {
        for (const uint64_t page : {0u, 1u, 2u, 255u}) {
            (page == 2 ? missing : created)
                .push_back(segment * per_segment + page);
        }
    }
    const size_t shared = PageTable::RecentSlot(created[0]);
    std::vector<uint64_t> colliding;
    for (uint64_t index = 100 * per_segment; colliding.size() < 12;
         ++index) {
        if (PageTable::RecentSlot(index) == shared) {
            colliding.push_back(index);
        }
    }
    ASSERT_GT(created.size() + colliding.size(),
              PageTable::kRecentEntries);
    created.insert(created.end(), colliding.begin(), colliding.end() - 4);
    missing.insert(missing.end(), colliding.end() - 4, colliding.end());

    std::map<GlobalVpn, Pte> written;           // PTEs the test has set.
    std::map<uint64_t, const Pte*> first_pte;   // Page -> its PTE 0.
    const auto expected = [&written](GlobalVpn vpn) -> Pte {
        const auto it = written.find(vpn);
        return it == written.end() ? Pte{} : it->second;
    };
    const auto check = [&](const Pte* pte, GlobalVpn vpn) {
        const uint64_t index = PageTable::SecondLevelIndex(vpn);
        const auto it = first_pte.find(index);
        if (it == first_pte.end()) {
            EXPECT_EQ(pte, nullptr) << "vpn " << vpn;
            return;
        }
        ASSERT_EQ(pte, it->second + vpn % kPtesPerPage) << "vpn " << vpn;
        EXPECT_EQ(*pte, expected(vpn)) << "vpn " << vpn;
    };
    for (int op = 0; op < 40000; ++op) {
        const bool make = rng.NextBelow(8) != 0;
        const std::vector<uint64_t>& pool = make ? created : missing;
        const uint64_t index = pool[rng.NextBelow(pool.size())];
        const GlobalVpn vpn =
            index * kPtesPerPage + rng.NextBelow(kPtesPerPage);
        const size_t pages = table.NumTablePages();
        const uint64_t dice = rng.NextBelow(3);
        if (dice == 0 && make) {
            Pte& pte = table.Ensure(vpn);
            first_pte.emplace(index, &pte - vpn % kPtesPerPage);
            check(&pte, vpn);
            pte = Pte(static_cast<uint32_t>(rng.Next()));
            written[vpn] = pte;
        } else if (dice == 1) {
            check(table.Find(vpn), vpn);
            ASSERT_EQ(table.NumTablePages(), pages) << "op " << op;
        } else {
            Pte* pte = table.FindMutable(vpn);
            check(pte, vpn);
            ASSERT_EQ(table.NumTablePages(), pages) << "op " << op;
            if (pte != nullptr) {
                pte->set_referenced(true);
                written[vpn] = *pte;
            }
        }
        ASSERT_EQ(table.NumTablePages(), first_pte.size()) << "op " << op;
        if (::testing::Test::HasFatalFailure()) {
            return;
        }
    }
    ASSERT_EQ(first_pte.size(), created.size());  // 152 pages: 512 slots.
    for (const uint64_t index : missing) {
        EXPECT_EQ(table.Find(index * kPtesPerPage), nullptr);
    }
}

}  // namespace
}  // namespace spur::pt
