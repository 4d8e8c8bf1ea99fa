/**
 * @file
 * Tests for the protocol model checker (src/model/, DESIGN.md §16).
 *
 * Three layers:
 *   (a) the spec machinery itself — rule selection, stimulus
 *       enumeration, canonicalization, trace formatting, and each
 *       M1..M10 invariant firing on a hand-corrupted state;
 *   (b) exhaustive exploration of every (dirty, ref) policy pair at
 *       one and two processors, with the policy-discriminating
 *       reachability facts (FLUSH never excess-faults; every other
 *       policy's write-hit-refresh is reachable);
 *   (c) differential conformance of the real SpurSystem batch path and
 *       MpSpurSystem against the spec (the deeper procs=3 sweep is two
 *       ctest entries of its own, see tests/CMakeLists.txt).
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/model/conform.h"
#include "src/model/explore.h"
#include "src/model/invariants.h"
#include "src/model/spec.h"

namespace spur::model {
namespace {

using cache::CoherencyState;
using policy::DirtyPolicyKind;
using policy::RefPolicyKind;

const std::vector<DirtyPolicyKind> kAllDirty = {
    DirtyPolicyKind::kMin,      DirtyPolicyKind::kFault,
    DirtyPolicyKind::kFlush,    DirtyPolicyKind::kSpur,
    DirtyPolicyKind::kWrite,    DirtyPolicyKind::kSpurProt,
    DirtyPolicyKind::kWriteHw};
const std::vector<RefPolicyKind> kAllRef = {
    RefPolicyKind::kMiss, RefPolicyKind::kRef, RefPolicyKind::kNoRef};

/** A healthy baseline: resident dirty page, one exclusive dirty copy. */
ProtoState
HealthyState(unsigned procs)
{
    ProtoState state;
    state.procs = procs;
    state.pte = PteState{true, Protection::kReadWrite, true, false, true,
                         false};
    state.line[0][0] = LineState{CoherencyState::kOwnedExclusive,
                                 Protection::kReadWrite, true, true};
    return state;
}

bool
Fires(const std::vector<InvariantViolation>& violations, const char* id)
{
    for (const InvariantViolation& violation : violations) {
        if (std::string(violation.id) == id) {
            return true;
        }
    }
    return false;
}

// ---------------------------------------------------------------------------
// (a) Spec machinery.
// ---------------------------------------------------------------------------

TEST(SpecTest, InitialStateIsColdAndNonResident)
{
    const ModelConfig config{2, DirtyPolicyKind::kSpur, RefPolicyKind::kMiss};
    const ProtoState state = InitialState(config);
    EXPECT_EQ(state.procs, 2u);
    EXPECT_FALSE(state.pte.resident);
    for (unsigned i = 0; i < state.procs; ++i) {
        for (unsigned b = 0; b < kTrackedBlocks; ++b) {
            EXPECT_FALSE(state.line[i][b].valid());
        }
    }
    EXPECT_TRUE(CheckState(state, config).empty());
}

TEST(SpecTest, StimuliCoverEveryProcessorAndBlock)
{
    const ModelConfig config{2, DirtyPolicyKind::kSpur, RefPolicyKind::kMiss};
    // Cold machine: 3 access kinds × 2 cpus × 2 blocks, no kernel ops.
    EXPECT_EQ(EnumerateStimuli(InitialState(config)).size(),
              3u * 2u * kTrackedBlocks);
    // Resident page: the kernel's flush-page and clear-ref join in.
    EXPECT_EQ(EnumerateStimuli(HealthyState(2)).size(),
              3u * 2u * kTrackedBlocks + 2u);
}

TEST(SpecTest, WriteMissSelectedOnColdMachine)
{
    const ModelConfig config{1, DirtyPolicyKind::kSpur, RefPolicyKind::kMiss};
    SpecStepResult step;
    std::string error;
    ASSERT_TRUE(SpecStep(InitialState(config),
                         {StimulusKind::kWrite, 0, 0}, config, &step,
                         &error))
        << error;
    EXPECT_STREQ(step.rule->id, "write-miss");
    EXPECT_TRUE(step.next.pte.resident);
    EXPECT_TRUE(step.next.pte.dirty);
    EXPECT_FALSE(step.next.pte.zfod);  // The write consumed the ZFOD state.
    EXPECT_EQ(step.next.line[0][0].cs, CoherencyState::kOwnedExclusive);
    EXPECT_TRUE(step.next.line[0][0].block_dirty);
}

TEST(SpecTest, StaleCopyTakesDirtyBitMissNotFault)
{
    // SPUR: the page is already dirty but this block's cached P copy is
    // stale — the write must refresh it (dirty-bit miss), not re-fault.
    const ModelConfig config{1, DirtyPolicyKind::kSpur, RefPolicyKind::kMiss};
    ProtoState state = HealthyState(1);
    state.line[0][1] = LineState{CoherencyState::kUnOwned,
                                 Protection::kReadWrite, false, false};
    SpecStepResult step;
    std::string error;
    ASSERT_TRUE(SpecStep(state, {StimulusKind::kWrite, 0, 1}, config, &step,
                         &error))
        << error;
    EXPECT_STREQ(step.rule->id, "write-hit-refresh");
    EXPECT_TRUE(step.next.line[0][1].page_dirty);
}

TEST(SpecTest, FlushFirstWriteHitPurgesEveryCache)
{
    // FLUSH: the necessary fault flushes the page everywhere, then the
    // store re-executes as a write miss under the upgraded protection.
    const ModelConfig config{2, DirtyPolicyKind::kFlush,
                             RefPolicyKind::kMiss};
    ProtoState state;
    state.procs = 2;
    state.pte = PteState{true, Protection::kReadOnly, false, false, true,
                         true};
    state.line[0][0] = LineState{CoherencyState::kUnOwned,
                                 Protection::kReadOnly, false, false};
    state.line[1][1] = LineState{CoherencyState::kUnOwned,
                                 Protection::kReadOnly, false, false};
    SpecStepResult step;
    std::string error;
    ASSERT_TRUE(SpecStep(state, {StimulusKind::kWrite, 0, 0}, config, &step,
                         &error))
        << error;
    EXPECT_STREQ(step.rule->id, "write-hit-flush-fault");
    EXPECT_TRUE(step.next.pte.soft_dirty);
    EXPECT_EQ(step.next.pte.prot, Protection::kReadWrite);
    // The peer's copy of the *other* block is gone too — that is the
    // mechanism behind FLUSH's no-excess-fault guarantee.
    EXPECT_FALSE(step.next.line[1][1].valid());
    EXPECT_EQ(step.next.line[0][0].cs, CoherencyState::kOwnedExclusive);
}

TEST(SpecTest, CanonicalKeyQuotientsProcessorIdsOnly)
{
    ProtoState a = HealthyState(2);
    // Same configuration with the processors' roles swapped…
    ProtoState b;
    b.procs = 2;
    b.pte = a.pte;
    b.line[1][0] = a.line[0][0];
    EXPECT_EQ(CanonicalKey(a), CanonicalKey(b));
    // …but moving the copy to the other *block* is a different state:
    // tracked blocks are deliberately not symmetry-reduced.
    ProtoState c;
    c.procs = 2;
    c.pte = a.pte;
    c.line[0][1] = a.line[0][0];
    EXPECT_NE(CanonicalKey(a), CanonicalKey(c));
}

TEST(SpecTest, EveryRuleHasStableIdAndDescription)
{
    for (const Rule& rule : SpecRules()) {
        EXPECT_NE(rule.id, nullptr);
        EXPECT_NE(rule.description, nullptr);
        EXPECT_NE(rule.guard, nullptr);
        EXPECT_NE(rule.apply, nullptr);
    }
    EXPECT_EQ(SpecRules().size(), 13u);
}

// ---------------------------------------------------------------------------
// (a) Invariants: each fires on a hand-corrupted state.
// ---------------------------------------------------------------------------

TEST(InvariantTest, HealthyStateIsSilent)
{
    for (const DirtyPolicyKind dirty : kAllDirty) {
        ModelConfig config{2, dirty, RefPolicyKind::kMiss};
        ProtoState state = HealthyState(2);
        if (dirty == DirtyPolicyKind::kFault ||
            dirty == DirtyPolicyKind::kFlush ||
            dirty == DirtyPolicyKind::kSpurProt) {
            state.pte.soft_dirty = true;  // Emulation records SD, not D.
        }
        EXPECT_TRUE(CheckState(state, config).empty())
            << policy::ToString(dirty);
    }
}

TEST(InvariantTest, M1FiresOnTwoOwners)
{
    const ModelConfig config{2, DirtyPolicyKind::kSpur, RefPolicyKind::kMiss};
    ProtoState state = HealthyState(2);
    state.line[0][0].cs = CoherencyState::kOwnedShared;
    state.line[0][0].block_dirty = false;
    state.line[1][0] = state.line[0][0];
    EXPECT_TRUE(Fires(CheckState(state, config), "M1"));
}

TEST(InvariantTest, M2FiresOnExclusiveWithCompany)
{
    const ModelConfig config{2, DirtyPolicyKind::kSpur, RefPolicyKind::kMiss};
    ProtoState state = HealthyState(2);
    state.line[1][0] = LineState{CoherencyState::kUnOwned,
                                 Protection::kReadWrite, true, false};
    const auto violations = CheckState(state, config);
    EXPECT_TRUE(Fires(violations, "M2"));
    EXPECT_FALSE(Fires(violations, "M1"));  // Still only one owner.
}

TEST(InvariantTest, M3FiresOnDirtyBlockWithoutOwnership)
{
    const ModelConfig config{1, DirtyPolicyKind::kSpur, RefPolicyKind::kMiss};
    ProtoState state = HealthyState(1);
    state.line[0][0].cs = CoherencyState::kUnOwned;
    EXPECT_TRUE(Fires(CheckState(state, config), "M3"));
}

TEST(InvariantTest, M4FiresOnDirtyBlockWithCleanPte)
{
    const ModelConfig config{1, DirtyPolicyKind::kSpur, RefPolicyKind::kMiss};
    ProtoState state = HealthyState(1);
    state.pte.dirty = false;          // The lost-dirty-bit bug:
    state.line[0][0].page_dirty = false;  // (avoid tripping M5 as well)
    EXPECT_TRUE(Fires(CheckState(state, config), "M4"));
}

TEST(InvariantTest, M5FiresOnCachedPAheadOfPte)
{
    const ModelConfig config{1, DirtyPolicyKind::kMin, RefPolicyKind::kMiss};
    ProtoState state = HealthyState(1);
    state.pte.dirty = false;
    state.line[0][0].block_dirty = false;  // (avoid tripping M3/M4)
    EXPECT_TRUE(Fires(CheckState(state, config), "M5"));
}

TEST(InvariantTest, M6FiresOnProtectionDriftUnderEmulation)
{
    const ModelConfig config{1, DirtyPolicyKind::kFault,
                             RefPolicyKind::kMiss};
    ProtoState state = HealthyState(1);
    state.pte.dirty = false;
    state.pte.soft_dirty = false;  // RW protection with SD clear: drift.
    state.line[0][0] = LineState{};
    EXPECT_TRUE(Fires(CheckState(state, config), "M6"));
}

TEST(InvariantTest, M6FiresOnStaleReadOnlyCopyUnderFlush)
{
    const ModelConfig config{2, DirtyPolicyKind::kFlush,
                             RefPolicyKind::kMiss};
    ProtoState state;
    state.procs = 2;
    state.pte = PteState{true, Protection::kReadWrite, false, true, true,
                         false};
    // FLUSH promises this copy cannot exist (it would excess-fault):
    state.line[1][1] = LineState{CoherencyState::kUnOwned,
                                 Protection::kReadOnly, false, false};
    EXPECT_TRUE(Fires(CheckState(state, config), "M6"));
}

TEST(InvariantTest, M7FiresOnCachedBlocksOfUnreferencedPage)
{
    const ModelConfig config{1, DirtyPolicyKind::kSpur, RefPolicyKind::kRef};
    ProtoState state = HealthyState(1);
    state.pte.referenced = false;
    EXPECT_TRUE(Fires(CheckState(state, config), "M7"));
}

TEST(InvariantTest, M8FiresOnDenormalizedInvalidLine)
{
    const ModelConfig config{1, DirtyPolicyKind::kSpur, RefPolicyKind::kMiss};
    ProtoState state = HealthyState(1);
    state.line[0][1].prot = Protection::kReadWrite;  // Invalid yet nonzero.
    EXPECT_TRUE(Fires(CheckState(state, config), "M8"));
}

TEST(InvariantTest, M8FiresOnCachedCopyOfNonResidentPage)
{
    const ModelConfig config{1, DirtyPolicyKind::kSpur, RefPolicyKind::kMiss};
    ProtoState state = HealthyState(1);
    state.pte = PteState{};
    state.line[0][0].page_dirty = false;  // (isolate to M8: avoid M4/M5)
    state.line[0][0].block_dirty = false;
    EXPECT_TRUE(Fires(CheckState(state, config), "M8"));
}

TEST(InvariantTest, M9FiresWhenDirtyBitFalls)
{
    const ModelConfig config{1, DirtyPolicyKind::kSpur, RefPolicyKind::kMiss};
    const ProtoState before = HealthyState(1);
    ProtoState after = before;
    after.pte.dirty = false;
    after.line[0][0].page_dirty = false;
    after.line[0][0].block_dirty = false;
    EXPECT_TRUE(Fires(
        CheckTransition(before, {StimulusKind::kRead, 0, 0}, after, config),
        "M9"));
}

TEST(InvariantTest, M10FiresWhenRFallsOutsideClearRef)
{
    const ModelConfig config{1, DirtyPolicyKind::kSpur, RefPolicyKind::kMiss};
    const ProtoState before = HealthyState(1);
    ProtoState after = before;
    after.pte.referenced = false;
    EXPECT_TRUE(Fires(
        CheckTransition(before, {StimulusKind::kRead, 0, 0}, after, config),
        "M10"));
    // The same drop under clear-ref is legitimate.
    EXPECT_FALSE(Fires(CheckTransition(before, {StimulusKind::kClearRef, 0, 0},
                                       after, config),
                       "M10"));
}

// ---------------------------------------------------------------------------
// (b) Exploration.
// ---------------------------------------------------------------------------

TEST(ExploreTest, EveryPolicyPairExploresCleanAtOneAndTwoProcs)
{
    for (const unsigned procs : {1u, 2u}) {
        for (const DirtyPolicyKind dirty : kAllDirty) {
            for (const RefPolicyKind ref : kAllRef) {
                const ModelConfig config{procs, dirty, ref};
                const ExploreResult result = Explore(config);
                EXPECT_TRUE(result.ok)
                    << "procs=" << procs << " dirty="
                    << policy::ToString(dirty)
                    << " ref=" << policy::ToString(ref) << "\n"
                    << result.problem;
                EXPECT_GT(result.states.size(), 4u);
                EXPECT_GT(result.transitions, result.states.size());
            }
        }
    }
}

TEST(ExploreTest, StaleRefreshReachableEverywhereButFlush)
{
    // The paper's Table 3.1 economics hinge on these reachability facts:
    // every policy except FLUSH can meet a stale cached copy on a write
    // hit (MIN/SPUR dirty-bit miss, FAULT/SPUR-PROT excess fault, WRITE
    // PTE re-check), while FLUSH's purge-on-fault makes that state
    // unreachable — it trades flushes for a no-excess-fault guarantee.
    for (const DirtyPolicyKind dirty : kAllDirty) {
        const ModelConfig config{2, dirty, RefPolicyKind::kMiss};
        const ExploreResult result = Explore(config);
        ASSERT_TRUE(result.ok) << result.problem;
        const bool refresh_reachable =
            result.rule_fires.find("write-hit-refresh") !=
            result.rule_fires.end();
        EXPECT_EQ(refresh_reachable, dirty != DirtyPolicyKind::kFlush)
            << policy::ToString(dirty);
        const bool flush_fault_reachable =
            result.rule_fires.find("write-hit-flush-fault") !=
            result.rule_fires.end();
        EXPECT_EQ(flush_fault_reachable, dirty == DirtyPolicyKind::kFlush)
            << policy::ToString(dirty);
    }
}

TEST(ExploreTest, SymmetryReductionKeepsTwoProcStateSpaceSmall)
{
    const ModelConfig config{2, DirtyPolicyKind::kSpur, RefPolicyKind::kMiss};
    const ExploreResult result = Explore(config);
    ASSERT_TRUE(result.ok) << result.problem;
    // 229 canonical states at two processors (see DESIGN.md §16); the
    // exact count pins the spec — an unintended rule change moves it.
    EXPECT_EQ(result.states.size(), 229u);
    EXPECT_EQ(result.transitions, 3204u);
}

TEST(ExploreTest, TraceWalksBackToTheInitialState)
{
    const ModelConfig config{1, DirtyPolicyKind::kSpur, RefPolicyKind::kMiss};
    const ExploreResult result = Explore(config);
    ASSERT_TRUE(result.ok) << result.problem;
    ASSERT_GT(result.states.size(), 1u);

    const size_t last = result.states.size() - 1;
    const std::vector<Stimulus> trace = TraceTo(result, last);
    EXPECT_EQ(trace.size(), result.states[last].depth);

    // Replaying the stimulus trace through the spec lands on the state.
    ProtoState state = InitialState(config);
    for (const Stimulus& stimulus : trace) {
        SpecStepResult step;
        std::string error;
        ASSERT_TRUE(SpecStep(state, stimulus, config, &step, &error))
            << error;
        state = step.next;
    }
    EXPECT_TRUE(state == result.states[last].state);

    const std::string rendered = FormatTrace(result, last);
    EXPECT_NE(rendered.find("  0. "), std::string::npos);
    EXPECT_NE(rendered.find(" -->\n"), std::string::npos);
    EXPECT_NE(rendered.find("pte{"), std::string::npos);
}

// ---------------------------------------------------------------------------
// (c) Differential conformance against the real machine.
// ---------------------------------------------------------------------------

TEST(ConformTest, BatchHotPathMatchesSpecForEveryPolicyPair)
{
    for (const DirtyPolicyKind dirty : kAllDirty) {
        for (const RefPolicyKind ref : kAllRef) {
            const ModelConfig config{1, dirty, ref};
            const ConformResult result =
                Conform(config, Implementation::kUniprocessorBatch);
            EXPECT_TRUE(result.ok)
                << "dirty=" << policy::ToString(dirty)
                << " ref=" << policy::ToString(ref) << "\n"
                << result.problem;
            EXPECT_GT(result.pairs_checked, 0u);
        }
    }
}

TEST(ConformTest, MultiprocessorMatchesSpecAtTwoProcs)
{
    for (const DirtyPolicyKind dirty : kAllDirty) {
        for (const RefPolicyKind ref : kAllRef) {
            const ModelConfig config{2, dirty, ref};
            const ConformResult result =
                Conform(config, Implementation::kMultiprocessor);
            EXPECT_TRUE(result.ok)
                << "dirty=" << policy::ToString(dirty)
                << " ref=" << policy::ToString(ref) << "\n"
                << result.problem;
            EXPECT_GT(result.states_replayed, 0u);
        }
    }
}

TEST(ConformTest, DegenerateBusMatchesBatchPathStateForState)
{
    // procs=1 through the MpSpurSystem: the snoop bus with no peers must
    // agree with the spec (and hence with the uniprocessor batch path),
    // for every policy pair.
    for (const DirtyPolicyKind dirty : kAllDirty) {
        for (const RefPolicyKind ref : kAllRef) {
            const ModelConfig config{1, dirty, ref};
            const ConformResult result =
                Conform(config, Implementation::kMultiprocessor);
            EXPECT_TRUE(result.ok)
                << "dirty=" << policy::ToString(dirty)
                << " ref=" << policy::ToString(ref) << "\n"
                << result.problem;
            EXPECT_GT(result.states_replayed, 0u);
        }
    }
}

}  // namespace
}  // namespace spur::model
