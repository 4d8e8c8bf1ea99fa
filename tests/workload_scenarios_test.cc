/**
 * @file
 * The scenario library (DESIGN.md §19): per-scenario determinism (same
 * seed, same trace bytes), plausibility bounds tying each scenario to
 * the VAC behaviour it was built to stress, a RealTreeIsClean-style
 * registration check that every scenario is wired into run_all.sh and
 * the bench matrix, and digests pinning every generated stream.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/framed_log.h"
#include "src/core/experiment.h"
#include "src/core/run_trace.h"
#include "src/core/system.h"
#include "src/workload/process.h"
#include "src/workload/trace.h"
#include "src/workload/workloads.h"

namespace spur {
namespace {

constexpr uint64_t kRefs = 2'000'000;
constexpr uint64_t kSeed = 9;

core::RunConfig
ConfigFor(core::WorkloadId id)
{
    core::RunConfig config;
    config.workload = id;
    config.refs = kRefs;
    config.seed = kSeed;
    return config;
}

/** Records @p id's op stream through the counts-only host. */
std::string
RecordStream(core::WorkloadId id)
{
    workload::CountingHost host(sim::MachineConfig::Prototype(8));
    return core::RecordLiveStream(ConfigFor(id), host).bytes;
}

/** A live SPUR run of @p id; returns the system's counters by value. */
struct LiveRun {
    sim::EventCounts events;
    uint64_t spawns = 0;
};

LiveRun
RunLive(core::WorkloadId id)
{
    const core::RunConfig config = ConfigFor(id);
    workload::WorkloadSpec spec = core::SpecFor(config);
    const uint32_t slice_refs = spec.slice_refs;
    core::SpurSystem system(sim::MachineConfig::Prototype(8),
                            policy::DirtyPolicyKind::kSpur,
                            policy::RefPolicyKind::kMiss);
    workload::Driver driver(system, std::move(spec), kRefs, kSeed,
                            slice_refs);
    driver.Run();
    return LiveRun{system.events(), driver.NumSpawns()};
}

TEST(ScenarioLibraryTest, EveryScenarioRecordsDeterministically)
{
    // Same seed, same bytes — the property --record-trace leans on.
    for (const core::WorkloadId id : core::kScenarioLibrary) {
        const std::string first = RecordStream(id);
        const std::string second = RecordStream(id);
        EXPECT_EQ(first, second) << core::ToString(id);

        // And the digest inside the E frame names the stream uniquely
        // per scenario (different scripts, different bytes).
        EXPECT_NE(first.find("\"digest\""), std::string::npos);
    }
}

TEST(ScenarioLibraryTest, ScenarioStreamsDifferAcrossScenarios)
{
    std::set<std::string> bytes;
    for (const core::WorkloadId id : core::kScenarioLibrary) {
        EXPECT_TRUE(bytes.insert(RecordStream(id)).second)
            << core::ToString(id) << " duplicates another scenario";
    }
}

TEST(ScenarioLibraryTest, CtxSwitchScenarioIsContextSwitchDominated)
{
    const LiveRun base = RunLive(core::WorkloadId::kWorkload1);
    const LiveRun ctx = RunLive(core::WorkloadId::kCtxSwitch);
    const uint64_t base_switches =
        base.events.Get(sim::Event::kContextSwitch);
    const uint64_t ctx_switches =
        ctx.events.Get(sim::Event::kContextSwitch);
    // The short quantum (WorkloadSpec::slice_refs) must put the switch
    // rate far above the paper's WORKLOAD1 at the same budget.
    EXPECT_GT(ctx_switches, 5 * base_switches);
}

TEST(ScenarioLibraryTest, FlushStormScenarioFlushesPagesInBursts)
{
    const LiveRun base = RunLive(core::WorkloadId::kWorkload1);
    const LiveRun storm = RunLive(core::WorkloadId::kFlushStorm);
    // Short-lived dirty writers exiting means page teardown — whole-
    // page flush operations — far beyond the steady CAD-developer load.
    EXPECT_GT(storm.events.Get(sim::Event::kPageFlush),
              3 * base.events.Get(sim::Event::kPageFlush));
}

TEST(ScenarioLibraryTest, ServerChurnScenarioChurnsAddressSpaces)
{
    const LiveRun base = RunLive(core::WorkloadId::kWorkload1);
    const LiveRun churn = RunLive(core::WorkloadId::kServerChurn);
    // Handler respawn is the steady state: more spawns than WORKLOAD1
    // and at least one full respawn wave past the initial job list.
    EXPECT_GT(churn.spawns, base.spawns);
    EXPECT_GE(churn.spawns, 16u);
    // Teardown of those address spaces shows up as page flushes too.
    EXPECT_GT(churn.events.Get(sim::Event::kPageFlush),
              3 * base.events.Get(sim::Event::kPageFlush));
}

TEST(ScenarioLibraryTest, GcSweepScenarioWalksAPagingScaleHeap)
{
    const LiveRun base = RunLive(core::WorkloadId::kWorkload1);
    const LiveRun gc = RunLive(core::WorkloadId::kGcSweep);
    // The heap exceeds memory: the linear sweep pages, and its write-
    // back of survivors pages out dirty — which WORKLOAD1 never does
    // at this budget.
    EXPECT_GT(gc.events.Get(sim::Event::kPageIn),
              2 * base.events.Get(sim::Event::kPageIn));
    EXPECT_GT(gc.events.Get(sim::Event::kPageOutDirty), 0u);
    // And the allocation front keeps producing zero-fill pages.
    EXPECT_GT(gc.events.Get(sim::Event::kZeroFill),
              base.events.Get(sim::Event::kZeroFill));
}

TEST(ScenarioLibraryTest, GcSweepTouchesALargeWorkingSet)
{
    // Count distinct (pid, page) pairs through a tracking host: the
    // GC image alone maps ~1700 heap pages and the sweep visits them.
    class PageTrackingHost : public workload::WorkloadHost
    {
      public:
        explicit PageTrackingHost(const sim::MachineConfig& config)
            : config_(config)
        {
        }
        Pid CreateProcess() override { return next_pid_++; }
        void DestroyProcess(Pid) override {}
        void MapRegion(Pid, ProcessAddr, uint64_t, vm::PageKind) override
        {
        }
        void ShareSegment(Pid, unsigned, Pid, unsigned) override {}
        void Access(const MemRef& ref) override
        {
            if (pages_
                    .insert((static_cast<uint64_t>(ref.pid) << 32) |
                            (ref.addr / config_.page_bytes))
                    .second) {
                ++per_pid_[ref.pid];
            }
        }
        void OnContextSwitch() override {}
        const sim::MachineConfig& config() const override
        {
            return config_;
        }
        /** Distinct pages of the single widest process. */
        size_t widest_working_set() const
        {
            size_t widest = 0;
            for (const auto& [pid, pages] : per_pid_) {
                widest = std::max(widest, pages);
            }
            return widest;
        }

      private:
        sim::MachineConfig config_;
        Pid next_pid_ = 1;
        std::set<uint64_t> pages_;
        std::map<Pid, size_t> per_pid_;
    };

    const auto distinct = [](core::WorkloadId id) {
        const core::RunConfig config = ConfigFor(id);
        workload::WorkloadSpec spec = core::SpecFor(config);
        const uint32_t slice_refs = spec.slice_refs;
        PageTrackingHost host(sim::MachineConfig::Prototype(8));
        workload::Driver driver(host, std::move(spec), kRefs, kSeed,
                                slice_refs);
        driver.Run();
        return host.widest_working_set();
    };
    const size_t gc_pages = distinct(core::WorkloadId::kGcSweep);
    const size_t ctx_pages = distinct(core::WorkloadId::kCtxSwitch);
    // The 8 MB machine holds 2048 frames; the GC image's working set
    // must be paging-scale (well past half of memory) while the
    // interactive mix is built from small processes.
    EXPECT_GT(gc_pages, size_t{1200});
    EXPECT_GT(gc_pages, 4 * ctx_pages);
}

// ---- Stream goldens -------------------------------------------------------
//
// The generator is pure (seed in, references out), so every byte of a
// generated stream is pinned here: a change that moves any RNG draw,
// reference or fall-through shows up as a digest mismatch.  Only a
// deliberate generator change may re-pin these values.

/** The FNV-1a64 digest in @p framed's E frame. */
std::string
EndFrameDigest(const std::string& framed)
{
    const std::string key = "\"digest\": \"";
    const size_t at = framed.rfind(key);
    if (at == std::string::npos) {
        return "";
    }
    const size_t begin = at + key.size();
    return framed.substr(begin, framed.find('"', begin) - begin);
}

TEST(GeneratedStreamGoldenTest, EveryWorkloadStreamIsPinned)
{
    const std::map<core::WorkloadId, std::string> expected = {
        {core::WorkloadId::kWorkload1, "82cdf9629535dfcc"},
        {core::WorkloadId::kSlc, "17a84d5d54b746c7"},
        {core::WorkloadId::kDevMachine, "dd098f9879cbd37d"},
        {core::WorkloadId::kCtxSwitch, "19e19a1ac6cfb931"},
        {core::WorkloadId::kFlushStorm, "afcfac46a23198bf"},
        {core::WorkloadId::kServerChurn, "d90cf4733bbdd1a6"},
        {core::WorkloadId::kGcSweep, "fac613b310df9114"},
    };
    for (const core::WorkloadId id : core::kAllWorkloads) {
        ASSERT_EQ(expected.count(id), 1u) << core::ToString(id);
        EXPECT_EQ(EndFrameDigest(RecordStream(id)), expected.at(id))
            << core::ToString(id);
    }
}

/** FNV-1a64 over each reference's pid, address (little-endian) and
 *  type byte. */
uint64_t
MixRefs(uint64_t digest, const MemRef* refs, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        char bytes[9];
        for (int b = 0; b < 4; ++b) {
            bytes[b] = static_cast<char>(refs[i].pid >> (8 * b));
            bytes[4 + b] = static_cast<char>(refs[i].addr >> (8 * b));
        }
        bytes[8] = static_cast<char>(refs[i].type);
        digest = framed_log::DigestBytes(digest, std::string_view(bytes, 9));
    }
    return digest;
}

constexpr uint64_t kEdgeRefs = 200'000;
constexpr uint64_t kEdgeSeed = 7;

/** Digest of the first kEdgeRefs references of one process, drawn in
 *  batches of an odd size so batch ends fall at varied generator
 *  states. */
std::string
EdgeDigest(const workload::ProcessProfile& profile)
{
    workload::CountingHost host(sim::MachineConfig::Prototype(8));
    workload::SyntheticProcess process(host, profile, kEdgeSeed);
    std::vector<MemRef> batch(1000);
    uint64_t digest = framed_log::kDigestInit;
    uint64_t total = 0;
    while (total < kEdgeRefs) {
        const size_t n = process.NextBatch(
            batch.data(),
            static_cast<size_t>(std::min<uint64_t>(batch.size(),
                                                   kEdgeRefs - total)));
        if (n == 0) {
            break;
        }
        digest = MixRefs(digest, batch.data(), n);
        total += n;
    }
    return framed_log::DigestHex(digest);
}

/** The edge profiles: each one drives a fall-through or boundary of
 *  the generator that the shipped workloads may never reach. */
std::vector<std::pair<std::string, workload::ProcessProfile>>
EdgeProfiles()
{
    using workload::ProcessProfile;
    std::vector<std::pair<std::string, ProcessProfile>> out;
    const auto add = [&out](std::string name, auto edit) {
        ProcessProfile profile;
        edit(profile);
        out.emplace_back(std::move(name), profile);
    };
    add("default", [](ProcessProfile&) {});
    add("no-data", [](ProcessProfile& p) { p.data_pages = 0; });
    add("no-heap", [](ProcessProfile& p) { p.heap_pages = 0; });
    add("no-data-no-heap", [](ProcessProfile& p) {
        p.data_pages = 0;
        p.heap_pages = 0;
    });
    add("no-stack", [](ProcessProfile& p) { p.stack_pages = 0; });
    add("one-stack-page", [](ProcessProfile& p) { p.stack_pages = 1; });
    add("one-code-ws-page", [](ProcessProfile& p) { p.code_ws_pages = 1; });
    add("no-ifetch", [](ProcessProfile& p) { p.frac_ifetch = 0; });
    add("all-ifetch", [](ProcessProfile& p) { p.frac_ifetch = 1; });
    add("never-slide", [](ProcessProfile& p) { p.ws_slide_prob = 0; });
    add("always-slide", [](ProcessProfile& p) { p.ws_slide_prob = 1; });
    add("file-writer", [](ProcessProfile& p) { p.w_file_write = 1.0; });
    const auto only = [&add](std::string name, double ProcessProfile::*w) {
        add(std::move(name), [w](ProcessProfile& p) {
            p.w_seq_read = p.w_seq_write = p.w_rmw = p.w_scan_update =
                p.w_rand = p.w_file_write = 0.0;
            p.*w = 1.0;
        });
    };
    only("only-seq-read", &ProcessProfile::w_seq_read);
    only("only-seq-write", &ProcessProfile::w_seq_write);
    only("only-rmw", &ProcessProfile::w_rmw);
    only("only-scan-update", &ProcessProfile::w_scan_update);
    only("only-rand", &ProcessProfile::w_rand);
    only("only-file-write", &ProcessProfile::w_file_write);
    add("scan-after-alloc", [](ProcessProfile& p) {
        p.w_seq_read = p.w_rmw = p.w_rand = 0.0;
    });
    add("small-file-writer", [](ProcessProfile& p) {
        p.data_pages = 3;
        p.w_file_write = 1.0;
    });
    // One code page and no far jumps: every loop falls through until it
    // wraps to text offset 0, the loop_base_ == 0 sentinel (DESIGN.md §6).
    add("wrap-sentinel", [](ProcessProfile& p) {
        p.code_pages = 1;
        p.call_prob = 0.0;
    });
    add("skew-clamped", [](ProcessProfile& p) { p.zipf_skew = 0.99; });
    add("skew-low", [](ProcessProfile& p) { p.zipf_skew = 0.5; });
    return out;
}

TEST(GeneratedStreamGoldenTest, EdgeProfileStreamsArePinned)
{
    // only-scan-update equals only-rand: with no allocation front, a
    // scan has no allocated page to walk and falls back to GenRand.
    const std::map<std::string, std::string> expected = {
        {"default", "094ea1874f9e1d5f"},
        {"no-data", "5b6880391639e90c"},
        {"no-heap", "9ccccfd7dca7d67e"},
        {"no-data-no-heap", "979c03cc8244f5d3"},
        {"no-stack", "f2f40fe8b45641ab"},
        {"one-stack-page", "c85edea010241e31"},
        {"one-code-ws-page", "8a0cb7afb499de50"},
        {"no-ifetch", "4bd6d5cf45f2563e"},
        {"all-ifetch", "021fa5b57cf4241d"},
        {"never-slide", "04b4dc58cc3b9264"},
        {"always-slide", "283e04541f8f6523"},
        {"file-writer", "8f225fcfb75caa28"},
        {"only-seq-read", "a9c6f05281ecc64a"},
        {"only-seq-write", "b81e3965bbc6d014"},
        {"only-rmw", "46de1148424fc289"},
        {"only-scan-update", "6c9f02b411ebe3f2"},
        {"only-rand", "6c9f02b411ebe3f2"},
        {"only-file-write", "63b49a28ebbb34be"},
        {"wrap-sentinel", "87eb671ed7fcc250"},
        {"skew-clamped", "2cf3b69821059a9a"},
        {"skew-low", "6d6945ee71c69541"},
        {"scan-after-alloc", "19147b836ee5f1cc"},
        {"small-file-writer", "589d0c5692e5bb74"},
    };
    for (const auto& [name, profile] : EdgeProfiles()) {
        const auto it = expected.find(name);
        ASSERT_NE(it, expected.end()) << name;
        EXPECT_EQ(EdgeDigest(profile), it->second) << name;
    }
}

TEST(GeneratedStreamGoldenTest, LifetimeEndsMidBatch)
{
    workload::ProcessProfile profile;
    profile.lifetime_refs = 123'457;
    workload::CountingHost host(sim::MachineConfig::Prototype(8));
    workload::SyntheticProcess process(host, profile, kEdgeSeed);
    std::vector<MemRef> batch(1000);
    uint64_t digest = framed_log::kDigestInit;
    std::vector<size_t> sizes;
    while (const size_t n = process.NextBatch(batch.data(), batch.size())) {
        digest = MixRefs(digest, batch.data(), n);
        sizes.push_back(n);
    }
    ASSERT_EQ(sizes.size(), 124u);
    EXPECT_EQ(sizes.back(), 457u);  // The short final batch.
    EXPECT_TRUE(process.Done());
    EXPECT_EQ(process.refs_issued(), profile.lifetime_refs);
    EXPECT_EQ(framed_log::DigestHex(digest), "a0d6a15fab778b0a");
}

TEST(GeneratedStreamGoldenTest, NextMatchesNextBatch)
{
    // Next() is the one-reference form of the same generator.
    for (const auto& [name, profile] : EdgeProfiles()) {
        workload::CountingHost host_a(sim::MachineConfig::Prototype(8));
        workload::CountingHost host_b(sim::MachineConfig::Prototype(8));
        workload::SyntheticProcess a(host_a, profile, kEdgeSeed);
        workload::SyntheticProcess b(host_b, profile, kEdgeSeed);
        std::vector<MemRef> batch(777);
        for (int round = 0; round < 20; ++round) {
            ASSERT_EQ(b.NextBatch(batch.data(), batch.size()), batch.size());
            for (const MemRef& want : batch) {
                const MemRef got = a.Next();
                ASSERT_EQ(got.pid, want.pid) << name;
                ASSERT_EQ(got.addr, want.addr) << name;
                ASSERT_EQ(got.type, want.type) << name;
            }
        }
    }
}

// ---- Registration (RealTreeIsClean-style) -----------------------------

std::string
ReadSource(const std::string& relative)
{
    const std::string path =
        std::string(SPUR_SOURCE_ROOT) + "/" + relative;
    std::ifstream in(path);
    EXPECT_TRUE(in.is_open()) << path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

TEST(ScenarioLibraryTest, EveryScenarioIsRegisteredEverywhere)
{
    const std::string run_all = ReadSource("bench/run_all.sh");
    const std::vector<std::string> benches = {
        "bench/ablation_policy_variants.cc",
        "bench/table_3_4_dirty_overhead.cc",
        "bench/table_3_5_pageout.cc",
    };
    // run_all.sh names every scenario and passes --scenarios through.
    for (const core::WorkloadId id : core::kScenarioLibrary) {
        EXPECT_NE(run_all.find(core::ToString(id)), std::string::npos)
            << "bench/run_all.sh does not mention "
            << core::ToString(id);
    }
    EXPECT_NE(run_all.find("--scenarios"), std::string::npos);

    // Each scenario bench iterates the library (not a hand list that
    // could silently miss a new scenario) and takes the flag.
    for (const std::string& bench : benches) {
        const std::string source = ReadSource(bench);
        EXPECT_NE(source.find("kScenarioLibrary"), std::string::npos)
            << bench << " does not iterate core::kScenarioLibrary";
        EXPECT_NE(source.find("scenarios"), std::string::npos) << bench;
        EXPECT_NE(run_all.find(bench.substr(std::string("bench/").size(),
                                            bench.size() - 9)),
                  std::string::npos)
            << bench << " missing from run_all.sh SCENARIO_BENCHES";
    }
}

}  // namespace
}  // namespace spur
