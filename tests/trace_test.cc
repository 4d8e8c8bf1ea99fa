/**
 * @file
 * Tests for the SPUR-TRACE/1 substrate (src/workload/trace.h): format
 * round-trip through the file writer and library, host-independent
 * recording (pid normalization), truncation-vs-corruption recovery,
 * golden byte fixtures, and the determinism property that replaying a
 * recorded stream reproduces the recording system's cache statistics.
 *
 * Every test gets its own mkdtemp directory: testing::TempDir() alone
 * is shared across parallel ctest invocations of this binary, and the
 * old fixed file names collided.
 */
#include <gtest/gtest.h>

#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/cpu.h"
#include "src/common/framed_log.h"
#include "src/common/random.h"
#include "src/core/experiment.h"
#include "src/core/run_trace.h"
#include "src/core/system.h"
#include "src/workload/op_decoder.h"
#include "src/workload/replay_kernel.h"
#include "src/workload/trace.h"
#include "src/workload/window_masks.h"
#include "src/workload/workloads.h"

namespace spur::workload {
namespace {

/** A per-test unique directory (mkdtemp), removed on destruction. */
class ScopedTempDir
{
  public:
    ScopedTempDir()
    {
        std::string templ = testing::TempDir();
        if (templ.empty() || templ.back() != '/') {
            templ += '/';
        }
        templ += "spur_trace_XXXXXX";
        std::vector<char> buf(templ.begin(), templ.end());
        buf.push_back('\0');
        const char* made = mkdtemp(buf.data());
        EXPECT_NE(made, nullptr) << templ;
        dir_ = (made != nullptr) ? made : testing::TempDir();
    }

    ~ScopedTempDir()
    {
        for (const std::string& path : files_) {
            std::remove(path.c_str());
        }
        rmdir(dir_.c_str());
    }

    /** A path inside the directory, removed with it. */
    std::string Path(const std::string& name)
    {
        files_.push_back(dir_ + "/" + name);
        return files_.back();
    }

  private:
    std::string dir_;
    std::vector<std::string> files_;
};

std::string
ReadFile(const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    std::string bytes;
    if (f != nullptr) {
        char buf[4096];
        size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
            bytes.append(buf, n);
        }
        std::fclose(f);
    }
    return bytes;
}

void
WriteFile(const std::string& path, const std::string& bytes)
{
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
}

TraceStreamMeta
MetaFor(const std::string& workload, uint64_t seed, uint64_t refs)
{
    const sim::MachineConfig config = sim::MachineConfig::Prototype(8);
    TraceStreamMeta meta;
    meta.workload = workload;
    meta.seed = seed;
    meta.refs = refs;
    meta.page_bytes = config.page_bytes;
    meta.block_bytes = config.block_bytes;
    return meta;
}

struct Recorded {
    std::string framed;
    uint64_t refs_issued = 0;
    uint64_t ops = 0;
    uint64_t accesses = 0;
};

/** Records @p spec against @p host per the RunOnce recording recipe.
 *  core::RecordLiveStream takes a RunConfig; these tests record specs
 *  and identities (MetaFor) that no RunConfig names. */
Recorded
Record(const TraceStreamMeta& meta, WorkloadSpec spec, WorkloadHost& host)
{
    TraceEncoder encoder(meta);
    RecordingHost recorder(host, encoder);
    const uint32_t slice_refs = spec.slice_refs;
    Driver driver(recorder, std::move(spec), meta.refs, meta.seed,
                  slice_refs);
    driver.Run();
    recorder.StopRecording();
    Recorded r;
    r.refs_issued = driver.refs_issued();
    r.ops = encoder.ops();
    r.accesses = encoder.accesses();
    r.framed = encoder.Finish(r.refs_issued);
    return r;
}

TEST(TraceTest, RoundTripsThroughFileAndLibrary)
{
    ScopedTempDir tmp;
    const std::string path = tmp.Path("roundtrip.trc");
    const TraceStreamMeta meta = MetaFor("ctx-switch", 7, 120'000);
    CountingHost counting(sim::MachineConfig::Prototype(8));
    const Recorded rec = Record(meta, MakeCtxSwitchHeavy(), counting);

    TraceFileWriter writer;
    std::string error;
    ASSERT_TRUE(writer.Open(path, &error)) << error;
    ASSERT_TRUE(writer.AppendStream(rec.framed, &error)) << error;
    EXPECT_EQ(writer.streams(), 1u);
    ASSERT_TRUE(writer.Finish(&error)) << error;

    TraceLibrary library;
    ASSERT_TRUE(library.Load(path, &error)) << error;
    ASSERT_EQ(library.streams().size(), 1u);
    const TraceStream* stream = library.Find(meta.Identity());
    ASSERT_NE(stream, nullptr);
    EXPECT_EQ(stream->meta.Identity(), meta.Identity());
    EXPECT_EQ(stream->op_count, rec.ops);
    EXPECT_EQ(stream->accesses, rec.accesses);
    EXPECT_EQ(stream->refs_issued, rec.refs_issued);
    EXPECT_EQ(stream->framed, rec.framed);

    // Replay into a fresh counts-only host: same call counts.
    CountingHost replayed(sim::MachineConfig::Prototype(8));
    const ReplayStats stats = ReplayStream(*stream, replayed);
    EXPECT_EQ(stats.refs_issued, rec.refs_issued);
    EXPECT_EQ(stats.accesses, rec.accesses);
    EXPECT_EQ(replayed.accesses(), counting.accesses());
    EXPECT_EQ(replayed.context_switches(), counting.context_switches());
}

/** What replaying @p stream into a fresh 8 MB SPUR/MISS machine
 *  yields: its ReplayStats and every event count. */
struct Replayed {
    ReplayStats stats;
    std::vector<uint64_t> events;
};

Replayed
ReplayOnSpur(const TraceStream& stream)
{
    core::SpurSystem system(sim::MachineConfig::Prototype(8),
                            policy::DirtyPolicyKind::kSpur,
                            policy::RefPolicyKind::kMiss);
    Replayed r;
    r.stats = ReplayStream(stream, system);
    for (size_t i = 0; i < sim::kNumEvents; ++i) {
        r.events.push_back(system.events().Get(static_cast<sim::Event>(i)));
    }
    return r;
}

void
ExpectSameReplay(const Replayed& got, const Replayed& want)
{
    EXPECT_EQ(got.stats.refs_issued, want.stats.refs_issued);
    EXPECT_EQ(got.stats.accesses, want.stats.accesses);
    EXPECT_EQ(got.stats.context_switches, want.stats.context_switches);
    EXPECT_EQ(got.stats.processes, want.stats.processes);
    EXPECT_EQ(got.events, want.events);
}

TEST(TraceTest, StreamCopiesOutliveTheirSource)
{
    // A TraceStream views its file's shared buffer: a copy must keep
    // the bytes alive after the RecoveredTrace or TraceLibrary it came
    // from, and the bytes it was recovered from, die with their block.
    const TraceStreamMeta meta = MetaFor("ctx-switch", 4, 80'000);
    CountingHost host(sim::MachineConfig::Prototype(8));
    const Recorded rec = Record(meta, MakeCtxSwitchHeavy(), host);
    std::string error;

    std::optional<TraceStream> from_bytes;
    Replayed want;
    {
        const std::string bytes = EncodeTraceFile({rec.framed});
        const auto recovered = RecoverTraceBytes(bytes, &error);
        ASSERT_TRUE(recovered.has_value()) << error;
        ASSERT_EQ(recovered->streams.size(), 1u);
        want = ReplayOnSpur(recovered->streams[0]);
        from_bytes = recovered->streams[0];
    }
    EXPECT_EQ(from_bytes->framed, rec.framed);
    ExpectSameReplay(ReplayOnSpur(*from_bytes), want);

    std::optional<TraceStream> from_library;
    {
        ScopedTempDir tmp;
        const std::string path = tmp.Path("lifetime.trc");
        WriteFile(path, EncodeTraceFile({rec.framed}));
        TraceLibrary library;
        ASSERT_TRUE(library.Load(path, &error)) << error;
        const TraceStream* found = library.Find(meta.Identity());
        ASSERT_NE(found, nullptr);
        from_library = *found;
    }
    EXPECT_EQ(from_library->framed, rec.framed);
    ExpectSameReplay(ReplayOnSpur(*from_library), want);
    EXPECT_EQ(want.stats.accesses, rec.accesses);
    EXPECT_EQ(want.stats.refs_issued, rec.refs_issued);
}

TEST(TraceTest, LoadedStreamsViewOneFileBuffer)
{
    // Loading copies no stream: both streams' bytes lie in the one
    // buffer the file was read into, back to back as in the file.
    ScopedTempDir tmp;
    const std::string path = tmp.Path("zero_copy.trc");
    CountingHost host_a(sim::MachineConfig::Prototype(8));
    CountingHost host_b(sim::MachineConfig::Prototype(8));
    const Recorded a = Record(MetaFor("ctx-switch", 5, 40'000),
                              MakeCtxSwitchHeavy(), host_a);
    const Recorded b =
        Record(MetaFor("gc-sweep", 6, 40'000), MakeGcSweep(), host_b);
    const std::string file = EncodeTraceFile({a.framed, b.framed});
    WriteFile(path, file);

    TraceLibrary library;
    std::string error;
    ASSERT_TRUE(library.Load(path, &error)) << error;
    ASSERT_EQ(library.streams().size(), 2u);
    const TraceStream& first = library.streams()[0];
    const TraceStream& second = library.streams()[1];
    ASSERT_NE(first.file, nullptr);
    EXPECT_EQ(first.file, second.file);
    const std::string_view buffer(*first.file);
    EXPECT_EQ(buffer, file);
    for (const TraceStream* stream : {&first, &second}) {
        EXPECT_GE(stream->framed.data(), buffer.data());
        EXPECT_LE(stream->framed.data() + stream->framed.size(),
                  buffer.data() + buffer.size());
    }
    EXPECT_EQ(first.framed.data() + first.framed.size(),
              second.framed.data());
    EXPECT_EQ(first.framed, a.framed);
    EXPECT_EQ(second.framed, b.framed);
}

TEST(TraceTest, RecordingIsDeterministic)
{
    const TraceStreamMeta meta = MetaFor("flush-storm", 11, 100'000);
    CountingHost a(sim::MachineConfig::Prototype(8));
    CountingHost b(sim::MachineConfig::Prototype(8));
    const Recorded first = Record(meta, MakeFlushStorm(), a);
    const Recorded second = Record(meta, MakeFlushStorm(), b);
    EXPECT_EQ(first.framed, second.framed);
    EXPECT_EQ(first.refs_issued, second.refs_issued);
}

TEST(TraceTest, RecordingIsHostIndependent)
{
    // Pid normalization: the live machine and the counts-only host
    // assign pids differently, but the trace bytes must not see it —
    // for every workload, and on a live machine small enough to page.
    struct Case {
        core::WorkloadId workload;
        uint32_t memory_mb;
        uint64_t refs;
    };
    std::vector<Case> cases;
    for (const core::WorkloadId id : core::kAllWorkloads) {
        cases.push_back({id, 8, 60'000});
    }
    cases.push_back({core::WorkloadId::kGcSweep, 5, 1'500'000});
    for (const Case& c : cases) {
        const std::string label = std::string(core::ToString(c.workload)) +
                                  " at " + std::to_string(c.memory_mb) +
                                  " MB";
        core::RunConfig config;
        config.workload = c.workload;
        config.memory_mb = c.memory_mb;
        config.refs = c.refs;
        config.seed = 3;
        const sim::MachineConfig machine =
            sim::MachineConfig::Prototype(c.memory_mb);
        CountingHost counting(machine);
        const core::RecordedStream counted =
            core::RecordLiveStream(config, counting);
        core::SpurSystem live(machine, policy::DirtyPolicyKind::kSpur,
                              policy::RefPolicyKind::kMiss);
        const core::RecordedStream simulated =
            core::RecordLiveStream(config, live);
        EXPECT_TRUE(counted.bytes == simulated.bytes) << label;
        EXPECT_EQ(simulated.accesses, c.refs) << label;
        if (c.memory_mb < 8) {
            // The live machine paged out and back in while recording.
            EXPECT_GT(live.events().Get(sim::Event::kPageOutDirty), 0u)
                << label;
            EXPECT_GT(live.events().Get(sim::Event::kPageIn), 0u) << label;
        }
    }
}

TEST(TraceTest, EmptyTraceRoundTrips)
{
    ScopedTempDir tmp;
    const std::string path = tmp.Path("empty.trc");
    TraceFileWriter writer;
    std::string error;
    ASSERT_TRUE(writer.Open(path, &error)) << error;
    ASSERT_TRUE(writer.Finish(&error)) << error;
    EXPECT_EQ(ReadFile(path), EncodeTraceFile({}));

    TraceLibrary library;
    ASSERT_TRUE(library.Load(path, &error)) << error;
    EXPECT_TRUE(library.streams().empty());
}

TEST(TraceTest, ReplayReproducesRecordedRunStatistics)
{
    // Record a live run's op stream, then replay the trace on a fresh
    // identical machine: the cache statistics must match exactly (the
    // trace-driven methodology's repeatability).
    ScopedTempDir tmp;
    const std::string path = tmp.Path("replay.trc");
    const sim::MachineConfig config = sim::MachineConfig::Prototype(8);
    const TraceStreamMeta meta = MetaFor("flush-storm", 77, 200'000);

    uint64_t live_misses = 0;
    uint64_t live_dirty_faults = 0;
    uint64_t live_refs = 0;
    {
        core::SpurSystem live(config, policy::DirtyPolicyKind::kSpur,
                              policy::RefPolicyKind::kMiss);
        const Recorded rec = Record(meta, MakeFlushStorm(), live);
        live_misses = live.events().TotalMisses();
        live_dirty_faults = live.events().Get(sim::Event::kDirtyFault);
        live_refs = rec.refs_issued;
        TraceFileWriter writer;
        std::string error;
        ASSERT_TRUE(writer.Open(path, &error)) << error;
        ASSERT_TRUE(writer.AppendStream(rec.framed, &error)) << error;
        ASSERT_TRUE(writer.Finish(&error)) << error;
    }

    TraceLibrary library;
    std::string error;
    ASSERT_TRUE(library.Load(path, &error)) << error;
    ASSERT_EQ(library.streams().size(), 1u);
    core::SpurSystem replayed(config, policy::DirtyPolicyKind::kSpur,
                              policy::RefPolicyKind::kMiss);
    const ReplayStats stats = ReplayStream(library.streams()[0], replayed);
    EXPECT_EQ(stats.refs_issued, live_refs);
    EXPECT_EQ(replayed.events().TotalMisses(), live_misses);
    EXPECT_EQ(replayed.events().Get(sim::Event::kDirtyFault),
              live_dirty_faults);
}

TEST(TraceTest, ReplayUnderDifferentPolicyDiffers)
{
    // The point of traces: the same stream, a different policy.
    ScopedTempDir tmp;
    const std::string path = tmp.Path("policy.trc");
    const sim::MachineConfig config = sim::MachineConfig::Prototype(8);
    const TraceStreamMeta meta = MetaFor("flush-storm", 99, 150'000);
    {
        CountingHost counting(config);
        const Recorded rec = Record(meta, MakeFlushStorm(), counting);
        TraceFileWriter writer;
        std::string error;
        ASSERT_TRUE(writer.Open(path, &error)) << error;
        ASSERT_TRUE(writer.AppendStream(rec.framed, &error)) << error;
        ASSERT_TRUE(writer.Finish(&error)) << error;
    }
    TraceLibrary library;
    std::string error;
    ASSERT_TRUE(library.Load(path, &error)) << error;
    ASSERT_EQ(library.streams().size(), 1u);
    core::SpurSystem fault_system(config, policy::DirtyPolicyKind::kFault,
                                  policy::RefPolicyKind::kMiss);
    ReplayStream(library.streams()[0], fault_system);
    core::SpurSystem spur_system(config, policy::DirtyPolicyKind::kSpur,
                                 policy::RefPolicyKind::kMiss);
    ReplayStream(library.streams()[0], spur_system);
    // FAULT turns the dirty-bit misses into excess faults.
    EXPECT_GT(fault_system.events().Get(sim::Event::kExcessFault), 0u);
    EXPECT_EQ(spur_system.events().Get(sim::Event::kExcessFault), 0u);
    EXPECT_EQ(fault_system.events().Get(sim::Event::kExcessFault),
              spur_system.events().Get(sim::Event::kDirtyBitMiss));
}

TEST(TraceTest, TruncationRecoversCompletePrefix)
{
    const TraceStreamMeta meta_a = MetaFor("ctx-switch", 1, 60'000);
    const TraceStreamMeta meta_b = MetaFor("gc-sweep", 2, 60'000);
    CountingHost host_a(sim::MachineConfig::Prototype(8));
    CountingHost host_b(sim::MachineConfig::Prototype(8));
    const Recorded a = Record(meta_a, MakeCtxSwitchHeavy(), host_a);
    const Recorded b = Record(meta_b, MakeGcSweep(), host_b);
    const std::string file = EncodeTraceFile({a.framed, b.framed});

    // Cut mid-way through the second stream: the first one survives.
    const size_t first_end = file.find(a.framed) + a.framed.size();
    const size_t cut = first_end + b.framed.size() / 2;
    std::string error;
    const auto recovered =
        RecoverTraceBytes(file.substr(0, cut), &error);
    ASSERT_TRUE(recovered.has_value()) << error;
    EXPECT_FALSE(recovered->complete);
    ASSERT_EQ(recovered->streams.size(), 1u);
    EXPECT_EQ(recovered->streams[0].meta.Identity(), meta_a.Identity());
    EXPECT_GT(recovered->dropped_bytes, 0u);
    EXPECT_FALSE(recovered->note.empty());

    // Cut exactly after both streams (trailer torn off): both survive,
    // and re-encoding the recovered streams reproduces the whole file.
    const auto trailerless = RecoverTraceBytes(
        file.substr(0, first_end + b.framed.size()), &error);
    ASSERT_TRUE(trailerless.has_value()) << error;
    EXPECT_FALSE(trailerless->complete);
    ASSERT_EQ(trailerless->streams.size(), 2u);
    EXPECT_EQ(EncodeTraceFile({trailerless->streams[0].framed,
                               trailerless->streams[1].framed}),
              file);

    // A truncated file is not loadable — the library demands recovery.
    ScopedTempDir tmp;
    const std::string path = tmp.Path("truncated.trc");
    WriteFile(path, file.substr(0, cut));
    TraceLibrary library;
    EXPECT_FALSE(library.Load(path, &error));
    EXPECT_NE(error.find("spur_trace validate"), std::string::npos)
        << error;
}

TEST(TraceTest, CorruptionIsAHardError)
{
    const TraceStreamMeta meta = MetaFor("ctx-switch", 5, 60'000);
    CountingHost host(sim::MachineConfig::Prototype(8));
    const Recorded rec = Record(meta, MakeCtxSwitchHeavy(), host);
    std::string file = EncodeTraceFile({rec.framed});

    // Flip one op byte behind the length prefix: the stream digest no
    // longer agrees, which truncation can never explain.
    const size_t b_frame = file.find("\nB ");
    ASSERT_NE(b_frame, std::string::npos);
    const size_t payload = file.find('\n', b_frame + 1) + 1;
    file[payload + 10] = static_cast<char>(file[payload + 10] ^ 0x40);
    std::string error;
    EXPECT_FALSE(RecoverTraceBytes(file, &error).has_value());
    EXPECT_FALSE(error.empty());
}

// ---- Hand-built streams -------------------------------------------------

/**
 * A stream whose B frames carry @p payloads verbatim, with the E frame
 * claiming @p ops / @p accesses and the payloads' true op digest, so
 * only the payload contents decide how recovery classifies it.
 */
std::string
HandBuiltStream(const std::string& workload,
                const std::vector<std::string>& payloads, uint64_t ops,
                uint64_t accesses)
{
    // The S frame is the first frame of an empty encoded stream.
    TraceEncoder encoder(MetaFor(workload, 1, accesses));
    const std::string empty = encoder.Finish(accesses);
    framed_log::Frame meta_frame;
    std::string why;
    EXPECT_EQ(framed_log::ParseFrame(empty, 0, "S",
                                     framed_log::kMaxFilePayload,
                                     &meta_frame, &why),
              framed_log::ParseStatus::kOk)
        << why;
    std::string stream = empty.substr(0, meta_frame.end);
    uint64_t digest = framed_log::kDigestInit;
    for (const std::string& payload : payloads) {
        framed_log::AppendFrame(&stream, 'B', payload);
        digest = framed_log::DigestMix(digest, payload);
    }
    framed_log::AppendFrame(
        &stream, 'E',
        "{\"ops\": " + std::to_string(ops) +
            ", \"accesses\": " + std::to_string(accesses) +
            ", \"refs_issued\": " + std::to_string(accesses) +
            ", \"digest\": \"" + framed_log::DigestHex(digest) + "\"}");
    return stream;
}

// create 0, setpid 0, read +0x10, write +0x1000: four ops, two accesses.
// The write's address delta zigzags to 0x2000, a two-byte varint.
const std::string kCreate = std::string("\x00\x00", 2);
const std::string kSetPid = std::string("\x05\x00", 2);
const std::string kRead = "\x07\x20";
const std::string kWrite = "\x08\x80\x40";

TEST(TraceTest, OpsMustNotStraddleBFrames)
{
    // In one payload, the hand-built stream is what the encoder writes.
    const std::string ops = kCreate + kSetPid + kRead + kWrite;
    TraceEncoder encoder(MetaFor("straddle", 1, 2));
    encoder.OnCreateProcess(3);
    encoder.OnAccess(MemRef{3, 0x10, AccessType::kRead});
    encoder.OnAccess(MemRef{3, 0x1010, AccessType::kWrite});
    ASSERT_EQ(encoder.Finish(2), HandBuiltStream("straddle", {ops}, 4, 2));

    // Cut inside the write's varint, then between its opcode and its
    // varint: each op is whole only across the two payloads, so the
    // stream is corrupt even though every digest and count agrees.
    for (const size_t cut : {ops.size() - 1, ops.size() - 2}) {
        const std::string file = EncodeTraceFile({HandBuiltStream(
            "straddle", {ops.substr(0, cut), ops.substr(cut)}, 4, 2)});
        std::string error;
        EXPECT_FALSE(RecoverTraceBytes(file, &error).has_value())
            << "cut at " << cut;
        EXPECT_NE(error.find("bad access"), std::string::npos) << error;
    }

    // Split exactly at an op boundary: accepted, and replayed whole.
    const std::string file = EncodeTraceFile({HandBuiltStream(
        "boundary", {kCreate + kSetPid + kRead, kWrite}, 4, 2)});
    std::string error;
    const auto recovered = RecoverTraceBytes(file, &error);
    ASSERT_TRUE(recovered.has_value()) << error;
    EXPECT_TRUE(recovered->complete);
    ASSERT_EQ(recovered->streams.size(), 1u);
    CountingHost host(sim::MachineConfig::Prototype(8));
    EXPECT_EQ(ReplayStream(recovered->streams[0], host).accesses, 2u);
    EXPECT_EQ(host.accesses(), 2u);
}

TEST(TraceTest, MalformedOpIsCorruptUnlessTruncatedBeforeItsEnd)
{
    const std::string good =
        HandBuiltStream("good", {kCreate + kSetPid + kRead}, 3, 1);
    // create 0, then opcode 9, which does not exist.
    const std::string bad = HandBuiltStream("bad", {kCreate + "\x09"}, 2, 0);
    const std::string file = EncodeTraceFile({good, bad});

    // Whole, with its E frame and both digests valid: corrupt.
    std::string error;
    EXPECT_FALSE(RecoverTraceBytes(file, &error).has_value());
    EXPECT_NE(error.find("unknown opcode"), std::string::npos) << error;

    // A wrong op digest is reported first, as before the decode.
    std::string tampered = file;
    const size_t trailer = tampered.find("\nT ");
    const size_t hex = tampered.rfind("\"digest\": \"", trailer) + 11;
    tampered[hex] = (tampered[hex] == '0') ? '1' : '0';
    EXPECT_FALSE(RecoverTraceBytes(tampered, &error).has_value());
    EXPECT_NE(error.find("op digest mismatch"), std::string::npos)
        << error;

    // Cut before its E frame, or inside its B payload, the bad stream
    // is a torn tail: dropped, with the good stream kept.
    const size_t bad_start = file.find(bad);
    ASSERT_NE(bad_start, std::string::npos);
    for (const size_t cut :
         {bad_start + bad.find("\nE ") + 1, bad_start + bad.find("\x09")}) {
        const auto recovered =
            RecoverTraceBytes(file.substr(0, cut), &error);
        ASSERT_TRUE(recovered.has_value()) << error;
        EXPECT_FALSE(recovered->complete);
        ASSERT_EQ(recovered->streams.size(), 1u);
        EXPECT_EQ(recovered->streams[0].framed, good);
        EXPECT_EQ(recovered->dropped_bytes, cut - bad_start);
    }
}

TEST(TraceTest, FusedRecoveryKeepsErrorPrecedence)
{
    // Recovery digests each payload as it validates it.  A defect the
    // run path meets, far before the payload's last 72 bytes, stops the
    // validation with most of its payload, and all of the next one,
    // still to digest: all of it must still be digested.
    const auto accesses = [](size_t n) {
        std::string ops;
        for (size_t i = 0; i < n; ++i) {
            ops += "\x07\x08";
        }
        return ops;
    };
    const std::string good =
        HandBuiltStream("good", {kCreate + kSetPid + kRead}, 3, 1);
    struct Case {
        const char* what;
        std::string op;
    };
    const Case cases[] = {
        {"trailing 0x00", std::string("\x06\x80\x00", 3)},
        {"6-byte trailing 0x00",
         std::string("\x06\x80\x80\x80\x80\x80\x00", 7)},
    };
    for (const Case& c : cases) {
        std::string first = kCreate + kSetPid + accesses(100);
        first += c.op;
        first += accesses(2000);
        const std::string second = accesses(2000);
        const size_t defect = first.find(c.op);
        const std::string bad =
            HandBuiltStream("bad", {first, second}, 4103, 4101);
        const std::string file = EncodeTraceFile({good, bad});
        const size_t bad_start = file.find(bad);
        ASSERT_NE(bad_start, std::string::npos) << c.what;
        const size_t first_at = bad_start + bad.find(first);
        const size_t second_at =
            bad_start + bad.find(second, bad.find(first) + first.size());

        // Whole: the decode error, after both digests agree.
        std::string error;
        EXPECT_FALSE(RecoverTraceBytes(file, &error).has_value()) << c.what;
        EXPECT_EQ(error, "stream '" + MetaFor("bad", 1, 4101).Identity() +
                             "': op stream: bad access")
            << c.what;

        // One byte flipped after the defect, past the digest's lead, at
        // the payload's end, or in the next payload: the op digest
        // disagrees, and that is reported first.
        for (const size_t at :
             {first_at + defect + c.op.size() + 200,
              first_at + first.size() - 1, second_at + second.size() / 2}) {
            std::string flipped = file;
            flipped[at] = static_cast<char>(flipped[at] ^ 0x01);
            EXPECT_FALSE(RecoverTraceBytes(flipped, &error).has_value())
                << c.what << " flipped at " << at;
            EXPECT_NE(error.find("op digest mismatch"), std::string::npos)
                << c.what << " flipped at " << at << ": " << error;
        }

        // Cut inside either payload, after the defect: a torn tail.
        for (const size_t cut :
             {first_at + defect + c.op.size() + 200, second_at + 100}) {
            const auto recovered =
                RecoverTraceBytes(file.substr(0, cut), &error);
            ASSERT_TRUE(recovered.has_value()) << c.what << ": " << error;
            EXPECT_FALSE(recovered->complete) << c.what;
            ASSERT_EQ(recovered->streams.size(), 1u) << c.what;
            EXPECT_EQ(recovered->streams[0].framed, good) << c.what;
            EXPECT_EQ(recovered->dropped_bytes, cut - bad_start) << c.what;
        }
    }
}

// ---- Access coding ------------------------------------------------------

/** The byte-loop LEB128 writer the encoder's word stores must match. */
std::string
Leb128(uint64_t value)
{
    std::string out;
    while (value >= 0x80) {
        out.push_back(static_cast<char>((value & 0x7f) | 0x80));
        value >>= 7;
    }
    out.push_back(static_cast<char>(value));
    return out;
}

uint64_t
Zigzag(int64_t value)
{
    return (static_cast<uint64_t>(value) << 1) ^
           static_cast<uint64_t>(value >> 63);
}

/** A host that logs every operation it receives, one line each. */
class OpLogHost : public WorkloadHost
{
  public:
    explicit OpLogHost(Pid first_pid)
        : config_(sim::MachineConfig::Prototype(8)), next_pid_(first_pid)
    {
    }

    Pid CreateProcess() override
    {
        log.push_back("create " + std::to_string(next_pid_));
        return next_pid_++;
    }
    void DestroyProcess(Pid pid) override
    {
        log.push_back("destroy " + std::to_string(pid));
    }
    void MapRegion(Pid pid, ProcessAddr base, uint64_t bytes,
                   vm::PageKind kind) override
    {
        log.push_back(MapLine(pid, base, bytes, kind));
    }
    void ShareSegment(Pid pid, unsigned reg, Pid other,
                      unsigned other_reg) override
    {
        log.push_back("share " + std::to_string(pid) + " " +
                      std::to_string(reg) + " " + std::to_string(other) +
                      " " + std::to_string(other_reg));
    }
    void Access(const MemRef& ref) override { log.push_back(AccessLine(ref)); }
    void OnContextSwitch() override { log.push_back("switch"); }
    const sim::MachineConfig& config() const override { return config_; }

    static std::string MapLine(Pid pid, ProcessAddr base, uint64_t bytes,
                               vm::PageKind kind)
    {
        return "map " + std::to_string(pid) + " " + std::to_string(base) +
               " " + std::to_string(bytes) + " " +
               std::to_string(static_cast<int>(kind));
    }
    static std::string AccessLine(const MemRef& ref)
    {
        return "access " + std::to_string(ref.pid) + " " +
               std::to_string(ref.addr) + " " +
               std::to_string(static_cast<int>(ref.type));
    }

    std::vector<std::string> log;

  private:
    sim::MachineConfig config_;
    Pid next_pid_;
};

TEST(TraceTest, AccessDeltasOfEveryVarintLengthRoundTrip)
{
    // Zigzag values at and on either side of each 7-bit boundary (1-5
    // byte varints), the largest a 32-bit address delta reaches, and
    // deltas of +-2^31 and their neighbours.
    std::vector<int64_t> deltas;
    for (const uint64_t boundary : {uint64_t{1} << 7, uint64_t{1} << 14,
                                    uint64_t{1} << 21, uint64_t{1} << 28}) {
        for (const uint64_t zigzag : {boundary - 1, boundary, boundary + 1}) {
            deltas.push_back(static_cast<int64_t>(zigzag >> 1) ^
                             -static_cast<int64_t>(zigzag & 1));
        }
    }
    const int64_t two31 = int64_t{1} << 31;
    const int64_t two32 = int64_t{1} << 32;
    for (const int64_t delta : {two31 - 1, two31, two31 + 1, two32 - 1}) {
        deltas.push_back(delta);
        deltas.push_back(-delta);
    }
    deltas.push_back(0);

    // Each round shifts the deltas' alignment by one more 2-byte access,
    // so runs cross the 64-byte window at every offset.  A 64 KiB filler
    // and a context switch close the first B payload; both payloads end
    // in accesses, so runs also end inside a payload's last 72 bytes.
    std::vector<MemRef> refs;
    ProcessAddr addr = 0x40000000;
    const auto access = [&](int64_t delta) {
        const auto type = static_cast<AccessType>(refs.size() % 3);
        addr = static_cast<ProcessAddr>(static_cast<int64_t>(addr) + delta);
        refs.push_back(MemRef{5, addr, type});
    };
    const auto rounds = [&] {
        for (int shift = 0; shift < 36; ++shift) {
            for (int pad = 0; pad < shift; ++pad) {
                access(4);
            }
            for (const int64_t delta : deltas) {
                // Step to an end of the address space when the delta
                // would leave it.
                const int64_t target = static_cast<int64_t>(addr) + delta;
                if (target < 0 || target > int64_t{0xFFFFFFFF}) {
                    access((delta < 0 ? int64_t{0xFFFFFFFF} : 0) -
                           static_cast<int64_t>(addr));
                }
                access(delta);
            }
        }
    };
    rounds();
    const size_t switch_at = refs.size() + 33'000;
    while (refs.size() < switch_at) {
        access(4);
    }
    rounds();

    TraceEncoder encoder(MetaFor("deltas", 1, refs.size()));
    std::vector<std::string> payloads(1);
    std::vector<std::string> expected;
    uint64_t ops = 0;
    const auto map = [&](uint64_t bytes) {
        encoder.OnMapRegion(5, 0x40000000, bytes, vm::PageKind::kData);
        // A std::string first operand: GCC 12's -Wrestrict misfires on
        // `"..." + std::string&&` here.
        payloads.back() += std::string("\x02") + Leb128(0) +
                           Leb128(0x40000000) + Leb128(bytes) + "\x01";
        expected.push_back(
            OpLogHost::MapLine(5, 0x40000000, bytes, vm::PageKind::kData));
        ++ops;
    };
    encoder.OnCreateProcess(5);
    payloads.back() += kCreate;
    expected.push_back("create 5");
    ++ops;
    // Map lengths of 2^56 and up take the byte-loop varint path.
    map(0x2000);
    map(uint64_t{1} << 56);
    map(~uint64_t{0});
    payloads.back() += kSetPid;
    ++ops;
    ProcessAddr last = 0;
    for (size_t i = 0; i < refs.size(); ++i) {
        if (i == switch_at) {
            encoder.OnContextSwitch();
            payloads.back() += "\x04";
            payloads.emplace_back();
            expected.push_back("switch");
            ++ops;
        }
        encoder.OnAccess(refs[i]);
        payloads.back() +=
            static_cast<char>(6 + static_cast<int>(refs[i].type)) +
            Leb128(Zigzag(static_cast<int64_t>(refs[i].addr) -
                          static_cast<int64_t>(last)));
        last = refs[i].addr;
        expected.push_back(OpLogHost::AccessLine(refs[i]));
        ++ops;
    }
    ASSERT_GE(payloads[0].size(), 64u * 1024);
    const std::string framed = encoder.Finish(refs.size());
    ASSERT_EQ(framed, HandBuiltStream("deltas", payloads, ops, refs.size()));

    std::string error;
    const auto recovered =
        RecoverTraceBytes(EncodeTraceFile({framed}), &error);
    ASSERT_TRUE(recovered.has_value()) << error;
    ASSERT_EQ(recovered->streams.size(), 1u);
    EXPECT_EQ(recovered->streams[0].op_count, ops);
    OpLogHost host(5);
    EXPECT_EQ(ReplayStream(recovered->streams[0], host).accesses,
              refs.size());
    ASSERT_EQ(host.log.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(host.log[i], expected[i]) << "op " << i;
    }
}

TEST(TraceTest, RunPathRejectsWhatTheSwitchRejects)
{
    // Access ops with 1-byte deltas, or alternating 1- and 4-byte ones:
    // 7 bytes a pair, so 64 pairs put a following op at every offset
    // mod 64.
    const auto run = [](size_t accesses, bool mixed = true) {
        std::string ops;
        for (size_t i = 0; i < accesses; ++i) {
            ops += (!mixed || i % 2 == 0)
                       ? std::string("\x07\x08")
                       : std::string("\x06\x80\x80\x80\x01");
        }
        return ops;
    };
    struct Case {
        const char* what;
        std::string op;
        const char* error;
    };
    const Case cases[] = {
        {"trailing 0x00", std::string("\x06\x80\x00", 3), "bad access"},
        {"6-byte trailing 0x00",
         std::string("\x06\x80\x80\x80\x80\x80\x00", 7), "bad access"},
        {"opcode 0x86", "\x86\x08", "unknown opcode"},
        {"opcode 9", "\x09\x08", "unknown opcode"},
    };
    // The accesses before the bad op put it at every offset of a run
    // window, with more than 72 bytes of payload after it; the 1-byte
    // run after it would parse whole from any misaligned start.  Only
    // the op check can fail: the op digest, the E counts and the file
    // digest all agree.
    for (const Case& c : cases) {
        for (const bool mixed : {true, false}) {
            for (size_t before = 0; before < 128; ++before) {
                const std::string ops = kCreate + kSetPid + run(before) +
                                        c.op + run(40, mixed);
                const std::string file = EncodeTraceFile({HandBuiltStream(
                    "inject", {ops}, 43 + before, 41 + before)});
                std::string error;
                EXPECT_FALSE(RecoverTraceBytes(file, &error).has_value())
                    << c.what << " after " << before;
                EXPECT_NE(error.find(std::string("op stream: ") + c.error),
                          std::string::npos)
                    << c.what << " after " << before << ": " << error;
            }
        }
    }

    // A run before any setpid.
    const std::string file = EncodeTraceFile(
        {HandBuiltStream("no-setpid", {kCreate + run(80)}, 81, 80)});
    std::string error;
    EXPECT_FALSE(RecoverTraceBytes(file, &error).has_value());
    EXPECT_NE(error.find("op stream: bad access"), std::string::npos)
        << error;

    // A canonical 6-byte varint is valid: the run leaves it to the
    // switch, which adds its delta (2^34, so the address is unchanged).
    const std::string six = EncodeTraceFile({HandBuiltStream(
        "six", {kCreate + kSetPid + "\x07\x08" +
                std::string("\x07\x80\x80\x80\x80\x80\x01", 7) + run(40)},
        44, 42)});
    const auto recovered = RecoverTraceBytes(six, &error);
    ASSERT_TRUE(recovered.has_value()) << error;
    OpLogHost host(0);
    EXPECT_EQ(ReplayStream(recovered->streams[0], host).accesses, 42u);
    ASSERT_GE(host.log.size(), 4u);
    EXPECT_EQ(host.log[1], "access 0 4 1");
    EXPECT_EQ(host.log[2], "access 0 4 1");
    EXPECT_EQ(host.log[3], "access 0 8 1");
}

/**
 * The reference op decoder: a plain byte-at-a-time LEB128 reading of
 * one B payload with DecodeOps' rules and error texts, logging what
 * replay into an OpLogHost(0) must log.  It knows nothing of 64-byte
 * windows, so comparing it with recovery and replay tests the access
 * runs.
 */
struct ByteDecoded {
    bool ok = true;
    std::string error;  ///< "op stream: ..." when !ok.
    std::vector<std::string> log;
    uint64_t ops = 0;
    uint64_t accesses = 0;
};

ByteDecoded
ByteDecode(const std::string& ops)
{
    ByteDecoded out;
    size_t pos = 0;
    const auto varint = [&](uint64_t* value) {
        *value = 0;
        for (unsigned shift = 0; shift < 64 && pos < ops.size();
             shift += 7) {
            const auto byte = static_cast<uint8_t>(ops[pos++]);
            if (shift == 63 && (byte & 0x7f) > 1) {
                return false;
            }
            *value |= static_cast<uint64_t>(byte & 0x7f) << shift;
            if ((byte & 0x80) == 0) {
                return byte != 0 || shift == 0;
            }
        }
        return false;
    };
    const auto small = [&](uint8_t max, uint64_t* value) {
        if (pos >= ops.size() || static_cast<uint8_t>(ops[pos]) > max) {
            return false;
        }
        *value = static_cast<uint8_t>(ops[pos++]);
        return true;
    };
    const auto fail = [&](const char* why) {
        out.ok = false;
        out.error = std::string("op stream: ") + why;
        return out;
    };
    uint64_t created = 0;
    bool have_pid = false;
    uint64_t pid = 0;
    ProcessAddr addr = 0;
    while (pos < ops.size()) {
        const auto opcode = static_cast<uint8_t>(ops[pos++]);
        uint64_t a = 0;
        uint64_t b = 0;
        uint64_t c = 0;
        uint64_t d = 0;
        switch (opcode) {
          case 0:
            if (!varint(&a) || a != created) {
                return fail("bad create pid");
            }
            out.log.push_back("create " + std::to_string(created++));
            break;
          case 1:
          case 5:
            if (!varint(&a) || a >= created) {
                return fail("pid out of range");
            }
            if (opcode == 1) {
                out.log.push_back("destroy " + std::to_string(a));
            } else {
                have_pid = true;
                pid = a;
            }
            break;
          case 2:
            if (!varint(&a) || a >= created || !varint(&b) ||
                b > 0xFFFFFFFF || !varint(&c) ||
                !small(static_cast<uint8_t>(vm::PageKind::kFileCache), &d)) {
                return fail("bad map op");
            }
            out.log.push_back(OpLogHost::MapLine(
                static_cast<Pid>(a), static_cast<ProcessAddr>(b), c,
                static_cast<vm::PageKind>(d)));
            break;
          case 3:
            if (!varint(&a) || a >= created || !small(3, &b) ||
                !varint(&c) || c >= created || !small(3, &d)) {
                return fail("bad share op");
            }
            out.log.push_back("share " + std::to_string(a) + " " +
                              std::to_string(b) + " " + std::to_string(c) +
                              " " + std::to_string(d));
            break;
          case 4:
            out.log.push_back("switch");
            break;
          case 6:
          case 7:
          case 8:
            if (!varint(&a) || !have_pid) {
                return fail("bad access");
            }
            addr = static_cast<ProcessAddr>(
                addr + static_cast<ProcessAddr>((a >> 1) ^ (0 - (a & 1))));
            out.log.push_back(OpLogHost::AccessLine(
                MemRef{static_cast<Pid>(pid), addr,
                       static_cast<AccessType>(opcode - 6)}));
            ++out.accesses;
            break;
          default:
            return fail("unknown opcode");
        }
        ++out.ops;
    }
    return out;
}

/**
 * Every replay kernel this host can run: SWAR always, so it stays tested
 * where replay itself picks another, PEXT where the CPU has BMI2, and
 * AVX-512 where it and the OS support the kernel's target.
 */
std::vector<ReplayKernel>
HostKernels()
{
    std::vector<ReplayKernel> kernels = {ReplayKernel::kSwar};
    if (CpuHasBmi2()) {
        kernels.push_back(ReplayKernel::kPext);
    }
    if (CpuHasAvx512Vbmi2()) {
        kernels.push_back(ReplayKernel::kAvx512);
    }
    return kernels;
}

const char*
KernelName(ReplayKernel kernel)
{
    switch (kernel) {
      case ReplayKernel::kSwar:
        return "SWAR";
      case ReplayKernel::kPext:
        return "PEXT";
      case ReplayKernel::kAvx512:
        return "AVX-512";
    }
    return "?";
}

/** A random access op whose varint is @p bytes (1-5) long. */
std::string
RandomAccess(Rng& rng, size_t bytes)
{
    const uint64_t low = bytes == 1 ? 0 : uint64_t{1} << (7 * (bytes - 1));
    const uint64_t high = uint64_t{1} << (7 * bytes);
    return static_cast<char>(6 + rng.NextBelow(3)) +
           Leb128(low + rng.NextBelow(high - low));
}

TEST(TraceTest, AccessRunsMatchAByteDecoder)
{
    // Each defect is written where an op starts, at every offset of a
    // run window but 1 (a window's byte 1 is inside its first op: no op
    // a window can start with is 1 byte long).  Valid ops other than
    // 1-5 byte accesses must leave the run for the switch; the
    // straddling access is valid, crosses the window's end from offset
    // 59 and ends on its last byte at offset 58; the rest are malformed.
    std::vector<std::pair<std::string, std::string>> defects = {
        {"gap byte", ""},  // A random byte of 0x80 or more, per case.
        {"create", std::string("\x00\x02", 2)},
        {"destroy", "\x01\x01"},
        {"map", std::string("\x02\x00", 2) + Leb128(0x40000000) +
                    Leb128(0x2000) + "\x01"},
        {"share", std::string("\x03\x01\x02\x00\x03", 5)},
        {"switch", "\x04"},
        {"setpid", "\x05\x01"},
        {"opcode 9", "\x09\x08"},
        {"opcode 0x86", "\x86\x08"},
        {"6-byte varint", "\x07" + Leb128(uint64_t{1} << 40)},
        {"10-byte varint", "\x06" + Leb128(~uint64_t{0})},
        {"straddling access", ""},
    };
    for (size_t bytes = 2; bytes <= 6; ++bytes) {
        defects.emplace_back(
            std::to_string(bytes) + "-byte trailing 0x00",
            "\x08" + std::string(bytes - 1, '\x9f') + std::string(1, '\0'));
    }

    Rng rng(0x5eed0019);
    // create 0, create 1, setpid 0; then random ops, mostly accesses.
    const std::string head("\x00\x00\x00\x01\x05\x00", 6);
    const auto random_op = [&](std::string* op) {
        if (rng.NextBelow(16) == 0) {
            *op = rng.NextBelow(2) != 0 ? "\x04" : "\x05\x01";
            return false;
        }
        *op = RandomAccess(rng, 1 + rng.NextBelow(5));
        return true;
    };
    size_t accepted = 0;
    size_t rejected = 0;
    for (const auto& [what, defect] : defects) {
        for (size_t k = 0; k < 64; ++k) {
            if (k == 1) {
                continue;
            }
            for (const bool near_end : {false, true}) {
                // `window` tracks where DecodeOps' windows start: at an
                // access that does not fit the current one, and after
                // any other op.
                std::string ops = head;
                size_t window = ops.size();
                const auto add = [&](const std::string& op, bool access) {
                    const size_t start = ops.size();
                    ops += op;
                    if (!access) {
                        window = ops.size();
                    } else if (ops.size() - window > 64) {
                        window = start;
                    }
                };
                std::string op;
                for (uint64_t i = rng.NextBelow(120); i != 0; --i) {
                    const bool access = random_op(&op);
                    add(op, access);
                }
                // Pad to offset k (64 is the next window's 0) with
                // 2-6 byte accesses, never leaving a 1-byte gap.
                for (size_t off = (ops.size() - window) % 64; off != k;
                     off = (ops.size() - window) % 64) {
                    const size_t gap = (off < k ? k : 64) - off;
                    size_t bytes = 2;  // Starts the next window at gap 1.
                    if (gap > 1) {
                        do {
                            bytes = 2 + rng.NextBelow(
                                            std::min<size_t>(gap, 6) - 1);
                        } while (bytes == gap - 1);
                    }
                    add(RandomAccess(rng, bytes - 1), true);
                }
                const size_t at = ops.size();
                if (what == "gap byte") {
                    ops += static_cast<char>(0x80 + rng.NextBelow(0x80));
                } else if (what == "straddling access") {
                    ops += RandomAccess(rng,
                                        std::clamp<size_t>(65 - k, 2, 6) - 1);
                } else {
                    ops += defect;
                }
                // A long tail leaves the defect to the run windows; a
                // short one puts it in the payload's last 72 bytes.
                const size_t tail = near_end ? 72 : 200;
                for (random_op(&op); ops.size() + op.size() - at < tail;
                     random_op(&op)) {
                    ops += op;
                }

                const std::string where =
                    what + " at window offset " + std::to_string(k) +
                    (near_end ? " near the payload's end" : "");
                const ByteDecoded want = ByteDecode(ops);
                (want.ok ? accepted : rejected) += 1;
                std::string error;
                const auto recovered =
                    RecoverTraceBytes(EncodeTraceFile({HandBuiltStream(
                                          "runs", {ops}, want.ops,
                                          want.accesses)}),
                                      &error);
                ASSERT_EQ(recovered.has_value(), want.ok)
                    << where << ": " << error;
                if (!want.ok) {
                    EXPECT_EQ(error, "stream '" +
                                         MetaFor("runs", 1, want.accesses)
                                             .Identity() +
                                         "': " + want.error)
                        << where;
                    continue;
                }
                ASSERT_EQ(recovered->streams.size(), 1u) << where;
                EXPECT_EQ(recovered->streams[0].op_count, want.ops) << where;
                for (const ReplayKernel kernel : HostKernels()) {
                    OpLogHost host(0);
                    EXPECT_EQ(ReplayStreamWith(recovered->streams[0], host,
                                               kernel)
                                  .accesses,
                              want.accesses)
                        << where << ", " << KernelName(kernel);
                    EXPECT_EQ(host.log, want.log)
                        << where << ", " << KernelName(kernel);
                }
            }
        }
    }
    EXPECT_GT(accepted, 1000u);
    EXPECT_GT(rejected, 500u);
}

std::string
HexMasks(const WindowMasks& masks)
{
    char buffer[80];
    std::snprintf(buffer, sizeof(buffer),
                  "stops %016llx access %016llx zeros %016llx",
                  static_cast<unsigned long long>(masks.stops),
                  static_cast<unsigned long long>(masks.access),
                  static_cast<unsigned long long>(masks.zeros));
    return buffer;
}

TEST(TraceTest, WindowMasksMatchTheSwarOracle)
{
    // The portable builder against the classes byte by byte, and the
    // SSE2 and AVX-512 builders, where this build and CPU have them,
    // against the portable one; with the AVX-512 builder, the CLMUL
    // prefix XOR of the stops against the shift-xor one.
    const bool avx512 = CpuHasAvx512Vbmi2();
    size_t windows = 0;
    const auto check = [&](const char* p) {
        ++windows;
        WindowMasks bytes;
        for (unsigned i = 0; i < 64; ++i) {
            const auto byte = static_cast<uint8_t>(p[i]);
            const uint64_t bit = uint64_t{1} << i;
            bytes.stops |= byte < 0x80 ? bit : 0;
            bytes.access |= byte >= 6 && byte <= 8 ? bit : 0;
            bytes.zeros |= byte == 0 ? bit : 0;
        }
        const WindowMasks swar = WindowMasksSwar(p);
        if (swar != bytes) {
            return testing::AssertionFailure()
                   << "SWAR " << HexMasks(swar) << ", bytes "
                   << HexMasks(bytes);
        }
#if defined(__SSE2__)
        const WindowMasks sse2 = WindowMasksSse2(p);
        if (sse2 != swar) {
            return testing::AssertionFailure()
                   << "SSE2 " << HexMasks(sse2) << ", SWAR "
                   << HexMasks(swar);
        }
#endif
#if defined(__x86_64__)
        if (avx512) {
            const WindowMasks wide = WindowMasksAvx512(p);
            if (wide != swar) {
                return testing::AssertionFailure()
                       << "AVX-512 " << HexMasks(wide) << ", SWAR "
                       << HexMasks(swar);
            }
            const uint64_t parity = PrefixXorClmul(swar.stops);
            if (parity != PrefixXor(swar.stops)) {
                return testing::AssertionFailure()
                       << std::hex << "CLMUL parity " << parity
                       << ", shift-xor " << PrefixXor(swar.stops);
            }
        }
#endif
        return testing::AssertionSuccess();
    };

    // Every 64-byte window of a recorded WORKLOAD1 stream.
    CountingHost host(sim::MachineConfig::Prototype(8));
    const std::string framed =
        Record(MetaFor("workload1", 1, 50'000), MakeWorkload1(), host)
            .framed;
    ASSERT_GT(framed.size(), 64u * 1024);
    for (size_t at = 0; at + 64 <= framed.size(); ++at) {
        ASSERT_TRUE(check(framed.data() + at)) << "stream offset " << at;
    }

    // Seeded random windows, mostly of the bytes on the classes' edges.
    const uint8_t edges[] = {0x00, 0x05, 0x06, 0x07, 0x08, 0x09,
                             0x7f, 0x80, 0x81, 0xff};
    Rng rng(0x5eed0024);
    char window[64];
    for (int round = 0; round < 20'000; ++round) {
        for (char& byte : window) {
            byte = static_cast<char>(
                rng.NextBelow(4) != 0
                    ? edges[rng.NextBelow(sizeof(edges))]
                    : rng.NextBelow(256));
        }
        ASSERT_TRUE(check(window)) << "random window " << round;
    }
    EXPECT_GT(windows, 200'000u);
}

TEST(TraceTest, PextVarintMatchesSwarCompaction)
{
#if defined(__x86_64__)
    if (!CpuHasBmi2()) {
        GTEST_SKIP() << "this CPU has no BMI2, so it cannot run the PEXT "
                        "kernel (replay runs SWAR here)";
    }
    const auto check = [](uint64_t word, unsigned n) {
        const uint64_t pext = VarintPext::Value(word, n);
        const uint64_t swar = VarintSwar::Value(word, n);
        if (pext != swar) {
            return testing::AssertionFailure()
                   << "word " << std::hex << word << std::dec << ", " << n
                   << " bytes: PEXT " << pext << ", SWAR " << swar;
        }
        return testing::AssertionSuccess();
    };

    // Canonical varints of boundary values, written byte by byte with
    // their continuation bits and followed by arbitrary bytes: both
    // kernels must give the value itself.
    std::vector<uint64_t> values = {0, 1};
    for (unsigned k = 1; k <= 5; ++k) {
        values.push_back((uint64_t{1} << (7 * k)) - 1);  // All-ones groups.
        values.push_back(uint64_t{1} << (7 * k));
    }
    // The zigzags of the extreme 32-bit deltas and of the extreme
    // address deltas (the encoder's deltas are 33-bit differences).
    for (const int64_t delta :
         {int64_t{INT32_MIN}, int64_t{INT32_MAX}, -int64_t{UINT32_MAX},
          int64_t{UINT32_MAX}}) {
        const auto u = static_cast<uint64_t>(delta);
        values.push_back((u << 1) ^ static_cast<uint64_t>(delta >> 63));
    }
    Rng rng(0x5eed0025);
    for (const uint64_t value : values) {
        if (value >> 35 != 0) {
            continue;  // Needs more than 5 bytes: never in an access run.
        }
        const unsigned bytes =
            (static_cast<unsigned>(std::bit_width(value | 1)) + 6) / 7;
        for (int past = 0; past < 16; ++past) {
            // Arbitrary bytes past the varint, then the varint's bytes.
            uint64_t word = rng.Next() << (8 * bytes);
            for (unsigned i = 0; i < bytes; ++i) {
                const uint64_t byte = ((value >> (7 * i)) & 0x7f) |
                                      (i + 1 < bytes ? 0x80 : 0);
                word |= byte << (8 * i);
            }
            ASSERT_TRUE(check(word, bytes)) << "value " << value;
            ASSERT_EQ(VarintPext::Value(word, bytes), value)
                << "word " << std::hex << word;
        }
    }

    // Arbitrary words at every length: continuation bits and the bytes
    // past the varint are noise both kernels must ignore alike.
    for (int round = 0; round < 100'000; ++round) {
        const uint64_t word = rng.Next();
        for (unsigned n = 1; n <= 5; ++n) {
            ASSERT_TRUE(check(word, n)) << "random word " << round;
        }
    }
#else
    GTEST_SKIP() << "the PEXT kernel exists only in x86-64 builds";
#endif
}

TEST(TraceTest, ReplayKernelPredicateAvoidsSlowPext)
{
    EXPECT_EQ(ChooseReplayKernel(false, false, false), ReplayKernel::kSwar);
    EXPECT_EQ(ChooseReplayKernel(false, true, false), ReplayKernel::kSwar);
    // Zen 1 and 2 (AMD family 17h) have BMI2 but microcoded pext.
    EXPECT_EQ(ChooseReplayKernel(true, true, false), ReplayKernel::kSwar);
    EXPECT_EQ(ChooseReplayKernel(true, false, false), ReplayKernel::kPext);
    // A CPU that runs the AVX-512 kernel takes it (its target includes
    // BMI2, and no AMD family 17h part has AVX-512).
    EXPECT_EQ(ChooseReplayKernel(true, false, true), ReplayKernel::kAvx512);
    if (!CpuHasBmi2()) {
        EXPECT_EQ(HostReplayKernel(), ReplayKernel::kSwar);
    }
    EXPECT_EQ(HostReplayKernel() == ReplayKernel::kAvx512,
              CpuHasAvx512Vbmi2());
}

TEST(TraceTest, Avx512RunStepMatchesSwar)
{
#if defined(__x86_64__)
    if (!CpuHasAvx512Vbmi2()) {
        GTEST_SKIP() << "this CPU or OS lacks AVX512F/BW/VBMI/VBMI2, "
                        "PCLMUL or BMI2, so it cannot run the AVX-512 "
                        "kernel (replay runs PEXT or SWAR here)";
    }
    // Varint values at every length's edges, 2^(7k) - 1 and 2^(7k), and
    // the zigzags of +-(2^32 - 1) and of the largest 5-byte deltas,
    // which the kernels add mod 2^32.
    std::vector<uint64_t> edges = {0, 1};
    for (unsigned k = 1; k <= 5; ++k) {
        edges.push_back((uint64_t{1} << (7 * k)) - 1);
        if (k < 5) {
            edges.push_back(uint64_t{1} << (7 * k));
        }
    }
    for (const int64_t delta : {int64_t{UINT32_MAX}, -int64_t{UINT32_MAX}}) {
        const auto u = static_cast<uint64_t>(delta);
        edges.push_back((u << 1) ^ static_cast<uint64_t>(delta >> 63));
    }
    edges.push_back((uint64_t{1} << 35) - 2);  // Zigzag of 2^34 - 1.

    Rng rng(0x5eed0033);
    const auto value_of_length = [&](unsigned bytes) {
        if (rng.NextBelow(4) == 0) {
            const uint64_t edge = edges[rng.NextBelow(edges.size())];
            if ((static_cast<unsigned>(std::bit_width(edge | 1)) + 6) / 7 ==
                bytes) {
                return edge;
            }
        }
        const uint64_t low =
            bytes == 1 ? 0 : uint64_t{1} << (7 * (bytes - 1));
        return low + rng.NextBelow((uint64_t{1} << (7 * bytes)) - low);
    };

    bool saw_ops[33] = {};
    bool saw_length[6] = {};
    bool saw_type[3] = {};
    size_t full_windows = 0;
    size_t no_runs = 0;
    for (int round = 0; round < 50'000; ++round) {
        // n ops whose varint lengths sum to at most 64 - n, or, for one
        // window in four, to exactly that: a run ending at byte 63.
        const auto n = static_cast<unsigned>(1 + rng.NextBelow(32));
        std::vector<unsigned> lengths(n, 1);
        const unsigned room = 64 - n;
        const bool full = n >= 11 && rng.NextBelow(4) == 0;
        unsigned used = n;
        for (unsigned& length : lengths) {
            const unsigned extra = std::min<unsigned>(
                room - used, static_cast<unsigned>(rng.NextBelow(5)));
            length += extra;
            used += extra;
        }
        for (unsigned j = 0; full && used < room; j = (j + 1) % n) {
            if (lengths[j] < 5) {
                ++lengths[j];
                ++used;
            }
        }
        std::string bytes;
        for (const unsigned length : lengths) {
            const auto type = static_cast<unsigned>(rng.NextBelow(3));
            saw_type[type] = true;
            saw_length[length] = true;
            bytes += static_cast<char>(6 + type);
            bytes += Leb128(value_of_length(length));
        }
        // What follows a run shorter than the window: an access that
        // crosses byte 63 where one can, else an op that is not an
        // access or a gap byte.
        if (const size_t at = bytes.size(); at >= 59 && at < 64 &&
                                            rng.NextBelow(2) == 0) {
            const auto length = static_cast<unsigned>(
                64 - at + rng.NextBelow(at - 58));
            bytes += static_cast<char>(6 + rng.NextBelow(3));
            bytes += Leb128(value_of_length(length));
        } else if (at < 64) {
            bytes += static_cast<char>(rng.NextBelow(2) == 0
                                           ? rng.NextBelow(6)
                                           : 0x80 + rng.NextBelow(0x80));
        }
        // One window in 16 does not start with a run at all.
        if (rng.NextBelow(16) == 0) {
            bytes[0] = static_cast<char>(rng.NextBelow(2) == 0
                                             ? rng.NextBelow(6)
                                             : 0x80 + rng.NextBelow(0x80));
        }
        while (bytes.size() < kRunBytes) {
            bytes += static_cast<char>(rng.NextBelow(256));
        }
        const char* p = bytes.data();

        const auto pid = static_cast<Pid>(rng.Next());
        const auto start = static_cast<ProcessAddr>(rng.Next());
        const uint64_t run = AccessRunEnds(p);
        std::vector<MemRef> want(kMaxRunAccesses);
        ProcessAddr want_last = start;
        const size_t want_refs =
            run == 0 ? 0
                     : DecodeAccessRun<VarintSwar>(p, run, &want_last, pid,
                                                   want.data());
        std::vector<MemRef> got(kMaxRunAccesses);
        ProcessAddr got_last = start;
        const RunStep step = DecodeRunAvx512(p, &got_last, pid, got.data());
        const std::string where = "round " + std::to_string(round);
        if (run == 0) {
            ++no_runs;
            ASSERT_EQ(step.bytes, 0u) << where;
            ASSERT_EQ(got_last, start) << where;
            continue;
        }
        ASSERT_EQ(want_refs, n) << where;  // The run is the ops built.
        saw_ops[n] = true;
        full_windows += std::bit_width(run) == 64 ? 1 : 0;
        ASSERT_EQ(step.refs, want_refs) << where;
        ASSERT_EQ(step.bytes, static_cast<size_t>(std::bit_width(run)))
            << where;
        ASSERT_EQ(got_last, want_last) << where;
        for (size_t j = 0; j < want_refs; ++j) {
            ASSERT_EQ(OpLogHost::AccessLine(got[j]),
                      OpLogHost::AccessLine(want[j]))
                << where << ", reference " << j;
        }
    }
    for (unsigned n = 1; n <= 32; ++n) {
        EXPECT_TRUE(saw_ops[n]) << "no run of " << n << " ops";
    }
    for (unsigned length = 1; length <= 5; ++length) {
        EXPECT_TRUE(saw_length[length]) << "no " << length << "-byte varint";
    }
    EXPECT_TRUE(saw_type[0] && saw_type[1] && saw_type[2]);
    EXPECT_GT(full_windows, 1000u);
    EXPECT_GT(no_runs, 1000u);
#else
    GTEST_SKIP() << "the AVX-512 kernel exists only in x86-64 builds";
#endif
}

/** An OpLogHost that logs each AccessBatch's size and keeps its refs. */
class BatchLogHost : public OpLogHost
{
  public:
    BatchLogHost()
        : OpLogHost(1)
    {
    }

    void AccessBatch(const MemRef* batch, size_t n) override
    {
        log.push_back("batch " + std::to_string(n));
        refs.insert(refs.end(), batch, batch + n);
    }

    std::vector<MemRef> refs;
};

TEST(TraceTest, ReplayIssuesFullBatchesInRecordingOrder)
{
    // Runs of accesses from two processes (a pid change is a setpid op,
    // which does not close a batch), with 1-5 byte address deltas,
    // separated by switches and one map.  Every batch holds exactly
    // 4096 references but the one a non-access op or the stream's end
    // closes.
    Rng rng(0x5eed0020);
    TraceEncoder encoder(MetaFor("batches", 1, 0));
    std::vector<MemRef> recorded;
    std::vector<std::string> expected;
    encoder.OnCreateProcess(1);
    encoder.OnCreateProcess(2);
    expected = {"create 1", "create 2"};
    ProcessAddr addr = 0;
    const auto run = [&](size_t n) {
        for (size_t i = 0; i < n; ++i) {
            const Pid pid = (recorded.size() / 1000) % 2 == 0 ? 1 : 2;
            const uint64_t bits = 1 + 7 * rng.NextBelow(5);
            addr = static_cast<ProcessAddr>(
                addr + rng.NextBelow(uint64_t{1} << (bits - 1)));
            recorded.push_back(MemRef{
                pid, addr, static_cast<AccessType>(rng.NextBelow(3))});
            encoder.OnAccess(recorded.back());
        }
        for (size_t full = n / 4096; full != 0; --full) {
            expected.push_back("batch 4096");
        }
        if (n % 4096 != 0) {
            expected.push_back("batch " + std::to_string(n % 4096));
        }
    };
    for (const size_t n : {size_t{40000}, size_t{5000}, size_t{4096},
                           size_t{31}, size_t{4097}, size_t{8192}}) {
        run(n);
        encoder.OnContextSwitch();
        expected.push_back("switch");
    }
    run(12345);
    encoder.OnMapRegion(2, 0x40000000, 0x2000, vm::PageKind::kData);
    expected.push_back(
        OpLogHost::MapLine(2, 0x40000000, 0x2000, vm::PageKind::kData));
    run(100);

    std::string error;
    const auto recovered = RecoverTraceBytes(
        EncodeTraceFile({encoder.Finish(recorded.size())}), &error);
    ASSERT_TRUE(recovered.has_value()) << error;
    ASSERT_EQ(recovered->streams.size(), 1u);
    for (const ReplayKernel kernel : HostKernels()) {
        SCOPED_TRACE(KernelName(kernel));
        BatchLogHost host;
        EXPECT_EQ(ReplayStreamWith(recovered->streams[0], host, kernel)
                      .accesses,
                  recorded.size());
        EXPECT_EQ(host.log, expected);
        ASSERT_EQ(host.refs.size(), recorded.size());
        for (size_t i = 0; i < recorded.size(); ++i) {
            ASSERT_EQ(OpLogHost::AccessLine(host.refs[i]),
                      OpLogHost::AccessLine(recorded[i]))
                << "reference " << i;
        }
    }
}

TEST(TraceTest, AccessBatchesEncodeLikeSingleAccesses)
{
    // TraceEncoder::OnAccesses mixes 4 written bytes of the open batch
    // into the op digest after each access while at least 4 are unmixed,
    // and FlushBatch mixes the rest.  This test tracks that lag itself.
    // Eight batches fill to 64 KiB and are closed by a switch with 0-7
    // bytes unmixed before it; the last grows past 128 KiB with no
    // switch, so the buffer is reallocated inside an AccessBatch call,
    // and Finish closes it with nothing unmixed.  Accesses carry 1-5
    // byte deltas and setpids.  Recording one at a time and in batches
    // of 1, 7, 1500 and 4096 must all give the stream built here, whose
    // E digest is DigestMix over the payloads computed here.
    struct Op {
        enum Kind : uint8_t { kCreate, kMap, kSwitch, kAccess } kind;
        MemRef ref;
    };
    constexpr size_t kFlushBytes = 64 * 1024;
    Rng rng(0x5eed0022);
    std::vector<Op> ops;
    std::vector<std::string> payloads(1);
    size_t mixed = 0;  // Bytes of payloads.back() in the digest.
    uint64_t op_count = 0;
    uint64_t accesses = 0;
    Pid current = 0;  // Host pid of the last setpid; 0 before the first.
    ProcessAddr addr = 0;  // The encoder's delta base starts at 0.
    std::vector<size_t> closing_lags;

    const auto lag = [&] { return payloads.back().size() - mixed; };
    const auto create = [&] {
        ops.push_back(Op{Op::kCreate, {}});
        payloads.back() += '\0' + Leb128(op_count);  // Pids 0, 1, 2.
        ++op_count;
    };
    // An access whose delta is a @p varint_bytes varint (1-5).
    const auto access = [&](Pid pid, unsigned varint_bytes) {
        const uint64_t least =
            varint_bytes == 1 ? 1 : (uint64_t{1} << (7 * varint_bytes - 8)) + 1;
        const uint64_t magnitude = least + rng.NextBelow(least);
        const int64_t delta = addr >= 0x80000000
                                  ? -static_cast<int64_t>(magnitude)
                                  : static_cast<int64_t>(magnitude);
        addr = static_cast<ProcessAddr>(static_cast<int64_t>(addr) + delta);
        const auto type = static_cast<AccessType>(rng.NextBelow(3));
        ops.push_back(Op{Op::kAccess, MemRef{pid, addr, type}});
        if (pid != current) {
            payloads.back() += '\x05' + Leb128(pid - 1);
            current = pid;
            ++op_count;
        }
        const std::string delta_bytes = Leb128(Zigzag(delta));
        ASSERT_EQ(delta_bytes.size(), varint_bytes);
        payloads.back() += static_cast<char>(6 + static_cast<int>(type)) +
                           delta_bytes;
        ++op_count;
        ++accesses;
        if (lag() >= 4) {
            mixed += 4;
        }
    };
    const auto random_access = [&] {
        Pid pid = current;
        if (pid == 0 || rng.NextBelow(300) == 0) {
            pid = static_cast<Pid>(1 + rng.NextBelow(3));
        }
        access(pid, 1 + static_cast<unsigned>(rng.NextBelow(5)));
    };
    // Accesses of known size from the current pid walk the lag to
    // @p target: a 2-byte op takes 2 off it, 3 bytes 1, 5 adds 1, 6 adds 2.
    const auto steer = [&](size_t target) {
        while (lag() != target) {
            const size_t now = lag();
            const unsigned op_bytes =
                now > target ? (now - target >= 2 ? 2 : 3)
                             : (target - now >= 2 ? 6 : 5);
            access(current, op_bytes - 1);
        }
    };

    create();
    create();
    create();
    ops.push_back(Op{Op::kMap, {}});
    payloads.back() += "\x02" + Leb128(0) + Leb128(0x40000000) +
                       Leb128(0x2000) + "\x01";
    ++op_count;
    for (size_t target = 0; target < 8; ++target) {
        while (payloads.back().size() < kFlushBytes) {
            random_access();
            if (payloads.back().size() < kFlushBytes - 64 &&
                rng.NextBelow(2000) == 0) {
                ops.push_back(Op{Op::kSwitch, {}});  // Closes no batch.
                payloads.back() += '\x04';
                ++op_count;
            }
        }
        steer(target);
        closing_lags.push_back(lag());
        ops.push_back(Op{Op::kSwitch, {}});
        payloads.back() += '\x04';
        ++op_count;
        payloads.emplace_back();
        mixed = 0;
    }
    while (payloads.back().size() < 140 * 1024) {
        random_access();
    }
    steer(0);
    ASSERT_EQ(closing_lags, (std::vector<size_t>{0, 1, 2, 3, 4, 5, 6, 7}));

    uint64_t digest = framed_log::kDigestInit;
    for (const std::string& payload : payloads) {
        digest = framed_log::DigestMix(digest, payload);
    }
    const std::string expected =
        HandBuiltStream("lag", payloads, op_count, accesses);
    ASSERT_NE(expected.find("\"digest\": \"" + framed_log::DigestHex(digest) +
                            "\""),
              std::string::npos);

    // batch == 0: one RecordingHost::Access call per reference.
    for (const size_t batch : {0, 1, 7, 1500, 4096}) {
        CountingHost counting(sim::MachineConfig::Prototype(8));
        TraceEncoder encoder(MetaFor("lag", 1, accesses));
        RecordingHost recorder(counting, encoder);
        std::vector<MemRef> pending;
        const auto drain = [&] {
            if (!pending.empty()) {
                recorder.AccessBatch(pending.data(), pending.size());
                pending.clear();
            }
        };
        for (const Op& op : ops) {
            if (op.kind != Op::kAccess) {
                drain();
            }
            switch (op.kind) {
              case Op::kCreate:
                recorder.CreateProcess();
                break;
              case Op::kMap:
                recorder.MapRegion(1, 0x40000000, 0x2000,
                                   vm::PageKind::kData);
                break;
              case Op::kSwitch:
                recorder.OnContextSwitch();
                break;
              case Op::kAccess:
                if (batch == 0) {
                    recorder.Access(op.ref);
                } else {
                    pending.push_back(op.ref);
                    if (pending.size() == batch) {
                        drain();
                    }
                }
                break;
            }
        }
        drain();
        EXPECT_EQ(counting.accesses(), accesses);
        const std::string framed = encoder.Finish(accesses);
        const auto differ = std::mismatch(framed.begin(), framed.end(),
                                          expected.begin(), expected.end());
        EXPECT_TRUE(framed == expected)
            << "batch " << batch << ": " << framed.size() << " vs "
            << expected.size() << " bytes, first difference at byte "
            << (differ.first - framed.begin());
    }
}

// A library that does not load is an error the caller reports (every
// tool and session exits 1 on it), not a death.
TEST(TraceDeathTest, RejectsMissingFile)
{
    TraceLibrary library;
    std::string error;
    EXPECT_FALSE(library.Load("/nonexistent/nope.trc", &error));
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(TraceDeathTest, RejectsBadMagic)
{
    ScopedTempDir tmp;
    const std::string path = tmp.Path("bad.trc");
    WriteFile(path, "NOTATRACEFILE...");
    TraceLibrary library;
    std::string error;
    EXPECT_FALSE(library.Load(path, &error));
    EXPECT_NE(error.find("not a SPUR-TRACE/1"), std::string::npos) << error;
}

TEST(TraceDeathTest, EncoderRejectsUnknownPidAndAccessType)
{
    const auto encoder = [] {
        auto e = std::make_unique<TraceEncoder>(MetaFor("bad", 1, 1));
        e->OnCreateProcess(3);
        e->OnAccess(MemRef{3, 0x10, AccessType::kRead});
        return e;
    };
    EXPECT_EXIT(encoder()->OnAccess(MemRef{4, 0x10, AccessType::kRead}),
                testing::ExitedWithCode(1), "pid 4 was not created");
    // Destroying the current pid drops OnAccess's pid cache with it.
    EXPECT_EXIT(
        {
            auto e = encoder();
            e->OnDestroyProcess(3);
            e->OnAccess(MemRef{3, 0x10, AccessType::kRead});
        },
        testing::ExitedWithCode(1), "pid 3 was not created");
    EXPECT_EXIT(
        encoder()->OnAccess(MemRef{3, 0x10, static_cast<AccessType>(3)}),
        testing::ExitedWithCode(1), "invalid access type 3");
}

TEST(TraceDeathTest, RejectsGeometryMismatch)
{
    ScopedTempDir tmp;
    const std::string path = tmp.Path("geometry.trc");
    const TraceStreamMeta meta = MetaFor("ctx-switch", 5, 60'000);
    CountingHost host(sim::MachineConfig::Prototype(8));
    const Recorded rec = Record(meta, MakeCtxSwitchHeavy(), host);
    WriteFile(path, EncodeTraceFile({rec.framed}));

    TraceLibrary library;
    std::string error;
    ASSERT_TRUE(library.Load(path, &error)) << error;
    sim::MachineConfig other = sim::MachineConfig::Prototype(8);
    other.page_bytes *= 2;
    CountingHost mismatched(other);
    EXPECT_EXIT(ReplayStream(library.streams()[0], mismatched),
                testing::ExitedWithCode(1), "recorded at page/block");
}

// ---- Golden files -----------------------------------------------------

/**
 * Compares produced trace bytes against a checked-in golden.  An
 * intentional format change regenerates them with SPUR_UPDATE_GOLDEN=1
 * (and is a schema event: bump kTraceVersion).
 */
void
CheckGolden(const std::string& name, const std::string& produced)
{
    const std::string golden_path =
        std::string(SPUR_SOURCE_ROOT) + "/tests/golden/" + name;
    if (std::getenv("SPUR_UPDATE_GOLDEN") != nullptr) {
        WriteFile(golden_path, produced);
    }
    EXPECT_EQ(produced, ReadFile(golden_path))
        << name << " drifted from tests/golden/ — if intentional, bump "
        << "kTraceVersion and rerun with SPUR_UPDATE_GOLDEN=1";
}

TEST(TraceGoldenTest, EmptyTraceMatchesGolden)
{
    CheckGolden("trace_empty", EncodeTraceFile({}));
}

/** A tiny hand-scripted stream, independent of any workload tuning. */
std::string
GoldenStream()
{
    TraceStreamMeta meta;
    meta.workload = "golden";
    meta.seed = 42;
    meta.refs = 6;
    meta.page_bytes = 4096;
    meta.block_bytes = 32;
    TraceEncoder encoder(meta);
    encoder.OnCreateProcess(9);  // Host pid 9 normalizes to trace pid 0.
    encoder.OnMapRegion(9, 0x40000000, 0x2000, vm::PageKind::kData);
    encoder.OnAccess(MemRef{9, 0x40000010, AccessType::kRead});
    encoder.OnAccess(MemRef{9, 0x40000014, AccessType::kWrite});
    encoder.OnContextSwitch();
    encoder.OnCreateProcess(4);
    encoder.OnShareSegment(4, 0, 9, 0);
    encoder.OnAccess(MemRef{4, 0x00000020, AccessType::kIFetch});
    encoder.OnDestroyProcess(4);
    return encoder.Finish(6);
}

TEST(TraceGoldenTest, SmallTraceMatchesGolden)
{
    const std::string file = EncodeTraceFile({GoldenStream()});
    CheckGolden("trace_small", file);

    // The golden bytes must also recover completely and re-encode to
    // themselves (the parser fix-point the fuzzer generalizes).
    std::string error;
    const auto recovered = RecoverTraceBytes(file, &error);
    ASSERT_TRUE(recovered.has_value()) << error;
    EXPECT_TRUE(recovered->complete);
    ASSERT_EQ(recovered->streams.size(), 1u);
    EXPECT_EQ(recovered->streams[0].accesses, 3u);
    EXPECT_EQ(EncodeTraceFile({recovered->streams[0].framed}), file);

    // So must the views of the same bytes loaded from a file.
    ScopedTempDir tmp;
    const std::string path = tmp.Path("golden.trc");
    WriteFile(path, file);
    TraceLibrary library;
    ASSERT_TRUE(library.Load(path, &error)) << error;
    ASSERT_EQ(library.streams().size(), 1u);
    EXPECT_EQ(EncodeTraceFile({library.streams()[0].framed}), file);
}

}  // namespace
}  // namespace spur::workload
