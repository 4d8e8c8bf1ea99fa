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

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/common/framed_log.h"
#include "src/core/system.h"
#include "src/workload/trace.h"
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

/** Records @p spec against @p host per the RunOnce recording recipe. */
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
    // assign pids differently, but the trace bytes must not see it.
    const sim::MachineConfig config = sim::MachineConfig::Prototype(8);
    const TraceStreamMeta meta = MetaFor("ctx-switch", 3, 80'000);
    CountingHost counting(config);
    const Recorded counted = Record(meta, MakeCtxSwitchHeavy(), counting);
    core::SpurSystem live(config, policy::DirtyPolicyKind::kSpur,
                          policy::RefPolicyKind::kMiss);
    const Recorded simulated = Record(meta, MakeCtxSwitchHeavy(), live);
    EXPECT_EQ(counted.framed, simulated.framed);
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

    core::SpurSystem replayed(config, policy::DirtyPolicyKind::kSpur,
                              policy::RefPolicyKind::kMiss);
    const ReplayStats stats = ReplayTrace(path, replayed);
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
    core::SpurSystem fault_system(config, policy::DirtyPolicyKind::kFault,
                                  policy::RefPolicyKind::kMiss);
    ReplayTrace(path, fault_system);
    core::SpurSystem spur_system(config, policy::DirtyPolicyKind::kSpur,
                                 policy::RefPolicyKind::kMiss);
    ReplayTrace(path, spur_system);
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

TEST(TraceDeathTest, RejectsMissingFile)
{
    CountingHost host(sim::MachineConfig::Prototype(8));
    EXPECT_EXIT(ReplayTrace("/nonexistent/nope.trc", host),
                testing::ExitedWithCode(1), "cannot open");
}

TEST(TraceDeathTest, RejectsBadMagic)
{
    ScopedTempDir tmp;
    const std::string path = tmp.Path("bad.trc");
    WriteFile(path, "NOTATRACEFILE...");
    CountingHost host(sim::MachineConfig::Prototype(8));
    EXPECT_EXIT(ReplayTrace(path, host), testing::ExitedWithCode(1),
                "not a SPUR-TRACE/1");
}

TEST(TraceDeathTest, RejectsGeometryMismatch)
{
    ScopedTempDir tmp;
    const std::string path = tmp.Path("geometry.trc");
    const TraceStreamMeta meta = MetaFor("ctx-switch", 5, 60'000);
    CountingHost host(sim::MachineConfig::Prototype(8));
    const Recorded rec = Record(meta, MakeCtxSwitchHeavy(), host);
    WriteFile(path, EncodeTraceFile({rec.framed}));

    sim::MachineConfig other = sim::MachineConfig::Prototype(8);
    other.page_bytes *= 2;
    CountingHost mismatched(other);
    EXPECT_EXIT(ReplayTrace(path, mismatched),
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
}

}  // namespace
}  // namespace spur::workload
