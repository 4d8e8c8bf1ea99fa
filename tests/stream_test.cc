/**
 * @file
 * Tests for crash-tolerant streaming record output (src/sweep/stream.h,
 * DESIGN.md §14): golden files pinning the frame and trailer bytes, the
 * complete-stream == --json document guarantee, a fault-injection
 * harness that truncates a streamed sweep at every byte offset and
 * proves recover + --resume reproduce the uninterrupted document byte
 * for byte, corruption rejection, and the mixed resumed/fresh shard
 * merge contract.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/args.h"
#include "src/core/experiment.h"
#include "src/runner/runner.h"
#include "src/runner/session.h"
#include "src/runner/thread_pool.h"
#include "src/stats/run_record.h"
#include "src/sweep/merge.h"
#include "src/sweep/stream.h"

namespace spur::sweep {
namespace {

Args
MakeArgs(std::vector<std::string> words)
{
    static std::vector<std::string> storage;
    storage = std::move(words);
    static std::vector<char*> argv;
    argv.clear();
    for (std::string& word : storage) {
        argv.push_back(word.data());
    }
    return Args(static_cast<int>(argv.size()), argv.data());
}

std::string
ReadFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream contents;
    contents << in.rdbuf();
    return contents.str();
}

void
WriteFile(const std::string& path, const std::string& contents)
{
    std::ofstream out(path, std::ios::binary);
    out << contents;
    ASSERT_TRUE(out.good()) << path;
}

std::string
TempPath(const std::string& name)
{
    return testing::TempDir() + name;
}

/**
 * A fast 3x3 matrix (3 configs x 3 reps) whose cells all have distinct
 * identities; small enough that the every-byte-offset harness stays in
 * test-suite time.
 */
std::vector<core::RunConfig>
TinyMatrix()
{
    core::RunConfig base;
    base.workload = core::WorkloadId::kSlc;
    base.memory_mb = 8;
    base.refs = 3'000;
    base.seed = 5;
    std::vector<core::RunConfig> configs(3, base);
    configs[1].ref = policy::RefPolicyKind::kNoRef;
    configs[2].dirty = policy::DirtyPolicyKind::kFault;
    return configs;
}

/** The --json bytes a session would write, without touching disk. */
std::string
SessionDocument(const runner::BenchSession& session,
                const std::string& bench)
{
    stats::DocumentMeta meta;
    meta.bench = bench;
    meta.shard_index = session.shard().index;
    meta.shard_count = session.shard().count;
    meta.total_cells = session.total_cells();
    meta.ran_cells = session.ran_cells();
    return stats::JsonWriter::ToJson(meta, session.records());
}

/** One fixed record for byte-format goldens (never actually run). */
stats::RunRecord
GoldenRecord()
{
    stats::RunRecord record;
    record.bench = "golden";
    record.workload = "SLC";
    record.dirty_policy = "SPUR";
    record.ref_policy = "MISS";
    record.memory_mb = 8;
    record.rep = 1;
    record.seed = 42;
    record.refs_issued = 1000;
    record.page_ins = 12;
    record.page_outs = 3;
    record.elapsed_seconds = 0.25;
    record.AddMetric("n_ds", 7.0);
    return record;
}

// ---- Golden files -----------------------------------------------------

/**
 * Compares a freshly written stream against its checked-in golden.  An
 * intentional format change regenerates them with
 * SPUR_UPDATE_GOLDEN=1 (and is a schema event: bump kStreamVersion).
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
        << "kStreamVersion and rerun with SPUR_UPDATE_GOLDEN=1";
}

TEST(StreamGoldenTest, EmptyMatrixStreamMatchesGolden)
{
    const std::string path = TempPath("stream_golden_empty");
    StreamWriter writer;
    std::string error;
    ASSERT_TRUE(writer.Open(path, "golden", 0, 1, &error)) << error;
    stats::DocumentMeta meta;
    meta.bench = "golden";
    ASSERT_TRUE(writer.Finish(meta, &error)) << error;
    CheckGolden("stream_empty.json", ReadFile(path));
    std::remove(path.c_str());
}

TEST(StreamGoldenTest, SingleRecordStreamMatchesGolden)
{
    const std::string path = TempPath("stream_golden_single");
    StreamWriter writer;
    std::string error;
    ASSERT_TRUE(writer.Open(path, "golden", 0, 1, &error)) << error;
    ASSERT_TRUE(writer.Append(GoldenRecord(), &error)) << error;
    EXPECT_EQ(writer.appended(), 1u);
    stats::DocumentMeta meta;
    meta.bench = "golden";
    meta.total_cells = 1;
    meta.ran_cells = 1;
    ASSERT_TRUE(writer.Finish(meta, &error)) << error;
    const std::string produced = ReadFile(path);
    CheckGolden("stream_single.json", produced);

    // The golden bytes must recover to the exact --json document.
    const std::optional<RecoveredStream> recovered =
        RecoverStreamBytes(produced, &error);
    ASSERT_TRUE(recovered.has_value()) << error;
    EXPECT_TRUE(recovered->complete);
    EXPECT_EQ(ToJson(recovered->document),
              stats::JsonWriter::ToJson(meta, {GoldenRecord()}));
    std::remove(path.c_str());
}

// ---- Complete streams -------------------------------------------------

TEST(StreamTest, CompleteStreamRecoversToJsonDocument)
{
    const auto configs = TinyMatrix();
    const std::string stream_path = TempPath("stream_complete");
    runner::BenchSession session(
        "t", MakeArgs({"bench", "--jobs=2", "--stream=" + stream_path}));
    session.RunMatrix(configs, /*reps=*/3, /*shuffle_seed=*/7);
    EXPECT_EQ(session.Finish(), 0);

    std::string error;
    const std::optional<RecoveredStream> recovered =
        RecoverStreamFile(stream_path, &error);
    ASSERT_TRUE(recovered.has_value()) << error;
    EXPECT_TRUE(recovered->complete);
    EXPECT_EQ(recovered->dropped_bytes, 0u);
    EXPECT_EQ(recovered->document.records.size(), 9u);
    EXPECT_EQ(ToJson(recovered->document), SessionDocument(session, "t"));
    std::remove(stream_path.c_str());
    runner::SetDefaultJobs(0);
}

// ---- Fault injection --------------------------------------------------

/**
 * The determinism guarantee extended to crashes: a stream cut at EVERY
 * byte offset recovers to a partial document from which --resume
 * reproduces the uninterrupted session's bytes exactly.
 */
TEST(StreamFaultInjectionTest, EveryTruncationOffsetResumesByteIdentically)
{
    const auto configs = TinyMatrix();
    const uint32_t reps = 3;
    const std::string stream_path = TempPath("stream_fault");
    runner::BenchSession full(
        "t", MakeArgs({"bench", "--jobs=1", "--stream=" + stream_path}));
    full.RunMatrix(configs, reps, /*shuffle_seed=*/7);
    ASSERT_EQ(full.Finish(), 0);
    const std::string expected = SessionDocument(full, "t");
    const std::string stream = ReadFile(stream_path);
    std::remove(stream_path.c_str());
    ASSERT_GT(stream.size(), 100u);

    const std::string resume_path = TempPath("stream_fault_resume");
    for (size_t cut = 0; cut < stream.size(); ++cut) {
        std::string error;
        const std::optional<RecoveredStream> recovered =
            RecoverStreamBytes(stream.substr(0, cut), &error);
        ASSERT_TRUE(recovered.has_value())
            << "cut at byte " << cut << ": " << error;
        // A proper prefix always lacks (part of) the trailer.
        EXPECT_FALSE(recovered->complete) << "cut at byte " << cut;

        WriteFile(resume_path, ToJson(recovered->document));
        runner::BenchSession resumed(
            "t",
            MakeArgs({"bench", "--jobs=1", "--resume=" + resume_path}));
        resumed.RunMatrix(configs, reps, /*shuffle_seed=*/7);
        EXPECT_EQ(resumed.resumed_cells(),
                  recovered->document.records.size())
            << "cut at byte " << cut;
        EXPECT_EQ(resumed.ran_cells(), 9u) << "cut at byte " << cut;
        ASSERT_EQ(SessionDocument(resumed, "t"), expected)
            << "cut at byte " << cut;
    }

    // The uncut stream is the complete document.
    std::string error;
    const std::optional<RecoveredStream> whole =
        RecoverStreamBytes(stream, &error);
    ASSERT_TRUE(whole.has_value()) << error;
    EXPECT_TRUE(whole->complete);
    EXPECT_EQ(ToJson(whole->document), expected);
    std::remove(resume_path.c_str());
    runner::SetDefaultJobs(0);
}

// ---- Corruption is a hard error ---------------------------------------

TEST(StreamRecoverTest, RejectsNonStreamBytes)
{
    std::string error;
    EXPECT_FALSE(
        RecoverStreamBytes("{\"schema_version\": 1}\n", &error).has_value());
    EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(StreamRecoverTest, ShortMagicPrefixIsTruncationNotCorruption)
{
    std::string error;
    const std::optional<RecoveredStream> recovered =
        RecoverStreamBytes("SPUR-ST", &error);
    ASSERT_TRUE(recovered.has_value()) << error;
    EXPECT_FALSE(recovered->complete);
    EXPECT_TRUE(recovered->document.records.empty());
}

TEST(StreamRecoverTest, RejectsUnknownFrameTag)
{
    std::string bytes = kStreamMagic;
    bytes += "X 3\nabc\n";
    std::string error;
    EXPECT_FALSE(RecoverStreamBytes(bytes, &error).has_value());
    EXPECT_NE(error.find("tag"), std::string::npos) << error;
}

/** A complete in-memory stream to tamper with. */
std::string
BuildStream(uint64_t records)
{
    // One file per test: ctest runs the tamper tests in parallel.
    const std::string path =
        TempPath(std::string("stream_tamper_") +
                 testing::UnitTest::GetInstance()->current_test_info()->name());
    StreamWriter writer;
    std::string error;
    EXPECT_TRUE(writer.Open(path, "golden", 0, 1, &error)) << error;
    stats::RunRecord record = GoldenRecord();
    for (uint64_t i = 0; i < records; ++i) {
        record.rep = static_cast<uint32_t>(i);
        EXPECT_TRUE(writer.Append(record, &error)) << error;
    }
    stats::DocumentMeta meta;
    meta.bench = "golden";
    meta.total_cells = records;
    meta.ran_cells = records;
    EXPECT_TRUE(writer.Finish(meta, &error)) << error;
    const std::string bytes = ReadFile(path);
    std::remove(path.c_str());
    return bytes;
}

TEST(StreamRecoverTest, RejectsTamperedRecordViaDigest)
{
    std::string bytes = BuildStream(2);
    // Flip one digit inside a record payload: the record still parses
    // and round-trips, so only the trailer digest can catch it.
    const size_t seed_pos = bytes.find("\"seed\": 42");
    ASSERT_NE(seed_pos, std::string::npos);
    bytes[seed_pos + 9] = '7';  // "seed": 42 -> "seed": 72
    std::string error;
    EXPECT_FALSE(RecoverStreamBytes(bytes, &error).has_value());
    EXPECT_NE(error.find("digest"), std::string::npos) << error;
}

TEST(StreamRecoverTest, RejectsTamperedTrailerCount)
{
    std::string bytes = BuildStream(2);
    const size_t pos = bytes.find("{\"records\": 2");
    ASSERT_NE(pos, std::string::npos);
    bytes[pos + 12] = '3';
    std::string error;
    EXPECT_FALSE(RecoverStreamBytes(bytes, &error).has_value());
    EXPECT_NE(error.find("count"), std::string::npos) << error;
}

TEST(StreamRecoverTest, RejectsTrailingGarbageAfterTrailer)
{
    std::string bytes = BuildStream(1);
    bytes += "R 0\n\n";
    std::string error;
    EXPECT_FALSE(RecoverStreamBytes(bytes, &error).has_value());
    EXPECT_NE(error.find("trailer"), std::string::npos) << error;
}

TEST(StreamRecoverTest, RejectsDuplicateHeaderFrame)
{
    const std::string bytes = BuildStream(0);
    const size_t header_start = std::string(kStreamMagic).size();
    const size_t header_end = bytes.find("\nR ", header_start);
    // No records: header then trailer.  Duplicate the header frame.
    const size_t trailer_start = bytes.find("T ", header_start);
    ASSERT_NE(trailer_start, std::string::npos);
    (void)header_end;
    std::string doubled = bytes.substr(0, trailer_start) +
                          bytes.substr(header_start,
                                       trailer_start - header_start) +
                          bytes.substr(trailer_start);
    std::string error;
    EXPECT_FALSE(RecoverStreamBytes(doubled, &error).has_value());
    EXPECT_NE(error.find("header"), std::string::npos) << error;
}

// ---- Resume edge cases ------------------------------------------------

TEST(StreamResumeTest, ResumeFromCompleteDocumentSkipsEverything)
{
    const auto configs = TinyMatrix();
    runner::BenchSession full("t", MakeArgs({"bench", "--jobs=1"}));
    full.RunMatrix(configs, /*reps=*/2, /*shuffle_seed=*/7);
    const std::string resume_path = TempPath("stream_resume_complete");
    WriteFile(resume_path, SessionDocument(full, "t"));

    runner::BenchSession resumed(
        "t", MakeArgs({"bench", "--jobs=1", "--resume=" + resume_path}));
    resumed.RunMatrix(configs, /*reps=*/2, /*shuffle_seed=*/7);
    EXPECT_EQ(resumed.resumed_cells(), 6u);
    EXPECT_EQ(resumed.ran_cells(), 6u);
    EXPECT_EQ(SessionDocument(resumed, "t"), SessionDocument(full, "t"));
    std::remove(resume_path.c_str());
    runner::SetDefaultJobs(0);
}

TEST(StreamResumeTest, ResumeAppliesToRunAllCells)
{
    auto configs = TinyMatrix();
    configs.resize(2);
    runner::BenchSession full("t", MakeArgs({"bench", "--jobs=1"}));
    full.RunAll(configs);
    const std::string resume_path = TempPath("stream_resume_runall");
    WriteFile(resume_path, SessionDocument(full, "t"));

    runner::BenchSession resumed(
        "t", MakeArgs({"bench", "--jobs=1", "--resume=" + resume_path}));
    resumed.RunAll(configs);
    EXPECT_EQ(resumed.resumed_cells(), 2u);
    EXPECT_EQ(SessionDocument(resumed, "t"), SessionDocument(full, "t"));
    std::remove(resume_path.c_str());
    runner::SetDefaultJobs(0);
}

// ---- Mixed resumed/fresh shards merge unchanged -----------------------

TEST(StreamResumeTest, ResumedShardMergesWithFreshShardsByteIdentically)
{
    const auto configs = TinyMatrix();
    const uint32_t reps = 3;

    // The canonical result: the full single-process run, merged (merge
    // of a single document canonicalizes record order).
    runner::BenchSession full("t", MakeArgs({"bench", "--jobs=2"}));
    full.RunMatrix(configs, reps, /*shuffle_seed=*/7);
    std::string error;
    auto full_doc =
        ParseSweepDocument(SessionDocument(full, "t"), &error);
    ASSERT_TRUE(full_doc.has_value()) << error;
    const auto canonical = MergeDocuments({*full_doc}, &error);
    ASSERT_TRUE(canonical.has_value()) << error;

    // Shard 0 streams, "crashes" mid-file, recovers and resumes; shard 1
    // runs fresh.
    const std::string stream_path = TempPath("stream_shard0");
    runner::BenchSession shard0(
        "t", MakeArgs({"bench", "--jobs=2", "--shard=0/2",
                       "--stream=" + stream_path}));
    shard0.RunMatrix(configs, reps, /*shuffle_seed=*/7);
    ASSERT_EQ(shard0.Finish(), 0);
    const std::string stream = ReadFile(stream_path);
    std::remove(stream_path.c_str());
    const std::optional<RecoveredStream> recovered =
        RecoverStreamBytes(stream.substr(0, stream.size() / 2), &error);
    ASSERT_TRUE(recovered.has_value()) << error;

    const std::string resume_path = TempPath("stream_shard0_resume");
    WriteFile(resume_path, ToJson(recovered->document));
    runner::BenchSession resumed(
        "t", MakeArgs({"bench", "--jobs=2", "--shard=0/2",
                       "--resume=" + resume_path}));
    resumed.RunMatrix(configs, reps, /*shuffle_seed=*/7);
    std::remove(resume_path.c_str());

    runner::BenchSession shard1(
        "t", MakeArgs({"bench", "--jobs=2", "--shard=1/2"}));
    shard1.RunMatrix(configs, reps, /*shuffle_seed=*/7);

    auto doc0 = ParseSweepDocument(SessionDocument(resumed, "t"), &error);
    ASSERT_TRUE(doc0.has_value()) << error;
    auto doc1 = ParseSweepDocument(SessionDocument(shard1, "t"), &error);
    ASSERT_TRUE(doc1.has_value()) << error;
    // Both shards pass the standalone accounting check...
    EXPECT_TRUE(ValidateShardAccounting(*doc0, &error)) << error;
    EXPECT_TRUE(ValidateShardAccounting(*doc1, &error)) << error;
    // ...and their merge is byte-identical to the uninterrupted one.
    const auto merged = MergeDocuments({*doc0, *doc1}, &error);
    ASSERT_TRUE(merged.has_value()) << error;
    EXPECT_EQ(ToJson(*merged), ToJson(*canonical));
    runner::SetDefaultJobs(0);
}

}  // namespace
}  // namespace spur::sweep
