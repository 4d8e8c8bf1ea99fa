/**
 * @file
 * The --record-trace / --replay-trace contract, end to end through
 * runner::BenchSession: for every scenario × dirty policy, a session
 * that records while running live, a session that replays the recorded
 * library, and the plain live session all produce byte-identical
 * --json documents — at --jobs=1 and --jobs=4.  This is the acceptance
 * gate of DESIGN.md §19: one workload generation feeds every cell of a
 * policy matrix, and parallelism never leaks into the bytes.
 */
#include <gtest/gtest.h>

#include <stdlib.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/core/run_trace.h"
#include "src/runner/session.h"
#include "src/workload/trace.h"

namespace spur {
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
        templ += "spur_replay_diff_XXXXXX";
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

/** The scenario × dirty-policy matrix every session here runs. */
std::vector<core::RunConfig>
MatrixConfigs()
{
    const policy::DirtyPolicyKind kinds[] = {
        policy::DirtyPolicyKind::kFault, policy::DirtyPolicyKind::kFlush,
        policy::DirtyPolicyKind::kSpur, policy::DirtyPolicyKind::kWrite,
        policy::DirtyPolicyKind::kMin};
    std::vector<core::RunConfig> configs;
    for (const core::WorkloadId workload : core::kScenarioLibrary) {
        for (const policy::DirtyPolicyKind dirty : kinds) {
            core::RunConfig config;
            config.workload = workload;
            config.dirty = dirty;
            config.memory_mb = 8;
            config.refs = 120'000;
            config.seed = 33;
            configs.push_back(config);
        }
    }
    return configs;
}

/** @p configs moved to @p memory_mb: the same stream identities. */
std::vector<core::RunConfig>
AtMemory(std::vector<core::RunConfig> configs, uint32_t memory_mb)
{
    for (core::RunConfig& config : configs) {
        config.memory_mb = memory_mb;
    }
    return configs;
}

/**
 * Runs the matrix through one BenchSession built from @p flags plus a
 * --json path, returning the document bytes.  All sessions share the
 * bench name, so the documents are comparable byte for byte.  With
 * @p matrices the session then runs two RunMatrix calls at reps = 2,
 * the second over identities the first already placed (as paper-mode
 * Table 3.4 runs one matrix per workload and memory size).
 */
std::string
RunSession(ScopedTempDir& tmp, const std::string& tag,
           std::vector<std::string> flags,
           std::vector<core::RunResult>* results = nullptr,
           bool matrices = false)
{
    const std::string json_path = tmp.Path(tag + ".json");
    flags.push_back("--json=" + json_path);
    std::vector<char*> argv;
    std::string argv0 = "trace_replay_diff";
    argv.push_back(argv0.data());
    for (std::string& flag : flags) {
        argv.push_back(flag.data());
    }
    const Args args(static_cast<int>(argv.size()), argv.data());
    runner::BenchSession session("trace_replay_diff", args);
    std::vector<core::RunResult> run = session.RunAll(MatrixConfigs());
    if (matrices) {
        session.RunMatrix(MatrixConfigs(), /*reps=*/2);
        session.RunMatrix(AtMemory(MatrixConfigs(), 6), /*reps=*/2);
    }
    EXPECT_EQ(session.Finish(), 0) << tag;
    if (results != nullptr) {
        *results = std::move(run);
    }
    return ReadFile(json_path);
}

TEST(TraceReplayDiffTest, ReplayedMatrixIsByteIdenticalAtAnyJobs)
{
    ScopedTempDir tmp;
    const std::string trace_path = tmp.Path("scenarios.trc");

    // Plain live run: the reference bytes.
    std::vector<core::RunResult> live_results;
    const std::string live =
        RunSession(tmp, "live", {"--jobs=1"}, &live_results);
    ASSERT_FALSE(live.empty());

    // Recording must not perturb the run it records.
    const std::string recorded = RunSession(
        tmp, "record", {"--jobs=1", "--record-trace=" + trace_path});
    EXPECT_EQ(recorded, live);

    // Replaying the library reproduces the live bytes — with the
    // generator out of the loop entirely — at one worker and at four.
    std::vector<core::RunResult> replay_results;
    const std::string replay_j1 =
        RunSession(tmp, "replay_j1",
                   {"--jobs=1", "--replay-trace=" + trace_path},
                   &replay_results);
    EXPECT_EQ(replay_j1, live);
    const std::string replay_j4 = RunSession(
        tmp, "replay_j4", {"--jobs=4", "--replay-trace=" + trace_path});
    EXPECT_EQ(replay_j4, live);

    // The in-memory results agree too, not just the serialized ones.
    ASSERT_EQ(replay_results.size(), live_results.size());
    for (size_t i = 0; i < live_results.size(); ++i) {
        EXPECT_EQ(replay_results[i].events.TotalMisses(),
                  live_results[i].events.TotalMisses())
            << i;
        EXPECT_EQ(replay_results[i].events.Get(sim::Event::kDirtyFault),
                  live_results[i].events.Get(sim::Event::kDirtyFault))
            << i;
        EXPECT_EQ(replay_results[i].refs_issued,
                  live_results[i].refs_issued)
            << i;
        EXPECT_EQ(replay_results[i].elapsed_seconds,
                  live_results[i].elapsed_seconds)
            << i;
    }
}

TEST(TraceReplayDiffTest, RecordingAtFourJobsMatchesOneJob)
{
    // The claim-once protocol: whichever cell wins the race to record a
    // stream, the committed bytes are the same, and streams land in the
    // matrix order of their first cells, so a --jobs=4 recording is the
    // --jobs=1 file byte for byte and replays to the same --json.  The
    // sessions also run repeated matrices whose identities are already
    // placed, where only the first cell of each identity records.
    ScopedTempDir tmp;
    const std::string trace_j1 = tmp.Path("j1.trc");
    const std::string trace_j4 = tmp.Path("j4.trc");
    const std::string live_j1 = RunSession(
        tmp, "record_j1", {"--jobs=1", "--record-trace=" + trace_j1},
        nullptr, /*matrices=*/true);
    const std::string live_j4 = RunSession(
        tmp, "record_j4", {"--jobs=4", "--record-trace=" + trace_j4},
        nullptr, /*matrices=*/true);
    EXPECT_EQ(live_j4, live_j1);
    const std::string bytes_j1 = ReadFile(trace_j1);
    const std::string bytes_j4 = ReadFile(trace_j4);
    ASSERT_FALSE(bytes_j1.empty());
    EXPECT_TRUE(bytes_j4 == bytes_j1)
        << "the --jobs=4 recording (" << bytes_j4.size()
        << " bytes) differs from the --jobs=1 recording ("
        << bytes_j1.size() << " bytes)";

    const std::string replay_a = RunSession(
        tmp, "replay_a", {"--jobs=4", "--replay-trace=" + trace_j1},
        nullptr, /*matrices=*/true);
    const std::string replay_b = RunSession(
        tmp, "replay_b", {"--jobs=1", "--replay-trace=" + trace_j4},
        nullptr, /*matrices=*/true);
    EXPECT_EQ(replay_a, live_j1);
    EXPECT_EQ(replay_b, live_j1);
}

/** Identities and encoded bytes of @p n empty streams, distinct by seed. */
void
EmptyStreams(size_t n, std::vector<std::string>* ids,
             std::vector<std::string>* bytes)
{
    for (size_t i = 0; i < n; ++i) {
        workload::TraceStreamMeta meta;
        meta.workload = "WORKLOAD1";
        meta.seed = 100 + i;
        meta.page_bytes = 4096;
        meta.block_bytes = 32;
        ids->push_back(meta.Identity());
        workload::TraceEncoder encoder(meta);
        bytes->push_back(encoder.Finish(0));
    }
}

TEST(TraceRecordSessionTest, StreamsLandInReservedOrder)
{
    // Streams committed last place first, all from one thread, still
    // land in the order they were reserved: an early stream is held
    // until every stream placed before it has landed, and no Commit
    // waits for another.
    ScopedTempDir tmp;
    const std::string path = tmp.Path("ordered.trc");
    core::TraceRecordSession session;
    std::string error;
    ASSERT_TRUE(session.Open(path, &error)) << error;
    std::vector<std::string> ids;
    std::vector<std::string> bytes;
    EmptyStreams(4, &ids, &bytes);
    for (const std::string& id : ids) {
        session.Reserve(id);
    }
    session.Reserve(ids[0]);  // A second cell of a placed stream.
    for (size_t i = ids.size(); i-- > 0;) {
        ASSERT_TRUE(session.Claim(ids[i]));
        session.Commit(ids[i], bytes[i]);
    }
    EXPECT_FALSE(session.Claim(ids[0]));
    ASSERT_TRUE(session.Finish(&error)) << error;
    workload::TraceLibrary library;
    ASSERT_TRUE(library.Load(path, &error)) << error;
    ASSERT_EQ(library.streams().size(), ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
        EXPECT_EQ(library.streams()[i].meta.Identity(), ids[i]) << i;
    }
}

TEST(TraceRecordSessionTest, AStreamThatNeverLandsLeavesAPartialTrace)
{
    // The cell of place 0 fails before it commits; places 1 and 2
    // commit.  Nothing may land out of order, so the file holds no
    // complete stream, recovers as a truncated trace, and Finish()
    // reports it partial.
    ScopedTempDir tmp;
    const std::string path = tmp.Path("partial.trc");
    core::TraceRecordSession session;
    std::string error;
    ASSERT_TRUE(session.Open(path, &error)) << error;
    std::vector<std::string> ids;
    std::vector<std::string> bytes;
    EmptyStreams(3, &ids, &bytes);
    for (const std::string& id : ids) {
        session.Reserve(id);
    }
    ASSERT_TRUE(session.Claim(ids[0]));
    for (size_t i = 1; i < ids.size(); ++i) {
        ASSERT_TRUE(session.Claim(ids[i]));
        session.Commit(ids[i], bytes[i]);
    }
    EXPECT_FALSE(session.Finish(&error));
    EXPECT_NE(error.find("partial"), std::string::npos) << error;

    const auto recovered = workload::RecoverTraceFile(path, &error);
    ASSERT_TRUE(recovered.has_value()) << error;
    EXPECT_FALSE(recovered->complete);
    EXPECT_TRUE(recovered->streams.empty());
}

}  // namespace
}  // namespace spur
