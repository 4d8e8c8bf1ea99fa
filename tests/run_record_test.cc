/**
 * @file
 * Tests for the machine-readable run records (src/stats/run_record.h):
 * JSON escaping, document shape, file output, and the BenchSession
 * harness that collects records behind the --jobs/--json flags.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/common/args.h"
#include "src/runner/runner.h"
#include "src/runner/session.h"
#include "src/stats/run_record.h"

namespace spur::stats {
namespace {

/** A document header naming @p bench, with no cell count. */
DocumentMeta
MetaFor(const std::string& bench)
{
    DocumentMeta meta;
    meta.bench = bench;
    return meta;
}

TEST(JsonWriterTest, EscapesSpecialCharacters)
{
    EXPECT_EQ(JsonWriter::Escape("plain"), "plain");
    EXPECT_EQ(JsonWriter::Escape("a\"b"), "a\\\"b");
    EXPECT_EQ(JsonWriter::Escape("a\\b"), "a\\\\b");
    EXPECT_EQ(JsonWriter::Escape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(JsonWriter::Escape(std::string("a\x01z", 3)), "a\\u0001z");
}

TEST(JsonWriterTest, RecordRendersFlatObject)
{
    RunRecord record;
    record.bench = "bench_x";
    record.workload = "SLC";
    record.dirty_policy = "SPUR";
    record.ref_policy = "MISS";
    record.memory_mb = 8;
    record.rep = 2;
    record.seed = 1000020;
    record.refs_issued = 300000;
    record.page_ins = 1234;
    record.page_outs = 567;
    record.elapsed_seconds = 12.5;
    record.AddMetric("n_ds", 42.0);
    const std::string json = JsonWriter::ToJson(record);
    EXPECT_NE(json.find("\"bench\": \"bench_x\""), std::string::npos);
    EXPECT_NE(json.find("\"workload\": \"SLC\""), std::string::npos);
    EXPECT_NE(json.find("\"memory_mb\": 8"), std::string::npos);
    EXPECT_NE(json.find("\"rep\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"seed\": 1000020"), std::string::npos);
    EXPECT_NE(json.find("\"page_ins\": 1234"), std::string::npos);
    EXPECT_NE(json.find("\"elapsed_seconds\": 12.5"), std::string::npos);
    EXPECT_NE(json.find("\"n_ds\": 42"), std::string::npos);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
}

TEST(JsonWriterTest, NonFiniteNumbersBecomeNull)
{
    RunRecord record;
    record.elapsed_seconds = std::numeric_limits<double>::infinity();
    record.AddMetric("bad", std::numeric_limits<double>::quiet_NaN());
    const std::string json = JsonWriter::ToJson(record);
    EXPECT_NE(json.find("\"elapsed_seconds\": null"), std::string::npos);
    EXPECT_NE(json.find("\"bad\": null"), std::string::npos);
    EXPECT_EQ(json.find("inf"), std::string::npos);
    EXPECT_EQ(json.find("nan"), std::string::npos);
}

TEST(JsonWriterTest, DocumentWrapsRecordsArray)
{
    const std::string empty = JsonWriter::ToJson(MetaFor("b"), {});
    EXPECT_EQ(empty,
              "{\"schema_version\": 1, \"bench\": \"b\", "
              "\"shard\": {\"index\": 0, \"count\": 1, "
              "\"total_cells\": 0, \"ran_cells\": 0}, "
              "\"records\": [\n]}\n");

    std::vector<RunRecord> records(2);
    records[0].bench = "b";
    records[1].bench = "b";
    const std::string two = JsonWriter::ToJson(MetaFor("b"), records);
    // Two objects, comma-separated, inside the records array.
    size_t count = 0;
    for (size_t pos = 0;
         (pos = two.find("\"bench\": \"b\"", pos)) != std::string::npos;
         ++pos) {
        ++count;
    }
    EXPECT_EQ(count, 3u);  // Document header + one per record.
}

TEST(JsonWriterTest, WritesFile)
{
    const std::string path = ::testing::TempDir() + "run_record_test.json";
    RunRecord record;
    record.bench = "file_test";
    ASSERT_TRUE(JsonWriter::WriteFile(path, MetaFor("file_test"), {record}));
    FILE* file = std::fopen(path.c_str(), "r");
    ASSERT_NE(file, nullptr);
    char buffer[512] = {};
    const size_t read = std::fread(buffer, 1, sizeof(buffer) - 1, file);
    std::fclose(file);
    std::remove(path.c_str());
    const std::string contents(buffer, read);
    EXPECT_NE(contents.find("\"bench\": \"file_test\""),
              std::string::npos);
}

TEST(JsonWriterTest, WriteFileFailsOnBadPath)
{
    EXPECT_FALSE(
        JsonWriter::WriteFile("/nonexistent-dir/x.json", MetaFor("b"), {}));
}

}  // namespace
}  // namespace spur::stats

namespace spur::runner {
namespace {

/** A session named @p name over the command line @p words (words[0]
 *  is the program). */
std::unique_ptr<BenchSession>
MakeSession(std::vector<std::string> words, const std::string& name = "t")
{
    std::vector<char*> argv;
    for (std::string& word : words) {
        argv.push_back(word.data());
    }
    return std::make_unique<BenchSession>(
        name, static_cast<int>(argv.size()), argv.data());
}

TEST(BenchSessionTest, ParsesJobsFlag)
{
    const auto session = MakeSession({"bench", "--jobs=3"});
    EXPECT_EQ(session->jobs(), 3u);
}

TEST(BenchSessionTest, DefaultsToHardwareJobs)
{
    const auto session = MakeSession({"bench"});
    EXPECT_EQ(session->jobs(), HardwareJobs());
}

TEST(BenchSessionTest, ReadsTheSuiteFlags)
{
    const auto given =
        MakeSession({"bench", "--refs=2", "--reps=3", "--seed=9"});
    EXPECT_EQ(given->Refs(6), 2'000'000u);
    EXPECT_EQ(given->Reps(1), 3u);
    EXPECT_EQ(given->Seed(1), 9u);
    const auto absent = MakeSession({"bench"});
    EXPECT_EQ(absent->Refs(6), 6'000'000u);
    EXPECT_EQ(absent->Refs(0), 0u);  // Each workload's own budget.
    EXPECT_EQ(absent->Reps(3), 3u);
    EXPECT_EQ(absent->Seed(21), 21u);
}

TEST(BenchSessionTest, SuiteFlagsRejectWhatTheirTypesCannotHold)
{
    // --refs counts millions, so its limit is the largest count whose
    // product still fits 64 bits; --reps and --jobs are 32-bit, and
    // --reps is at least 1.
    std::string error;
    const auto parse = [&](const std::string& word) {
        return Args::Parse({word}, SessionFlags(), 0, &error).has_value();
    };
    EXPECT_TRUE(parse("--refs=18446744073709"));
    EXPECT_FALSE(parse("--refs=18446744073710"));
    EXPECT_TRUE(parse("--reps=4294967295"));
    EXPECT_FALSE(parse("--reps=4294967296"));
    EXPECT_FALSE(parse("--reps=0"));  // It would print an all-zero table.
    EXPECT_FALSE(parse("--jobs=4294967296"));
    for (const char* word : {"--refs=abc", "--refs=-1", "--refs", "--seed=1x",
                             "--json", "--no-such-flag", "--csv"}) {
        EXPECT_FALSE(parse(word)) << word;
    }
    // The binary's own flags come after the session's.
    EXPECT_TRUE(Args::Parse({"--scenarios", "--refs=1"},
                            SessionFlags({{"scenarios"}}), 0, &error)
                    .has_value())
        << error;
}

core::RunConfig
SmallRun()
{
    core::RunConfig config;
    config.workload = core::WorkloadId::kSlc;
    config.refs = 100'000;
    return config;
}

std::string
ReadWholeFile(const std::string& path)
{
    std::string contents;
    FILE* file = std::fopen(path.c_str(), "r");
    if (file == nullptr) {
        return contents;
    }
    char buffer[4096];
    size_t read = 0;
    while ((read = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
        contents.append(buffer, read);
    }
    std::fclose(file);
    return contents;
}

TEST(BenchSessionTest, MatrixRunsAreRecordedInConfigOrder)
{
    const auto session = MakeSession({"bench", "--jobs=2"});
    const core::RunConfig config = SmallRun();
    std::vector<core::RunConfig> configs(2, config);
    configs[1].memory_mb = 5;
    session->RunMatrix(configs, /*reps=*/2);
    ASSERT_EQ(session->records().size(), 4u);
    EXPECT_EQ(session->records()[0].rep, 0u);
    EXPECT_EQ(session->records()[1].rep, 1u);
    EXPECT_EQ(session->records()[2].memory_mb, 5u);
    EXPECT_EQ(session->records()[0].seed, CellSeed(config.seed, 0));
    EXPECT_EQ(session->records()[1].seed, CellSeed(config.seed, 1));
    EXPECT_EQ(session->records()[0].bench, "t");
    EXPECT_GT(session->records()[0].refs_issued, 0u);
}

TEST(BenchSessionTest, MatrixCellsRunAtTheirDerivedSeeds)
{
    const auto session = MakeSession({"bench", "--jobs=3"});
    std::vector<core::RunConfig> configs(2, SmallRun());
    configs[1].seed = 6;
    configs[1].ref = policy::RefPolicyKind::kNoRef;
    const auto results = session->RunMatrix(configs, /*reps=*/2);
    ASSERT_EQ(results.size(), 2u);
    for (size_t i = 0; i < configs.size(); ++i) {
        ASSERT_EQ(results[i].size(), 2u);
        for (uint32_t r = 0; r < 2; ++r) {
            core::RunConfig cell = configs[i];
            cell.seed = CellSeed(configs[i].seed, r);
            const core::RunResult expected = core::RunOnce(cell);
            EXPECT_EQ(results[i][r].refs_issued, expected.refs_issued);
            EXPECT_EQ(results[i][r].page_ins, expected.page_ins);
            EXPECT_EQ(results[i][r].events.TotalMisses(),
                      expected.events.TotalMisses());
            EXPECT_DOUBLE_EQ(results[i][r].elapsed_seconds,
                             expected.elapsed_seconds);
        }
    }
}

TEST(BenchSessionTest, RunAllRecordsInInputOrderAtAnyJobCount)
{
    std::vector<core::RunConfig> configs(3, SmallRun());
    configs[0].seed = 11;
    configs[1].seed = 4;
    configs[1].memory_mb = 5;
    configs[2].seed = 9;
    std::string documents[2];
    const char* jobs[2] = {"--jobs=1", "--jobs=4"};
    for (int k = 0; k < 2; ++k) {
        const auto session = MakeSession({"bench", jobs[k]});
        session->RunAll(configs);
        const std::vector<stats::RunRecord> records = session->records();
        ASSERT_EQ(records.size(), configs.size());
        for (size_t i = 0; i < configs.size(); ++i) {
            EXPECT_EQ(records[i].seed, configs[i].seed);  // Verbatim.
            EXPECT_EQ(records[i].memory_mb, configs[i].memory_mb);
            EXPECT_EQ(records[i].rep, 0u);
        }
        documents[k] = stats::JsonWriter::ToJson(stats::MetaFor("t"), records);
    }
    EXPECT_EQ(documents[0], documents[1]);
}

TEST(BenchSessionTest, FinishWritesJson)
{
    const std::string path = ::testing::TempDir() + "session_test.json";
    const auto session =
        MakeSession({"bench", "--json=" + path, "--jobs=1"}, "session_test");
    session->RunMatrix({SmallRun()}, /*reps=*/2);
    stats::RunRecord record;
    record.AddMetric("custom", 1.0);
    session->Record(std::move(record));
    EXPECT_EQ(session->Finish(), 0);
    const std::string contents = ReadWholeFile(path);
    std::remove(path.c_str());
    // The schema-1 header: one shard that ran every cell.
    EXPECT_EQ(contents.substr(0, contents.find('[') + 1),
              "{\"schema_version\": 1, \"bench\": \"session_test\", "
              "\"shard\": {\"index\": 0, \"count\": 1, "
              "\"total_cells\": 2, \"ran_cells\": 2}, \"records\": [");
    // The bench name was stamped onto the anonymous record.
    ASSERT_EQ(session->records().size(), 3u);
    EXPECT_EQ(session->records()[2].bench, "session_test");
}

/** Finish()'s exit code for a session over @p words that runs
 *  @p configs through RunAll, or no session cell when it is empty;
 *  *warnings gets what Finish() printed. */
int
FinishAfter(std::vector<std::string> words,
            const std::vector<core::RunConfig>& configs,
            std::string* warnings)
{
    const auto session = MakeSession(std::move(words));
    if (!configs.empty()) {
        session->RunAll(configs);
    }
    stats::RunRecord record;  // A bespoke loop's observation.
    record.AddMetric("custom", 1.0);
    session->Record(std::move(record));
    testing::internal::CaptureStderr();
    const int code = session->Finish();
    *warnings = testing::internal::GetCapturedStderr();
    return code;
}

TEST(BenchSessionTest, TraceFlagsFailASessionThatRanNoCell)
{
    // A bench whose own loops run live cannot honour a trace flag; it
    // must fail rather than pass a live run off as recorded or replayed.
    const std::string path = ::testing::TempDir() + "session_test.trc";
    const std::string record = "--record-trace=" + path;
    const std::string replay = "--replay-trace=" + path;
    std::string warnings;
    EXPECT_NE(FinishAfter({"bench", record}, {}, &warnings), 0);
    EXPECT_NE(warnings.find("--record-trace"), std::string::npos)
        << warnings;
    // The file left behind is a valid (empty) trace, so the replay flag
    // fails for the same reason rather than on a bad file.
    EXPECT_NE(FinishAfter({"bench", replay}, {}, &warnings), 0);
    EXPECT_NE(warnings.find("--replay-trace"), std::string::npos)
        << warnings;

    // Sessions that ran a session cell finish cleanly with either flag.
    EXPECT_EQ(FinishAfter({"bench", "--jobs=1", record}, {SmallRun()},
                          &warnings),
              0)
        << warnings;
    EXPECT_EQ(FinishAfter({"bench", "--jobs=1", replay}, {SmallRun()},
                          &warnings),
              0)
        << warnings;
    std::remove(path.c_str());
}

TEST(BenchSessionDeathTest, RemovedFlagsAreFatal)
{
    // The sharding flags are gone like any other undeclared flag: a
    // usage error before the session (and any cell) starts.
    for (const char* flag : {"--shard=1/2", "--stream=x", "--resume=x"}) {
        EXPECT_EXIT(MakeSession({"bench", flag}),
                    testing::ExitedWithCode(2),
                    std::string("bench: unknown flag '") + flag + "'")
            << flag;
    }
}

}  // namespace
}  // namespace spur::runner
