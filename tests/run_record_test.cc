/**
 * @file
 * Tests for the machine-readable run records (src/stats/run_record.h):
 * JSON escaping, document shape, file output, and the BenchSession
 * harness that collects records behind the --jobs/--json flags.
 */
#include <gtest/gtest.h>

#include <cstdio>
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

TEST(BenchSessionTest, ParsesJobsFlag)
{
    const Args args = MakeArgs({"bench", "--jobs=3"});
    BenchSession session("t", args);
    EXPECT_EQ(session.jobs(), 3u);
}

TEST(BenchSessionTest, DefaultsToHardwareJobs)
{
    const Args args = MakeArgs({"bench"});
    BenchSession session("t", args);
    EXPECT_EQ(session.jobs(), HardwareJobs());
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
    const Args args = MakeArgs({"bench", "--jobs=2"});
    BenchSession session("t", args);
    const core::RunConfig config = SmallRun();
    std::vector<core::RunConfig> configs(2, config);
    configs[1].memory_mb = 5;
    session.RunMatrix(configs, /*reps=*/2);
    ASSERT_EQ(session.records().size(), 4u);
    EXPECT_EQ(session.records()[0].rep, 0u);
    EXPECT_EQ(session.records()[1].rep, 1u);
    EXPECT_EQ(session.records()[2].memory_mb, 5u);
    EXPECT_EQ(session.records()[0].seed, CellSeed(config.seed, 0));
    EXPECT_EQ(session.records()[1].seed, CellSeed(config.seed, 1));
    EXPECT_EQ(session.records()[0].bench, "t");
    EXPECT_GT(session.records()[0].refs_issued, 0u);
}

TEST(BenchSessionTest, MatrixCellsRunAtTheirDerivedSeeds)
{
    const Args args = MakeArgs({"bench", "--jobs=3"});
    BenchSession session("t", args);
    std::vector<core::RunConfig> configs(2, SmallRun());
    configs[1].seed = 6;
    configs[1].ref = policy::RefPolicyKind::kNoRef;
    const auto results = session.RunMatrix(configs, /*reps=*/2);
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
        const Args args = MakeArgs({"bench", jobs[k]});
        BenchSession session("t", args);
        session.RunAll(configs);
        const std::vector<stats::RunRecord> records = session.records();
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
    const Args args = MakeArgs({"bench", "--json=" + path, "--jobs=1"});
    BenchSession session("session_test", args);
    session.RunMatrix({SmallRun()}, /*reps=*/2);
    stats::RunRecord record;
    record.AddMetric("custom", 1.0);
    session.Record(std::move(record));
    EXPECT_EQ(session.Finish(), 0);
    const std::string contents = ReadWholeFile(path);
    std::remove(path.c_str());
    // The schema-1 header: one shard that ran every cell.
    EXPECT_EQ(contents.substr(0, contents.find('[') + 1),
              "{\"schema_version\": 1, \"bench\": \"session_test\", "
              "\"shard\": {\"index\": 0, \"count\": 1, "
              "\"total_cells\": 2, \"ran_cells\": 2}, \"records\": [");
    // The bench name was stamped onto the anonymous record.
    ASSERT_EQ(session.records().size(), 3u);
    EXPECT_EQ(session.records()[2].bench, "session_test");
}

TEST(BenchSessionDeathTest, RemovedFlagsAreFatal)
{
    for (const char* flag : {"--shard=1/2", "--stream=x", "--resume=x"}) {
        const std::string name =
            std::string(flag).substr(0, std::string(flag).find('='));
        EXPECT_EXIT(BenchSession("t", MakeArgs({"bench", flag})),
                    testing::ExitedWithCode(1), name + " was removed")
            << flag;
    }
}

}  // namespace
}  // namespace spur::runner
