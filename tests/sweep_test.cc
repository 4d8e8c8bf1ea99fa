/**
 * @file
 * Tests for the distributed sweep subsystem (src/sweep/): shard
 * assignment, the shard-union bit-identity contract, the host
 * measurement primitives, the JSON reader, document round trips, and
 * the spur_sweep merge/validate contract.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/args.h"
#include "src/core/experiment.h"
#include "src/runner/runner.h"
#include "src/runner/session.h"
#include "src/runner/thread_pool.h"
#include "src/stats/run_record.h"
#include "src/sweep/json.h"
#include "src/sweep/merge.h"
#include "src/sweep/shard.h"
#include "src/sweep/telemetry.h"

namespace spur::sweep {
namespace {

// ---- ShardSpec --------------------------------------------------------

TEST(ShardSpecTest, ParsesValidSpecs)
{
    const auto full = ShardSpec::Parse("0/1");
    ASSERT_TRUE(full.has_value());
    EXPECT_EQ(full->index, 0u);
    EXPECT_EQ(full->count, 1u);
    EXPECT_TRUE(full->IsFull());

    const auto mid = ShardSpec::Parse("2/5");
    ASSERT_TRUE(mid.has_value());
    EXPECT_EQ(mid->index, 2u);
    EXPECT_EQ(mid->count, 5u);
    EXPECT_FALSE(mid->IsFull());
    EXPECT_EQ(mid->ToString(), "2/5");
}

TEST(ShardSpecTest, RejectsMalformedSpecs)
{
    for (const char* bad : {"", "1", "1/", "/2", "2/2", "3/2", "1/0",
                            "-1/2", "a/b", "1/2/3", "1.0/2", " 1/2",
                            "1/2 ", "9999999999/2"}) {
        EXPECT_FALSE(ShardSpec::Parse(bad).has_value()) << bad;
    }
}

TEST(ShardSpecTest, ContainsPartitionsOrdinals)
{
    const ShardSpec shard{1, 3};
    std::set<uint64_t> mine;
    for (uint64_t i = 0; i < 30; ++i) {
        if (shard.Contains(i)) {
            mine.insert(i);
        }
    }
    EXPECT_EQ(mine.size(), 10u);
    for (const uint64_t i : mine) {
        EXPECT_EQ(i % 3, 1u);
    }
}

// ---- Sharded RunMatrix ------------------------------------------------

core::RunConfig
SmallRun()
{
    core::RunConfig config;
    config.workload = core::WorkloadId::kSlc;
    config.memory_mb = 8;
    config.refs = 120'000;
    config.seed = 5;
    return config;
}

std::vector<core::RunConfig>
SmallMatrix()
{
    std::vector<core::RunConfig> configs(2, SmallRun());
    configs[1].ref = policy::RefPolicyKind::kNoRef;
    return configs;
}

void
ExpectIdentical(const core::RunResult& a, const core::RunResult& b)
{
    EXPECT_EQ(a.refs_issued, b.refs_issued);
    EXPECT_EQ(a.page_ins, b.page_ins);
    EXPECT_EQ(a.page_outs, b.page_outs);
    EXPECT_EQ(a.frequencies.n_ds, b.frequencies.n_ds);
    EXPECT_EQ(a.frequencies.n_zfod, b.frequencies.n_zfod);
    EXPECT_EQ(a.frequencies.n_ef, b.frequencies.n_ef);
    EXPECT_EQ(a.frequencies.n_w_hit, b.frequencies.n_w_hit);
    EXPECT_EQ(a.frequencies.n_w_miss, b.frequencies.n_w_miss);
    EXPECT_DOUBLE_EQ(a.elapsed_seconds, b.elapsed_seconds);
}

/** Runs the matrix sharded N ways and checks the union against full. */
void
CheckShardUnion(uint32_t shard_count)
{
    const auto configs = SmallMatrix();
    const uint32_t reps = 3;
    const auto full = runner::RunMatrix(configs, reps, /*shuffle_seed=*/9,
                                        /*jobs=*/2);

    std::set<std::pair<size_t, uint32_t>> executed;
    for (uint32_t k = 0; k < shard_count; ++k) {
        runner::MatrixOptions options;
        options.shuffle_seed = 9;
        options.jobs = 2;
        options.shard_index = k;
        options.shard_count = shard_count;
        std::set<std::pair<size_t, uint32_t>> mine;
        const auto partial = runner::RunMatrix(
            configs, reps, options, [&](const runner::Cell& cell) {
                // Every executed cell belongs to exactly one shard.
                EXPECT_TRUE(
                    executed.insert({cell.config_index, cell.rep}).second);
                mine.insert({cell.config_index, cell.rep});
                ExpectIdentical(cell.result,
                                full[cell.config_index][cell.rep]);
            });
        for (const auto& [i, r] : mine) {
            ExpectIdentical(partial[i][r], full[i][r]);
        }
    }
    // The union covers the whole matrix.
    EXPECT_EQ(executed.size(), configs.size() * reps);
}

TEST(ShardedRunMatrixTest, TwoShardUnionIsBitIdenticalToFullRun)
{
    CheckShardUnion(2);
}

TEST(ShardedRunMatrixTest, ThreeShardUnionIsBitIdenticalToFullRun)
{
    CheckShardUnion(3);
}

TEST(ShardedRunMatrixTest, ShardOffsetShiftsAssignment)
{
    const auto configs = SmallMatrix();
    runner::MatrixOptions options;
    options.jobs = 1;
    options.shard_index = 0;
    options.shard_count = 2;
    options.shard_offset = 1;  // Odd ordinals now belong to shard 0.
    size_t executed = 0;
    runner::RunMatrix(configs, /*reps=*/2, options,
                      [&](const runner::Cell&) { ++executed; });
    EXPECT_EQ(executed, 2u);  // Half of the 4 cells.
}

TEST(TelemetryTest, StopwatchAndRssReportPositiveValues)
{
    const Stopwatch stopwatch;
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i) {
        sink = sink + 1.0;
    }
    EXPECT_GT(stopwatch.Seconds(), 0.0);
    EXPECT_GT(PeakRssBytes(), 0u);
}

// ---- BenchSession sharding --------------------------------------------

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

TEST(SessionShardTest, ShardRecordsUnionToFullSession)
{
    const auto configs = SmallMatrix();
    const uint32_t reps = 2;

    runner::BenchSession full("t", MakeArgs({"bench", "--jobs=2"}));
    full.RunMatrix(configs, reps, /*shuffle_seed=*/7);
    EXPECT_EQ(full.total_cells(), 4u);
    EXPECT_EQ(full.ran_cells(), 4u);
    std::map<std::string, std::string> expected;
    for (const stats::RunRecord& record : full.records()) {
        expected[RecordIdentity(record)] =
            stats::JsonWriter::ToJson(record);
    }
    EXPECT_EQ(expected.size(), 4u);

    std::map<std::string, std::string> merged;
    uint64_t ran_sum = 0;
    for (const char* spec : {"0/2", "1/2"}) {
        runner::BenchSession shard(
            "t", MakeArgs({"bench", "--jobs=2",
                           std::string("--shard=") + spec}));
        shard.RunMatrix(configs, reps, /*shuffle_seed=*/7);
        EXPECT_EQ(shard.total_cells(), 4u);
        EXPECT_EQ(shard.ran_cells(), shard.records().size());
        ran_sum += shard.ran_cells();
        for (const stats::RunRecord& record : shard.records()) {
            // No cell is produced by both shards.
            EXPECT_TRUE(
                merged.emplace(RecordIdentity(record),
                               stats::JsonWriter::ToJson(record))
                    .second);
        }
    }
    EXPECT_EQ(ran_sum, 4u);
    EXPECT_EQ(merged, expected);  // Byte-identical payloads per cell.
    runner::SetDefaultJobs(0);
}

TEST(SessionShardTest, ConsecutiveCallsBalanceAcrossShards)
{
    // Two single-config RunAll calls: the session's running cell count
    // must spread them over the shards instead of giving both to 0.
    const std::vector<core::RunConfig> one{SmallRun()};
    runner::BenchSession shard0(
        "t", MakeArgs({"bench", "--jobs=1", "--shard=0/2"}));
    shard0.RunAll(one);
    shard0.RunAll(one);
    EXPECT_EQ(shard0.total_cells(), 2u);
    EXPECT_EQ(shard0.ran_cells(), 1u);

    runner::BenchSession shard1(
        "t", MakeArgs({"bench", "--jobs=1", "--shard=1/2"}));
    shard1.RunAll(one);
    shard1.RunAll(one);
    EXPECT_EQ(shard1.ran_cells(), 1u);
    runner::SetDefaultJobs(0);
}

// ---- JSON parser ------------------------------------------------------

TEST(JsonParserTest, ParsesScalarsAndPreservesOrder)
{
    std::string error;
    const auto value = ParseJson(
        "{\"b\": 1, \"a\": [true, false, null, \"x\\n\"], \"c\": -2.5}",
        &error);
    ASSERT_TRUE(value.has_value()) << error;
    ASSERT_TRUE(value->IsObject());
    ASSERT_EQ(value->members().size(), 3u);
    EXPECT_EQ(value->members()[0].first, "b");  // Source order kept.
    EXPECT_EQ(value->members()[1].first, "a");
    EXPECT_EQ(value->members()[2].first, "c");
    const JsonValue* a = value->Find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->items().size(), 4u);
    EXPECT_TRUE(a->items()[0].AsBool());
    EXPECT_TRUE(a->items()[2].IsNull());
    EXPECT_EQ(a->items()[3].AsString(), "x\n");
    EXPECT_DOUBLE_EQ(value->Find("c")->AsDouble(), -2.5);
}

TEST(JsonParserTest, KeepsRawNumberTokens)
{
    std::string error;
    const auto value =
        ParseJson("[42, 0.10000000000000001, 1e3]", &error);
    ASSERT_TRUE(value.has_value()) << error;
    EXPECT_EQ(value->items()[0].raw_number(), "42");
    EXPECT_EQ(value->items()[1].raw_number(), "0.10000000000000001");
    EXPECT_EQ(value->items()[0].AsUint64(), std::optional<uint64_t>(42));
    // Only plain decimal integers read back as integers.
    EXPECT_FALSE(value->items()[1].AsUint64().has_value());
    EXPECT_FALSE(value->items()[2].AsUint64().has_value());
}

TEST(JsonParserTest, NullReadsBackAsNaN)
{
    std::string error;
    const auto value = ParseJson("null", &error);
    ASSERT_TRUE(value.has_value());
    EXPECT_TRUE(std::isnan(value->AsDouble()));
}

TEST(JsonParserTest, RejectsMalformedInput)
{
    for (const char* bad :
         {"", "{", "[1,]", "{\"a\" 1}", "{} extra", "tru", "\"unterminated",
          "+1", "nan", "'single'"}) {
        std::string error;
        EXPECT_FALSE(ParseJson(bad, &error).has_value()) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
}

TEST(JsonParserTest, RejectsExcessiveNesting)
{
    std::string deep(100, '[');
    deep += std::string(100, ']');
    std::string error;
    EXPECT_FALSE(ParseJson(deep, &error).has_value());
    EXPECT_NE(error.find("nest"), std::string::npos);
}

// ---- Document round trip and schema validation ------------------------

stats::RunRecord
MakeRecord(const std::string& bench, const std::string& workload,
           uint32_t memory_mb, uint32_t rep, uint64_t seed)
{
    stats::RunRecord record;
    record.bench = bench;
    record.workload = workload;
    record.dirty_policy = "SPUR";
    record.ref_policy = "MISS";
    record.memory_mb = memory_mb;
    record.rep = rep;
    record.seed = seed;
    record.refs_issued = 1000 + seed;
    record.page_ins = 10 * memory_mb;
    record.page_outs = 3;
    record.elapsed_seconds = 0.1 * static_cast<double>(rep + 1);
    record.AddMetric("n_ds", 42.0);
    record.AddMetric("oddball \"name\"", 0.1);
    return record;
}

TEST(SweepDocumentTest, RoundTripIsByteIdentical)
{
    stats::DocumentMeta meta;
    meta.bench = "round_trip \"bench\"";
    meta.shard_index = 1;
    meta.shard_count = 3;
    meta.total_cells = 12;
    meta.ran_cells = 2;
    std::vector<stats::RunRecord> records;
    records.push_back(MakeRecord(meta.bench, "SLC", 5, 0, 17));
    records.push_back(MakeRecord(meta.bench, "WORKLOAD1\x01", 8, 1, 23));

    const std::string json = stats::JsonWriter::ToJson(meta, records);
    std::string error;
    const auto document = ParseSweepDocument(json, &error);
    ASSERT_TRUE(document.has_value()) << error;
    EXPECT_EQ(document->schema_version, stats::kSchemaVersion);
    EXPECT_EQ(document->meta.bench, meta.bench);
    EXPECT_EQ(document->meta.shard_index, 1u);
    EXPECT_EQ(document->meta.shard_count, 3u);
    EXPECT_EQ(document->meta.total_cells, 12u);
    EXPECT_EQ(document->meta.ran_cells, 2u);
    ASSERT_EQ(document->records.size(), 2u);

    // Re-serializing the parsed document reproduces the input bytes.
    EXPECT_EQ(ToJson(*document), json);
}

TEST(SweepDocumentTest, RejectsUnknownSchemaVersion)
{
    const std::string json = stats::JsonWriter::ToJson("b", {});
    std::string bumped = json;
    const size_t pos = bumped.find("\"schema_version\": 1");
    ASSERT_NE(pos, std::string::npos);
    bumped.replace(pos, std::string("\"schema_version\": 1").size(),
                   "\"schema_version\": 99");
    std::string error;
    EXPECT_FALSE(ParseSweepDocument(bumped, &error).has_value());
    EXPECT_EQ(error, "unknown schema_version 99 (expected 1)");
}

TEST(SweepDocumentTest, RejectsPreVersioningAndUnknownFields)
{
    std::string error;
    EXPECT_FALSE(ParseSweepDocument("{\"bench\": \"b\", \"records\": []}",
                                    &error)
                     .has_value());
    EXPECT_NE(error.find("pre-versioning"), std::string::npos);

    const std::string extra =
        "{\"schema_version\": 1, \"bench\": \"b\", "
        "\"shard\": {\"index\": 0, \"count\": 1, \"total_cells\": 0, "
        "\"ran_cells\": 0}, \"records\": [], \"surprise\": 1}";
    EXPECT_FALSE(ParseSweepDocument(extra, &error).has_value());
    EXPECT_NE(error.find("unknown document field 'surprise'"),
              std::string::npos);
}

TEST(SweepDocumentTest, RejectsRecordSchemaViolations)
{
    stats::DocumentMeta meta;
    meta.bench = "b";
    std::string json =
        stats::JsonWriter::ToJson(meta, {MakeRecord("b", "SLC", 5, 0, 1)});
    // Smuggle an unknown field into the record object.
    const size_t pos = json.find("\"workload\"");
    ASSERT_NE(pos, std::string::npos);
    std::string bad = json;
    bad.insert(pos, "\"bogus\": 1, ");
    std::string error;
    EXPECT_FALSE(ParseSweepDocument(bad, &error).has_value());
    EXPECT_NE(error.find("unknown record field 'bogus'"),
              std::string::npos);

    // Drop a required field.
    std::string missing = json;
    const size_t seed_pos = missing.find(", \"seed\": 1");
    ASSERT_NE(seed_pos, std::string::npos);
    missing.erase(seed_pos, std::string(", \"seed\": 1").size());
    EXPECT_FALSE(ParseSweepDocument(missing, &error).has_value());
    EXPECT_NE(error.find("missing field 'seed'"), std::string::npos);

    // A per-cell telemetry block is not part of the record schema.
    std::string telemetry = json;
    telemetry.insert(pos,
                     "\"telemetry\": {\"wall_seconds\": 0.25, "
                     "\"peak_rss_bytes\": 1048576, \"worker\": 1}, ");
    EXPECT_FALSE(ParseSweepDocument(telemetry, &error).has_value());
    EXPECT_NE(error.find("unknown record field 'telemetry'"),
              std::string::npos);
}

// ---- Standalone shard accounting (spur_sweep validate) ----------------

TEST(ValidateShardAccountingTest, AcceptsConsistentDocuments)
{
    std::string error;
    SweepDocument document;
    // Bespoke-only session: no matrix cells tracked.
    EXPECT_TRUE(ValidateShardAccounting(document, &error)) << error;

    // Full run: every cell ran.
    document.meta.total_cells = 9;
    document.meta.ran_cells = 9;
    EXPECT_TRUE(ValidateShardAccounting(document, &error)) << error;

    // Shard 1/3 of 12 cells owns ordinals 1, 4, 7, 10.
    document.meta.shard_index = 1;
    document.meta.shard_count = 3;
    document.meta.total_cells = 12;
    document.meta.ran_cells = 4;
    EXPECT_TRUE(ValidateShardAccounting(document, &error)) << error;

    // A shard past the matrix tail owns nothing.
    document.meta.shard_index = 2;
    document.meta.shard_count = 3;
    document.meta.total_cells = 2;
    document.meta.ran_cells = 0;
    EXPECT_TRUE(ValidateShardAccounting(document, &error)) << error;
}

TEST(ValidateShardAccountingTest, RejectsCellCountMismatch)
{
    // Regression: such a document passed `spur_sweep validate` and only
    // failed later at merge time ("missing cells").  A crashed shard
    // whose stream was recovered but never resumed looks exactly like
    // this once given a nonzero total.
    SweepDocument document;
    document.meta.shard_index = 1;
    document.meta.shard_count = 3;
    document.meta.total_cells = 12;
    document.meta.ran_cells = 2;  // Slice is 4.
    std::string error;
    EXPECT_FALSE(ValidateShardAccounting(document, &error));
    EXPECT_NE(error.find("must have run 4"), std::string::npos) << error;

    // Too many cells is just as wrong (duplicated work units).
    document.meta.ran_cells = 5;
    EXPECT_FALSE(ValidateShardAccounting(document, &error));
    EXPECT_NE(error.find("claims 5"), std::string::npos) << error;
}

// ---- Merge ------------------------------------------------------------

SweepDocument
MakeShardDocument(const std::string& bench, uint32_t index, uint32_t count,
                  uint64_t total, std::vector<stats::RunRecord> records)
{
    SweepDocument document;
    document.meta.bench = bench;
    document.meta.shard_index = index;
    document.meta.shard_count = count;
    document.meta.total_cells = total;
    document.meta.ran_cells = records.size();
    document.records = std::move(records);
    return document;
}

TEST(MergeTest, MergesShardsIntoCanonicalDocument)
{
    // Shard 0 ran cells (5 MB, rep 0) and (8 MB, rep 1); shard 1 the
    // others.  Both also recomputed the same bespoke record.
    stats::RunRecord bespoke = MakeRecord("b", "CUSTOM", 1, 0, 99);
    std::vector<SweepDocument> shards;
    shards.push_back(MakeShardDocument(
        "b", 0, 2, 4,
        {MakeRecord("b", "SLC", 5, 0, 1), MakeRecord("b", "SLC", 8, 1, 2),
         bespoke}));
    shards.push_back(MakeShardDocument(
        "b", 1, 2, 4,
        {MakeRecord("b", "SLC", 5, 1, 1), MakeRecord("b", "SLC", 8, 0, 2),
         bespoke}));
    // Bespoke rows are not sharded cells; ran_cells counts cells only.
    shards[0].meta.ran_cells = 2;
    shards[1].meta.ran_cells = 2;

    std::string error;
    const auto merged = MergeDocuments(shards, &error);
    ASSERT_TRUE(merged.has_value()) << error;
    EXPECT_EQ(merged->meta.bench, "b");
    EXPECT_EQ(merged->meta.shard_index, 0u);
    EXPECT_EQ(merged->meta.shard_count, 1u);
    EXPECT_EQ(merged->meta.total_cells, 4u);
    EXPECT_EQ(merged->meta.ran_cells, 4u);
    // 4 cells + 1 deduplicated bespoke record.
    ASSERT_EQ(merged->records.size(), 5u);

    // Canonical order: merging the shards in the opposite order yields
    // the byte-identical document.
    std::vector<SweepDocument> reversed{shards[1], shards[0]};
    const auto merged2 = MergeDocuments(reversed, &error);
    ASSERT_TRUE(merged2.has_value()) << error;
    EXPECT_EQ(ToJson(*merged), ToJson(*merged2));
}

TEST(MergeTest, SingleDocumentIsCanonicalized)
{
    // A full run arrives in recording order; merging it alone sorts the
    // records into the same canonical order a shard merge produces.
    std::vector<SweepDocument> docs;
    docs.push_back(MakeShardDocument(
        "b", 0, 1, 2,
        {MakeRecord("b", "SLC", 8, 0, 2), MakeRecord("b", "SLC", 5, 0, 1)}));
    std::string error;
    const auto merged = MergeDocuments(docs, &error);
    ASSERT_TRUE(merged.has_value()) << error;
    ASSERT_EQ(merged->records.size(), 2u);
    EXPECT_LE(RecordIdentity(merged->records[0]),
              RecordIdentity(merged->records[1]));
}

TEST(MergeTest, RejectsContractViolations)
{
    const auto cell = [](uint32_t mb, uint32_t rep) {
        return MakeRecord("b", "SLC", mb, rep, 1);
    };
    std::string error;

    // Bench mismatch.
    EXPECT_FALSE(MergeDocuments(
                     {MakeShardDocument("b", 0, 2, 2, {cell(5, 0)}),
                      MakeShardDocument("c", 1, 2, 2, {cell(5, 1)})}, &error)
                     .has_value());
    EXPECT_NE(error.find("bench mismatch"), std::string::npos);

    // Duplicate shard index.
    EXPECT_FALSE(MergeDocuments(
                     {MakeShardDocument("b", 0, 2, 2, {cell(5, 0)}),
                      MakeShardDocument("b", 0, 2, 2, {cell(5, 1)})}, &error)
                     .has_value());
    EXPECT_NE(error.find("appears more than once"), std::string::npos);

    // Missing shard.
    EXPECT_FALSE(MergeDocuments(
                     {MakeShardDocument("b", 0, 3, 3, {cell(5, 0)}),
                      MakeShardDocument("b", 2, 3, 3, {cell(5, 2)})}, &error)
                     .has_value());
    EXPECT_NE(error.find("missing shard(s) 1"), std::string::npos);

    // Shard shape mismatch.
    EXPECT_FALSE(MergeDocuments(
                     {MakeShardDocument("b", 0, 2, 2, {cell(5, 0)}),
                      MakeShardDocument("b", 1, 2, 4, {cell(5, 1)})}, &error)
                     .has_value());
    EXPECT_NE(error.find("total_cells mismatch"), std::string::npos);

    // Duplicate cells: the shards together ran more cells than exist.
    EXPECT_FALSE(MergeDocuments(
                     {MakeShardDocument("b", 0, 2, 2,
                                        {cell(5, 0), cell(5, 1)}),
                      MakeShardDocument("b", 1, 2, 2, {cell(8, 0)})}, &error)
                     .has_value());
    EXPECT_NE(error.find("duplicate cells"), std::string::npos);

    // Missing cells: fewer ran than the sweep holds.
    EXPECT_FALSE(MergeDocuments(
                     {MakeShardDocument("b", 0, 2, 4, {cell(5, 0)}),
                      MakeShardDocument("b", 1, 2, 4, {cell(5, 1)})}, &error)
                     .has_value());
    EXPECT_NE(error.find("missing cells"), std::string::npos);

    // Conflicting payloads for one cell identity.
    stats::RunRecord conflicting = cell(5, 0);
    conflicting.page_ins += 1;
    EXPECT_FALSE(MergeDocuments(
                     {MakeShardDocument("b", 0, 2, 2, {cell(5, 0)}),
                      MakeShardDocument("b", 1, 2, 2, {conflicting})}, &error)
                     .has_value());
    EXPECT_NE(error.find("conflicting records"), std::string::npos);
}

}  // namespace
}  // namespace spur::sweep
