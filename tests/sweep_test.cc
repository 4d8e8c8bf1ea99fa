/**
 * @file
 * Tests for what is left of src/sweep/: the host measurement
 * primitives and the order- and raw-token-preserving JSON reader that
 * spur_bench reads its expected digests with.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>

#include "src/sweep/json.h"
#include "src/sweep/telemetry.h"

namespace spur::sweep {
namespace {

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

}  // namespace
}  // namespace spur::sweep
