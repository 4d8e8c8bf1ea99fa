/**
 * @file
 * Tests for the common utilities: bit helpers, the deterministic RNG,
 * table rendering and argument parsing.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "src/common/args.h"
#include "src/common/bits.h"
#include "src/common/random.h"
#include "src/common/table.h"

namespace spur {
namespace {

// ---------------------------------------------------------------------------
// bits.h
// ---------------------------------------------------------------------------

TEST(BitsTest, IsPowerOfTwo)
{
    EXPECT_FALSE(IsPowerOfTwo(0));
    EXPECT_TRUE(IsPowerOfTwo(1));
    EXPECT_TRUE(IsPowerOfTwo(2));
    EXPECT_FALSE(IsPowerOfTwo(3));
    EXPECT_TRUE(IsPowerOfTwo(4096));
    EXPECT_FALSE(IsPowerOfTwo(4097));
    EXPECT_TRUE(IsPowerOfTwo(uint64_t{1} << 63));
}

TEST(BitsTest, FloorLog2)
{
    EXPECT_EQ(FloorLog2(1), 0u);
    EXPECT_EQ(FloorLog2(2), 1u);
    EXPECT_EQ(FloorLog2(3), 1u);
    EXPECT_EQ(FloorLog2(32), 5u);
    EXPECT_EQ(FloorLog2(4096), 12u);
    EXPECT_EQ(FloorLog2((uint64_t{1} << 40) + 5), 40u);
}

TEST(BitsTest, ExtractBits)
{
    EXPECT_EQ(ExtractBits(0xFF00, 8, 8), 0xFFu);
    EXPECT_EQ(ExtractBits(0xABCD, 0, 4), 0xDu);
    EXPECT_EQ(ExtractBits(~uint64_t{0}, 0, 64), ~uint64_t{0});
    EXPECT_EQ(ExtractBits(0b1010, 1, 2), 0b01u);
}

// Shift counts at or beyond the 64-bit boundary are UB on a bare shift;
// ExtractBits must give them defined results instead.  These run under
// UBSan in the asan preset, so a regression aborts the test.
TEST(BitsTest, ExtractBitsEdgeCasesAreDefined)
{
    // lo at or past the top bit: the field reads as zero.
    EXPECT_EQ(ExtractBits(~uint64_t{0}, 64, 8), 0u);
    EXPECT_EQ(ExtractBits(~uint64_t{0}, 200, 64), 0u);
    // lo + width past the top: clamps to the bits that exist.
    EXPECT_EQ(ExtractBits(~uint64_t{0}, 60, 64), 0xFu);
    EXPECT_EQ(ExtractBits(uint64_t{1} << 63, 63, 8), 1u);
    // Zero-width field is empty.
    EXPECT_EQ(ExtractBits(~uint64_t{0}, 0, 0), 0u);
    EXPECT_EQ(ExtractBits(~uint64_t{0}, 63, 0), 0u);
    // Everything above is also constant-foldable (no UB in constexpr).
    static_assert(ExtractBits(~uint64_t{0}, 64, 8) == 0);
    static_assert(ExtractBits(~uint64_t{0}, 60, 64) == 0xF);
}

TEST(BitsTest, AlignUpDown)
{
    EXPECT_EQ(AlignUp(0, 32), 0u);
    EXPECT_EQ(AlignUp(1, 32), 32u);
    EXPECT_EQ(AlignUp(32, 32), 32u);
    EXPECT_EQ(AlignUp(33, 32), 64u);
    EXPECT_EQ(AlignDown(33, 32), 32u);
    EXPECT_EQ(AlignDown(4095, 4096), 0u);
    EXPECT_EQ(AlignDown(4096, 4096), 4096u);
}

TEST(BitsTest, AlignAtTopOfAddressSpace)
{
    // The largest representable multiple of the alignment round-trips
    // exactly; align == 1 is the identity everywhere.
    const uint64_t top = ~uint64_t{0} - 4095;  // 2^64 - 4096
    EXPECT_EQ(AlignUp(top, 4096), top);
    EXPECT_EQ(AlignUp(top - 1, 4096), top);
    EXPECT_EQ(AlignDown(~uint64_t{0}, 4096), top);
    EXPECT_EQ(AlignUp(~uint64_t{0}, 1), ~uint64_t{0});
    EXPECT_EQ(AlignDown(~uint64_t{0}, 1), ~uint64_t{0});
    EXPECT_EQ(AlignDown(~uint64_t{0}, uint64_t{1} << 63), uint64_t{1} << 63);
}

// ---------------------------------------------------------------------------
// random.h
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicAcrossInstances)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a.Next(), b.Next());
    }
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        same += (a.Next() == b.Next()) ? 1 : 0;
    }
    EXPECT_LT(same, 3);
}

TEST(RngTest, NextBelowInRange)
{
    Rng rng(7);
    for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
        for (int i = 0; i < 200; ++i) {
            EXPECT_LT(rng.NextBelow(bound), bound);
        }
    }
}

TEST(RngTest, NextBelowCoversRange)
{
    Rng rng(9);
    std::vector<int> seen(10, 0);
    for (int i = 0; i < 10000; ++i) {
        ++seen[rng.NextBelow(10)];
    }
    for (int count : seen) {
        // Uniform expectation 1000; allow generous slack.
        EXPECT_GT(count, 700);
        EXPECT_LT(count, 1300);
    }
}

TEST(RngTest, NextDoubleInUnitInterval)
{
    Rng rng(3);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double value = rng.NextDouble();
        ASSERT_GE(value, 0.0);
        ASSERT_LT(value, 1.0);
        sum += value;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, ChanceExtremes)
{
    Rng rng(5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.Chance(0.0));
        EXPECT_TRUE(rng.Chance(1.0));
        EXPECT_FALSE(rng.Chance(-1.0));
        EXPECT_TRUE(rng.Chance(2.0));
    }
}

TEST(RngTest, ChanceProbabilityApproximate)
{
    Rng rng(11);
    int hits = 0;
    for (int i = 0; i < 20000; ++i) {
        hits += rng.Chance(0.25) ? 1 : 0;
    }
    EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(RngTest, ZipfBiasesTowardZero)
{
    Rng rng(13);
    uint64_t low = 0;
    uint64_t high = 0;
    const uint64_t n = 100;
    for (int i = 0; i < 20000; ++i) {
        const uint64_t idx = rng.NextZipf(n, 0.9);
        ASSERT_LT(idx, n);
        if (idx < n / 10) {
            ++low;
        }
        if (idx >= n - n / 10) {
            ++high;
        }
    }
    EXPECT_GT(low, high * 5);
}

TEST(RngTest, ZipfDegenerateCases)
{
    Rng rng(17);
    EXPECT_EQ(rng.NextZipf(0, 0.8), 0u);
    EXPECT_EQ(rng.NextZipf(1, 0.8), 0u);
    for (int i = 0; i < 100; ++i) {
        EXPECT_LT(rng.NextZipf(5, 0.99), 5u);  // Near-1 skew is clamped.
    }
}

TEST(RngTest, Threshold53MatchesNextDoubleCompare)
{
    // NextDouble() is m * 2^-53; Next53() < Threshold53(p) must agree
    // with m * 2^-53 < p on every draw m, so check the draws around the
    // threshold and at both ends of the range.
    constexpr uint64_t kTop = uint64_t{1} << 53;
    const double probabilities[] = {
        -1.0, 0.0, 0x1.0p-60, 2e-4, 0.55, 0.7, 1.0 - 0x1.0p-53, 1.0, 2.0};
    for (const double p : probabilities) {
        const uint64_t t = Rng::Threshold53(p);
        ASSERT_LE(t, kTop) << p;
        for (const uint64_t m : {uint64_t{0}, t - 1, t, t + 1, kTop - 1}) {
            if (m >= kTop) {
                continue;  // Outside [0, 2^53), including t - 1 at t = 0.
            }
            const double u = static_cast<double>(m) * 0x1.0p-53;
            EXPECT_EQ(m < t, u < p) << "p=" << p << " m=" << m;
        }
    }
}

/** The deep variant runs under the `fuzz` ctest label. */
bool
DeepFuzz()
{
    const char* env = std::getenv("SPUR_FUZZ_ITERATIONS");
    return env != nullptr && std::atoll(env) >= 10000;
}

/** The least 53-bit draw whose Zipf index exceeds @p j, by bisection
 *  of the formula alone (2^53 when none does). */
uint64_t
FormulaStep(uint64_t n, double exponent, uint64_t j)
{
    uint64_t lo = 0;                  // index(lo) <= j
    uint64_t hi = uint64_t{1} << 53;  // index(hi) > j, or the end
    while (hi - lo > 1) {
        const uint64_t mid = lo + (hi - lo) / 2;
        (ZipfIndex(n, exponent, mid) > j ? hi : lo) = mid;
    }
    return hi;
}

TEST(ZipfTableTest, TableEqualsFormula)
{
    // Every draw near a step of the formula, where a table and the
    // formula could disagree, plus random draws through Sample() against
    // Rng::NextZipf on twin generators.
    constexpr uint64_t kTop = uint64_t{1} << 53;
    const bool deep = DeepFuzz();
    const uint64_t band = deep ? 3000 : 256;
    const int draws = deep ? 1'000'000 : 100'000;
    const uint64_t sizes[] = {2, 3, 8, 24, 96, 240, 900, 1400};
    const double skews[] = {0.5, 0.85, 0.88, 0.95, 1.2};
    for (const uint64_t n : sizes) {
        for (const double skew : skews) {
            const ZipfTable table(n, skew);
            const double exponent = ZipfExponent(skew);
            uint64_t mismatches = 0;
            for (uint64_t j = 0; j + 1 < n; ++j) {
                const uint64_t step = FormulaStep(n, exponent, j);
                const uint64_t lo = (step > band) ? step - band : 0;
                const uint64_t hi = std::min(step + band, kTop - 1);
                for (uint64_t m = lo; m <= hi; ++m) {
                    mismatches += table.Index(m) != ZipfIndex(n, exponent, m);
                }
            }
            Rng formula(n * 31 + static_cast<uint64_t>(skew * 100));
            Rng sampled = formula;
            for (int i = 0; i < draws; ++i) {
                mismatches +=
                    table.Sample(sampled) != formula.NextZipf(n, skew);
            }
            EXPECT_EQ(formula.Next(), sampled.Next());
            EXPECT_EQ(mismatches, 0u) << "n=" << n << " skew=" << skew;
        }
    }
}

TEST(ZipfTableTest, TinyWindowsConsumeNoDraw)
{
    for (const uint64_t n : {uint64_t{0}, uint64_t{1}}) {
        const ZipfTable table(n, 0.88);
        Rng rng(5);
        Rng twin = rng;
        EXPECT_EQ(table.Sample(rng), 0u);
        EXPECT_EQ(twin.NextZipf(n, 0.88), 0u);
        EXPECT_EQ(rng.Next(), twin.Next()) << n;
    }
}

TEST(ZipfTableTest, FormulaOnlyTablesStillAgree)
{
    // skew < 0 gives an exponent below 1, where the table keeps no
    // bounds and evaluates the formula on every draw.
    const ZipfTable table(50, -0.5);
    Rng formula(21);
    Rng sampled = formula;
    for (int i = 0; i < 10000; ++i) {
        ASSERT_EQ(table.Sample(sampled), formula.NextZipf(50, -0.5));
    }
}

// ---------------------------------------------------------------------------
// table.h
// ---------------------------------------------------------------------------

std::string
Render(Table& table)
{
    std::FILE* f = std::tmpfile();
    table.Print(f);
    std::fseek(f, 0, SEEK_SET);
    std::string out;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
        out.append(buf, n);
    }
    std::fclose(f);
    return out;
}

TEST(TableTest, RendersHeaderAndRows)
{
    Table t("Title");
    t.SetHeader({"a", "bb"});
    t.AddRow({"1", "2"});
    t.AddRow({"333", "4"});
    const std::string out = Render(t);
    EXPECT_NE(out.find("Title"), std::string::npos);
    EXPECT_NE(out.find("333"), std::string::npos);
    EXPECT_NE(out.find("bb"), std::string::npos);
    EXPECT_EQ(t.NumRows(), 2u);
}

TEST(TableTest, PadsShortRows)
{
    Table t("");
    t.SetHeader({"a", "b", "c"});
    t.AddRow({"only"});
    const std::string out = Render(t);
    EXPECT_NE(out.find("only"), std::string::npos);
}

TEST(TableTest, Formatters)
{
    EXPECT_EQ(Table::Num(uint64_t{12345}), "12345");
    EXPECT_EQ(Table::Num(1.5, 2), "1.50");
    EXPECT_EQ(Table::Rel(1.034), "(1.03)");
    EXPECT_EQ(Table::Pct(0.18), "18%");
    EXPECT_EQ(Table::Pct(0.1849, 1), "18.5%");
}

// ---------------------------------------------------------------------------
// args.h
// ---------------------------------------------------------------------------

/** One flag of every kind, plus a bounded number and a choice. */
std::vector<Flag>
DemoFlags()
{
    return {{"reps", FlagKind::kUnsigned},
            {"small", FlagKind::kUnsigned, 1, 3},
            {"ratio", FlagKind::kPositive},
            {"name", FlagKind::kText},
            {.name = "format",
             .kind = FlagKind::kText,
             .choices = {"text", "json"}},
            {"verbose"}};
}

/** Parses @p words against DemoFlags(); *error gets the usage error. */
std::optional<Args>
Parse(const std::vector<std::string>& words, std::string* error,
      size_t max_positionals = 0)
{
    return Args::Parse(words, DemoFlags(), max_positionals, error);
}

TEST(ArgsTest, ParsesEqualsForm)
{
    std::string error;
    const auto args = Parse(
        {"--reps=5", "--name=x", "--ratio=0.5", "--format=json"}, &error);
    ASSERT_TRUE(args) << error;
    EXPECT_EQ(args->GetUnsigned("reps", 0), 5u);
    EXPECT_EQ(args->GetString("name"), "x");
    EXPECT_DOUBLE_EQ(args->GetDouble("ratio", 1.0), 0.5);
    EXPECT_EQ(args->GetString("format"), "json");
    // Text may be empty; the largest uint64 is a number.
    const auto edge =
        Parse({"--name=", "--reps=18446744073709551615", "--small=3"},
              &error);
    ASSERT_TRUE(edge) << error;
    EXPECT_TRUE(edge->Has("name"));
    EXPECT_EQ(edge->GetString("name", "fallback"), "");
    EXPECT_EQ(edge->GetUnsigned("reps", 0), UINT64_MAX);
    EXPECT_EQ(edge->GetUnsigned("small", 0), 3u);
    // Numbers are decimal: a leading zero is not octal.
    const auto padded = Parse({"--reps=010", "--small=03"}, &error);
    ASSERT_TRUE(padded) << error;
    EXPECT_EQ(padded->GetUnsigned("reps", 0), 10u);
    EXPECT_EQ(padded->GetUnsigned("small", 0), 3u);
}

TEST(ArgsTest, RejectsSpaceForm)
{
    // "--name value" is not a form: the value flag is bare, whatever
    // follows it.
    std::string error;
    EXPECT_FALSE(Parse({"--reps", "7"}, &error, /*max_positionals=*/1));
    EXPECT_EQ(error, "bad argument '--reps' (want --reps=N)");
}

TEST(ArgsTest, BareFlagAndDefaults)
{
    std::string error;
    const auto args = Parse({"--verbose"}, &error);
    ASSERT_TRUE(args) << error;
    EXPECT_TRUE(args->Has("verbose"));
    EXPECT_FALSE(args->Has("reps"));
    EXPECT_EQ(args->GetUnsigned("reps", 42), 42u);
    EXPECT_DOUBLE_EQ(args->GetDouble("ratio", 1.5), 1.5);
    EXPECT_EQ(args->GetString("name", "fallback"), "fallback");
    // A switch takes no value, not even an empty one.
    EXPECT_FALSE(Parse({"--verbose=1"}, &error));
    EXPECT_EQ(error, "bad argument '--verbose=1' (want --verbose)");
    EXPECT_FALSE(Parse({"--verbose="}, &error));
}

TEST(ArgsTest, Positional)
{
    std::string error;
    const auto args =
        Parse({"pos1", "--verbose", "pos2", "-"}, &error, /*max=*/3);
    ASSERT_TRUE(args) << error;
    EXPECT_EQ(args->positional(),
              (std::vector<std::string>{"pos1", "pos2", "-"}));
    EXPECT_TRUE(args->Has("verbose"));
    // One past the declared count, or any at all when none is declared.
    EXPECT_FALSE(Parse({"a", "b"}, &error, /*max=*/1));
    EXPECT_EQ(error, "unexpected argument 'b'");
    EXPECT_FALSE(Parse({"foo"}, &error));
    EXPECT_EQ(error, "unexpected argument 'foo'");
}

TEST(ArgsTest, RejectsUnknownFlags)
{
    std::string error;
    for (const char* word : {"--bogus", "--rep=1", "--repsx=1", "--", "--=1",
                             "--Reps=1"}) {
        EXPECT_FALSE(Parse({"--reps=1", word}, &error)) << word;
        EXPECT_EQ(error.rfind(std::string("unknown flag '") + word + "'", 0),
                  0u)
            << error;
    }
    // The message lists what the binary does accept.
    EXPECT_NE(error.find("(accepted: --reps=N --small=N --ratio=F "
                         "--name=TEXT --format=text|json --verbose)"),
              std::string::npos)
        << error;
}

TEST(ArgsTest, RejectsMalformedNumbers)
{
    std::string error;
    for (const char* value :
         {"abc", "1x", "-1", "18446744073709551616", "", " 1", "+1", "0x",
          "0x10"}) {
        EXPECT_FALSE(Parse({std::string("--reps=") + value}, &error))
            << value;
        EXPECT_EQ(error, std::string("bad argument '--reps=") + value +
                             "' (want --reps=N)");
    }
    EXPECT_FALSE(Parse({"--small=4"}, &error));
    EXPECT_EQ(error, "bad argument '--small=4' (want --small=N, N in 1..3)");
    EXPECT_FALSE(Parse({"--small=0"}, &error));
    for (const char* value : {"0", "-1.5", "abc", "inf", "nan", "1e999",
                              "2x"}) {
        EXPECT_FALSE(Parse({std::string("--ratio=") + value}, &error))
            << value;
        EXPECT_EQ(error, std::string("bad argument '--ratio=") + value +
                             "' (want --ratio=F)");
    }
    EXPECT_FALSE(Parse({"--format=xml"}, &error));
    EXPECT_EQ(error, "bad argument '--format=xml' (want --format=text|json)");
    EXPECT_FALSE(Parse({"--format"}, &error));
}

TEST(ArgsDeathTest, UsageErrorExitsTwoNamingTheCommand)
{
    // The exiting constructor labels the error with the program's base
    // name and the words before `first` (a tool's subcommand).
    const char* words[] = {"build/tools/demo", "sub", "--reps=abc"};
    EXPECT_EXIT(Args(3, const_cast<char**>(words), DemoFlags(),
                     /*max_positionals=*/0, /*first=*/2),
                testing::ExitedWithCode(2),
                "^demo sub: bad argument '--reps=abc'");
}

TEST(ArgsDeathTest, ReadingAnUndeclaredFlagPanics)
{
    std::string error;
    const auto args = Parse({}, &error);
    ASSERT_TRUE(args) << error;
    EXPECT_DEATH(args->Has("bogus"), "--bogus is not a declared flag");
    EXPECT_DEATH(args->GetUnsigned("bogus", 0), "not a declared flag");
}

// ---------------------------------------------------------------------------
// FormatToolUsage — the one renderer behind every tool's --help.
// ---------------------------------------------------------------------------

TEST(ToolUsageTest, RendersSynopsesOverviewAndAlignedFlags)
{
    const std::vector<ToolCommand> commands = {
        {"go [--fast] TARGET",
         "run the thing",
         {{"--fast", "skip checks"}, {"--dry-run=N", "pretend N times"}}},
        {"stop",
         "halt the thing",
         {{"--now", "no grace period"}}},
    };
    const std::string text =
        FormatToolUsage("demo", "A demo tool.", commands);

    // The usage block lists every synopsis, continuation-aligned.
    EXPECT_EQ(text.rfind("usage: demo go [--fast] TARGET\n", 0), 0u);
    EXPECT_NE(text.find("\n       demo stop\n"), std::string::npos);
    EXPECT_NE(text.find("\nA demo tool.\n"), std::string::npos);
    // Each command section carries its summary...
    EXPECT_NE(text.find("\n  run the thing\n"), std::string::npos);
    EXPECT_NE(text.find("\n  halt the thing\n"), std::string::npos);
    // ...and flag docs align on one column across the whole tool: the
    // widest flag is "--dry-run=N" (11 chars), so every doc starts at
    // 4 (indent) + 11 + 2 = column 17.
    EXPECT_NE(text.find("    --fast       skip checks\n"),
              std::string::npos);
    EXPECT_NE(text.find("    --dry-run=N  pretend N times\n"),
              std::string::npos);
    EXPECT_NE(text.find("    --now        no grace period\n"),
              std::string::npos);
}

TEST(ToolUsageTest, FlaglessCommandRendersWithoutFlagBlock)
{
    const std::vector<ToolCommand> commands = {
        {"version", "print the version", {}},
    };
    const std::string text = FormatToolUsage("demo", "", commands);
    EXPECT_EQ(text,
              "usage: demo version\n"
              "\n"
              "demo version\n"
              "  print the version\n");
}

}  // namespace
}  // namespace spur
