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
Render(Table& table, bool csv = false)
{
    std::FILE* f = std::tmpfile();
    if (csv) {
        table.PrintCsv(f);
    } else {
        table.Print(f);
    }
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

TEST(TableTest, CsvEscapesSpecialCells)
{
    Table t("T");
    t.SetHeader({"x"});
    t.AddRow({"has,comma"});
    t.AddRow({"has\"quote"});
    const std::string out = Render(t, /*csv=*/true);
    EXPECT_NE(out.find("\"has,comma\""), std::string::npos);
    EXPECT_NE(out.find("\"has\"\"quote\""), std::string::npos);
    EXPECT_NE(out.find("# T"), std::string::npos);
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

Args
MakeArgs(std::vector<const char*> argv)
{
    argv.insert(argv.begin(), "prog");
    return Args(static_cast<int>(argv.size()),
                const_cast<char**>(argv.data()));
}

TEST(ArgsTest, ParsesEqualsForm)
{
    const Args args = MakeArgs({"--reps=5", "--name=x"});
    EXPECT_EQ(args.GetInt("reps", 0), 5);
    EXPECT_EQ(args.GetString("name"), "x");
}

TEST(ArgsTest, ParsesSpaceForm)
{
    const Args args = MakeArgs({"--reps", "7"});
    EXPECT_EQ(args.GetInt("reps", 0), 7);
}

TEST(ArgsTest, BareFlagAndDefaults)
{
    const Args args = MakeArgs({"--csv"});
    EXPECT_TRUE(args.Has("csv"));
    EXPECT_FALSE(args.Has("missing"));
    EXPECT_EQ(args.GetInt("missing", 42), 42);
    EXPECT_DOUBLE_EQ(args.GetDouble("missing", 2.5), 2.5);
}

TEST(ArgsTest, Positional)
{
    const Args args = MakeArgs({"pos1", "--flag", "pos2"});
    // "pos2" follows a bare flag, so it is consumed as its value.
    ASSERT_EQ(args.positional().size(), 1u);
    EXPECT_EQ(args.positional()[0], "pos1");
    EXPECT_EQ(args.GetString("flag"), "pos2");
}

TEST(ArgsTest, DoubleValues)
{
    const Args args = MakeArgs({"--x=1.25"});
    EXPECT_DOUBLE_EQ(args.GetDouble("x", 0), 1.25);
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
