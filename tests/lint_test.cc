// Tests for the spur_lint determinism checker (src/lint/).
//
// The seeded corpus under tests/lint_fixtures/ holds one file per rule
// with exactly one violation, plus clean files proving the whitelists,
// the suppression comments and comment-stripping work.  A final test
// runs the linter over the real tree — the CI gate in executable form.
//
// NOTE: this file's path is rule-exempt (see RuleExempt in lint.cc), so
// it may spell forbidden tokens when building inline file contents.
#include "src/lint/include_graph.h"
#include "src/lint/lint.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

using spur::lint::FormatRuleMarkdown;
using spur::lint::FormatViolation;
using spur::lint::FormatViolationJson;
using spur::lint::LayerManifest;
using spur::lint::Linter;
using spur::lint::LintReport;
using spur::lint::NormalizePath;
using spur::lint::RuleInfo;
using spur::lint::Rules;
using spur::lint::Violation;

std::string
FixturePath(const std::string& name)
{
    return std::string(SPUR_LINT_FIXTURE_DIR) + "/" + name;
}

std::string
SourceRootPath(const std::string& relative)
{
    return std::string(SPUR_SOURCE_ROOT) + "/" + relative;
}

/// A linter armed with the repo's real layer manifest, so fixture runs
/// exercise the layering pass exactly as CI does.
Linter
MakeLinter()
{
    Linter linter;
    std::string error;
    EXPECT_TRUE(
        linter.LoadLayerManifest(SourceRootPath("LAYERS.toml"), &error))
        << error;
    return linter;
}

std::vector<Violation>
LintFixture(const std::string& name)
{
    Linter linter = MakeLinter();
    std::string error;
    EXPECT_TRUE(linter.AddFileFromDisk(FixturePath(name), &error)) << error;
    return linter.Analyze().violations;
}

struct SeededFixture {
    const char* fixture;
    const char* rule;
};

constexpr SeededFixture kSeeded[] = {
    {"rand_violation.cc", "no-rand"},
    {"wallclock_violation.cc", "no-wallclock"},
    {"locale_violation.cc", "no-locale"},
    {"unordered_violation.cc", "no-unordered-output"},
    {"schema_violation.cc", "schema-version-once"},
    {"bench/no_session.cc", "bench-session"},
    {"hot_path_virtual.cc", "no-virtual-in-hot-path"},
    {"raw_meta_violation.cc", "no-raw-meta-bits"},
    // The cross-file passes: each seeded fixture trips exactly one of
    // the cross-file rules.
    {"src/cache/layer_breach.cc", "layering"},
    {"dead_allow.cc", "dead-allow"},
    {"allow_budget.cc", "allow-budget"},
};

TEST(LintTest, EveryRuleCatchesItsSeededFixture)
{
    for (const SeededFixture& seeded : kSeeded) {
        const std::vector<Violation> violations = LintFixture(seeded.fixture);
        ASSERT_EQ(violations.size(), 1u)
            << seeded.fixture << " should hold exactly one violation";
        EXPECT_EQ(violations[0].rule, seeded.rule) << seeded.fixture;
        EXPECT_GT(violations[0].line, 0u) << seeded.fixture;
        EXPECT_EQ(violations[0].file,
                  NormalizePath(FixturePath(seeded.fixture)));
        EXPECT_FALSE(violations[0].message.empty());
    }
}

TEST(LintTest, SeededCorpusCoversEveryRule)
{
    std::set<std::string> covered;
    for (const SeededFixture& seeded : kSeeded) {
        covered.insert(seeded.rule);
    }
    for (const RuleInfo& rule : Rules()) {
        EXPECT_EQ(covered.count(rule.name), 1u)
            << "rule '" << rule.name << "' has no seeded fixture";
    }
    EXPECT_EQ(covered.size(), Rules().size());
}

TEST(LintTest, DesignRuleTableMatchesRules)
{
    // DESIGN.md §18 embeds `spur_lint --list-rules --markdown`; a rule
    // added, removed or reworded without regenerating the table fails
    // here.
    std::ifstream in(SourceRootPath("DESIGN.md"));
    ASSERT_TRUE(in.is_open());
    std::vector<std::string> rows;
    bool in_section = false;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("## ", 0) == 0) {
            in_section = line.rfind("## 18.", 0) == 0;
        } else if (in_section && line.rfind("| `", 0) == 0) {
            rows.push_back(line);
        }
    }
    const std::vector<RuleInfo> rules = Rules();
    ASSERT_EQ(rows.size(), rules.size());
    for (size_t i = 0; i < rules.size(); ++i) {
        EXPECT_EQ(rows[i], FormatRuleMarkdown(rules[i]));
    }
}

TEST(LintTest, CleanFixturesPass)
{
    for (const char* fixture :
         {"clean.cc", "suppressed_ok.cc", "hot_path_ok.cc",
          "src/sweep/telemetry.cc"}) {
        const std::vector<Violation> violations = LintFixture(fixture);
        for (const Violation& violation : violations) {
            ADD_FAILURE() << fixture << ": " << FormatViolation(violation);
        }
    }
}

TEST(LintTest, WholeCorpusInOneRunStaysSorted)
{
    Linter linter = MakeLinter();
    std::string error;
    for (const SeededFixture& seeded : kSeeded) {
        ASSERT_TRUE(
            linter.AddFileFromDisk(FixturePath(seeded.fixture), &error))
            << error;
    }
    const std::vector<Violation> violations = linter.Analyze().violations;
    EXPECT_EQ(violations.size(), std::size(kSeeded));
    for (size_t i = 1; i < violations.size(); ++i) {
        EXPECT_LE(violations[i - 1].file, violations[i].file);
    }
}

TEST(LintTest, MissingSchemaDefinitionIsATreeLevelFinding)
{
    Linter linter;
    linter.AddFile("src/stats/run_record.h", "struct RunRecord {};\n");
    const std::vector<Violation> violations = linter.Analyze().violations;
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].rule, "schema-version-once");
    EXPECT_EQ(violations[0].line, 0u);
    EXPECT_EQ(violations[0].file, "src/stats/run_record.h");
}

TEST(LintTest, DuplicateSchemaDefinitionInHomeIsFlagged)
{
    Linter linter;
    linter.AddFile("src/stats/run_record.h",
                   "inline constexpr int kSchemaVersion = 1;\n"
                   "inline constexpr int kSchemaVersion = 2;\n");
    const std::vector<Violation> violations = linter.Analyze().violations;
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].rule, "schema-version-once");
    EXPECT_EQ(violations[0].line, 2u);
}

TEST(LintTest, SchemaVersionUseIsNotADefinition)
{
    Linter linter;
    linter.AddFile("src/core/uses.cc",
                   "bool Ok(int v) { return v == kSchemaVersion; }\n"
                   "int Copy() { return stats::kSchemaVersion + 0; }\n");
    EXPECT_TRUE(linter.Analyze().violations.empty());
}

TEST(LintTest, UnorderedContainersAreFineOutsideOutputCode)
{
    // No output-feeding path prefix and no output header include: the
    // container only shapes in-memory state, so iteration order never
    // reaches a result byte.
    Linter linter;
    linter.AddFile("src/core/scratch.cc",
                   "#include <unordered_set>\n"
                   "size_t Count(const std::unordered_set<int>& s)\n"
                   "{ return s.size(); }\n");
    EXPECT_TRUE(linter.Analyze().violations.empty());
}

TEST(LintTest, TokenMatchingRespectsWordBoundaries)
{
    // elapsed_time( must not match the time( token; a member named
    // mt19937_state must still match mt19937 at its boundary.
    Linter linter;
    linter.AddFile("src/core/boundaries.cc",
                   "double elapsed_time(int ticks);\n"
                   "int runtime_clocks(int x);\n");
    EXPECT_TRUE(linter.Analyze().violations.empty());
}

TEST(LintTest, HotPathRuleNeedsTheMarker)
{
    // Without the // spur:hot-path marker the keyword is unrestricted.
    Linter linter;
    linter.AddFile("src/core/unmarked.h",
                   "class Sink {\n"
                   "  public:\n"
                   "    virtual void Emit(int) = 0;\n"
                   "};\n");
    EXPECT_TRUE(linter.Analyze().violations.empty());
}

TEST(LintTest, HotPathRuleIgnoresCommentsAndIdentifiers)
{
    // In a marked file, the keyword inside comments is stripped before
    // the scan, and identifiers containing it have no word boundary.
    Linter linter;
    linter.AddFile("src/core/marked.h",
                   "// spur:hot-path\n"
                   "// the loop is devirtualized; virtual would hurt\n"
                   "class VirtualCacheView { int virtual_index; };\n");
    EXPECT_TRUE(linter.Analyze().violations.empty());
}

TEST(LintTest, HotPathRuleFlagsKeywordInMarkedFile)
{
    Linter linter;
    linter.AddFile("src/core/marked_bad.h",
                   "// spur:hot-path\n"
                   "struct S { virtual ~S() = default; };\n");
    const std::vector<Violation> violations = linter.Analyze().violations;
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].rule, "no-virtual-in-hot-path");
    EXPECT_EQ(violations[0].line, 2u);
}

TEST(LintTest, SuppressionOnSameLineWorks)
{
    Linter linter;
    linter.AddFile("src/core/same_line.cc",
                   "int x = rand();  // spur-lint: allow(no-rand) legacy\n");
    EXPECT_TRUE(linter.Analyze().violations.empty());
}

TEST(LintTest, SuppressionNamesOneRuleOnly)
{
    // An allow(no-rand) comment must not silence a no-wallclock finding
    // on the same line — and because it then suppresses nothing, the
    // hygiene pass flags the marker itself as dead.
    Linter linter;
    linter.AddFile("src/core/wrong_rule.cc",
                   "int x = time(nullptr);  // spur-lint: allow(no-rand)\n");
    const std::vector<Violation> violations = linter.Analyze().violations;
    ASSERT_EQ(violations.size(), 2u);
    EXPECT_EQ(violations[0].rule, "dead-allow");
    EXPECT_EQ(violations[1].rule, "no-wallclock");
}

TEST(LintTest, AllowNamingUnknownRuleIsDead)
{
    // A typoed rule name can never suppress anything; the message must
    // say the rule does not exist rather than just "suppresses nothing".
    Linter linter;
    linter.AddFile("src/core/typo.cc",
                   "int x = 0;  // spur-lint: allow(no-randd)\n");
    const std::vector<Violation> violations = linter.Analyze().violations;
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].rule, "dead-allow");
    EXPECT_NE(violations[0].message.find("does not exist"),
              std::string::npos)
        << violations[0].message;
}

TEST(LintTest, LayeringReportsTheFullIncludeChain)
{
    // The chain fixture's own include is same-subsystem; the breach is
    // transitive through the middle header, and the finding must spell
    // out all three hops, anchored at the first hop in each file.
    Linter linter = MakeLinter();
    std::string error;
    for (const char* name :
         {"src/cache/layer_chain.cc", "src/cache/layer_chain_mid.h"}) {
        ASSERT_TRUE(linter.AddFileFromDisk(FixturePath(name), &error))
            << error;
    }
    const std::vector<Violation> violations = linter.Analyze().violations;
    ASSERT_EQ(violations.size(), 2u);
    EXPECT_EQ(violations[0].file, "src/cache/layer_chain.cc");
    EXPECT_EQ(violations[0].rule, "layering");
    EXPECT_NE(
        violations[0].message.find(
            "src/cache/layer_chain.cc -> src/cache/layer_chain_mid.h"
            " -> src/runner/runner.h"),
        std::string::npos)
        << violations[0].message;
    EXPECT_EQ(violations[1].file, "src/cache/layer_chain_mid.h");
    EXPECT_EQ(violations[1].rule, "layering");
}

TEST(LintTest, IncludeCycleNamesEachWitness)
{
    // The fixture manifest declares both edges, so no include is out of
    // reach; a cyclic layering is still a finding.  It names the cycle
    // from its smallest member and the include that witnesses each edge,
    // anchored at the first witness's file.
    Linter linter;
    std::string error;
    ASSERT_TRUE(linter.LoadLayerManifest(
        FixturePath("include_cycle_layers.toml"), &error))
        << error;
    for (const char* name :
         {"src/mem/include_cycle.h", "src/pt/include_cycle.h"}) {
        ASSERT_TRUE(linter.AddFileFromDisk(FixturePath(name), &error))
            << error;
    }
    const std::vector<Violation> violations = linter.Analyze().violations;
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].file, "src/mem/include_cycle.h");
    EXPECT_EQ(violations[0].rule, "layering");
    EXPECT_EQ(violations[0].message,
              "subsystem include cycle: mem -> pt -> mem; "
              "src/mem/include_cycle.h includes src/pt/include_cycle.h; "
              "src/pt/include_cycle.h includes src/mem/include_cycle.h");
}

TEST(LintTest, NormalizePathKeepsRepoRelativeSuffix)
{
    EXPECT_EQ(NormalizePath("/root/repo/src/common/log.cc"),
              "src/common/log.cc");
    EXPECT_EQ(NormalizePath("/abs/build/../tools/spur_lint.cc"),
              "tools/spur_lint.cc");
    EXPECT_EQ(NormalizePath("tests/lint_fixtures/bench/no_session.cc"),
              "bench/no_session.cc");
    EXPECT_EQ(NormalizePath("tests/lint_fixtures/src/sweep/telemetry.cc"),
              "src/sweep/telemetry.cc");
    // No top-level marker: returned unchanged.
    EXPECT_EQ(NormalizePath("README.md"), "README.md");
}

TEST(LintTest, FormatViolationRendersFileLineRule)
{
    EXPECT_EQ(FormatViolation({"src/a.cc", 12, "no-rand", "boom"}),
              "src/a.cc:12: [no-rand] boom");
    EXPECT_EQ(FormatViolation({"src/a.cc", 0, "schema-version-once", "gone"}),
              "src/a.cc: [schema-version-once] gone");
}

TEST(LintTest, AddTreeSkipsFixturesAndDeduplicates)
{
    Linter linter;
    std::string error;
    const std::string tests_dir = std::string(SPUR_SOURCE_ROOT) + "/tests";
    ASSERT_TRUE(linter.AddTree(tests_dir, &error)) << error;
    const size_t after_tree = linter.file_count();
    EXPECT_GT(after_tree, 0u);
    // lint_fixtures is pruned from tree walks.
    for (const Violation& violation : linter.Analyze().violations) {
        ADD_FAILURE() << FormatViolation(violation);
    }
    // Adding the same tree again is a no-op (paths dedup on normalize).
    ASSERT_TRUE(linter.AddTree(tests_dir, &error)) << error;
    EXPECT_EQ(linter.file_count(), after_tree);
}

TEST(LintTest, RealTreeIsClean)
{
    // The CI gate, as a unit test: the entire repo must lint clean —
    // including the layering manifest and suppression hygiene.
    Linter linter = MakeLinter();
    std::string error;
    for (const char* dir :
         {"src", "tools", "bench", "examples", "tests"}) {
        ASSERT_TRUE(linter.AddTree(SourceRootPath(dir), &error)) << error;
    }
    EXPECT_GT(linter.file_count(), 100u);
    for (const Violation& violation : linter.Analyze().violations) {
        ADD_FAILURE() << FormatViolation(violation);
    }
}

TEST(LintTest, ManifestMatchesSourceTree)
{
    // A subsystem deleted from src/ must leave LAYERS.toml with it, and
    // a new one must be declared there: the layering pass alone checks
    // neither a stale entry nor one whose files are all gone.
    LayerManifest manifest;
    std::string error;
    ASSERT_TRUE(spur::lint::LoadLayerManifest(SourceRootPath("LAYERS.toml"),
                                              &manifest, &error))
        << error;
    std::set<std::string> declared;
    for (const auto& [subsystem, deps] : manifest.deps) {
        declared.insert(subsystem);
    }
    for (const char* shell : {"tools", "bench", "examples", "tests"}) {
        EXPECT_EQ(declared.erase(shell), 1u) << shell;
    }
    std::set<std::string> on_disk;
    for (const std::filesystem::directory_entry& entry :
         std::filesystem::directory_iterator(SourceRootPath("src"))) {
        if (entry.is_directory()) {
            on_disk.insert(entry.path().filename().string());
        }
    }
    EXPECT_EQ(declared, on_disk);
}

TEST(LintTest, FormatViolationJsonEscapesAndOrdersKeys)
{
    EXPECT_EQ(FormatViolationJson(
                  {"src/a.cc", 12, "no-rand", "say \"hi\""}),
              "{\"file\": \"src/a.cc\", \"line\": 12, "
              "\"rule\": \"no-rand\", \"message\": \"say \\\"hi\\\"\"}");
}

TEST(LintTest, SubsystemGraphMatchesGoldenDot)
{
    // The DOT rendering over a fixed fixture set is pinned byte-for-
    // byte so any formatting or ordering drift in `spur_lint graph`
    // shows up as a diff here first.
    Linter linter = MakeLinter();
    std::string error;
    for (const char* name :
         {"src/cache/layer_breach.cc", "src/cache/layer_chain.cc",
          "src/cache/layer_chain_mid.h", "unordered_violation.cc"}) {
        ASSERT_TRUE(linter.AddFileFromDisk(FixturePath(name), &error))
            << error;
    }
    const std::string golden_path =
        SourceRootPath("tests/golden/include_graph.dot");
    std::ifstream in(golden_path);
    ASSERT_TRUE(in.is_open()) << golden_path;
    std::stringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(linter.Analyze().subsystem_dot, golden.str());
}

TEST(LintTest, ReportInventoriesAllowSitesWithLiveness)
{
    // `spur_lint allows` renders from report.allows: every marker in
    // the set, sorted, each tagged live or dead.
    Linter linter = MakeLinter();
    std::string error;
    for (const char* name : {"dead_allow.cc", "suppressed_ok.cc"}) {
        ASSERT_TRUE(linter.AddFileFromDisk(FixturePath(name), &error))
            << error;
    }
    const LintReport report = linter.Analyze();
    ASSERT_EQ(report.allows.size(), 3u);
    EXPECT_EQ(report.allows[0].file, "tests/lint_fixtures/dead_allow.cc");
    EXPECT_EQ(report.allows[0].rule, "no-rand");
    EXPECT_FALSE(report.allows[0].used);
    EXPECT_EQ(report.allows[1].file,
              "tests/lint_fixtures/suppressed_ok.cc");
    EXPECT_EQ(report.allows[1].rule, "no-rand");
    EXPECT_TRUE(report.allows[1].used);
    EXPECT_EQ(report.allows[2].file,
              "tests/lint_fixtures/suppressed_ok.cc");
    EXPECT_EQ(report.allows[2].rule, "no-wallclock");
    EXPECT_TRUE(report.allows[2].used);
}

}  // namespace
