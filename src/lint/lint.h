/**
 * @file
 * spur_lint — whole-tree enforcement of the project's determinism and
 * architecture rules (DESIGN.md §13, §18).
 *
 * The repo's core contract is that every output byte is a pure function
 * of the configuration and seed: parallel runs must byte-match
 * sequential ones (DESIGN.md §9) and trace replays must byte-match live
 * runs (§19).  The per-file rules here reject the constructs that
 * historically break that contract — wall-clock reads, platform RNGs,
 * locale-dependent formatting, iteration over unordered containers in
 * output-feeding code — plus structural rules (a single schema_version
 * definition site, benches recording through BenchSession).
 *
 * On top of the per-file scan sit two cross-file passes:
 *
 *   layering           include reach vs the LAYERS.toml manifest, with
 *                      shortest witnessing chains (include_graph.h)
 *   dead-allow /       suppression hygiene: every allow() marker must
 *   allow-budget       suppress something, and each rule has a
 *                      tree-wide budget of suppression sites
 *
 * Rules that need C++ semantics are left to the toolchain: switch
 * coverage to -Wswitch under -Werror, lock discipline to clang's
 * -Wthread-safety, lock order to TSan (DESIGN.md §18).
 *
 * Any line-anchored finding can be suppressed at the site with a
 * justification comment on the same or the preceding line:
 *
 *     legacy_call();  // spur-lint: allow(no-wallclock) — measures only
 *
 * The tools/spur_lint CLI (check | graph | allows subcommands) drives
 * this library from explicit paths and directory trees, and exits
 * nonzero on violations so CI can gate on it.  tests/lint_test.cc runs
 * every rule against seeded fixture files and asserts the real tree is
 * clean.
 */
#ifndef SPUR_LINT_LINT_H_
#define SPUR_LINT_LINT_H_

#include <cstddef>
#include <string>
#include <vector>

namespace spur::lint {

/** One rule violation at a source location. */
struct Violation {
    std::string file;   ///< Repo-relative path (see NormalizePath).
    size_t line = 0;    ///< 1-based line; 0 = file/tree-level finding.
    std::string rule;   ///< Rule name, e.g. "no-rand".
    std::string message;
};

/** Name and one-line summary of one rule (for --list-rules). */
struct RuleInfo {
    std::string name;
    std::string summary;
};

/**
 * Every rule, in evaluation order — the single source the CLI help,
 * the DESIGN.md rule table (--list-rules --markdown) and the fixture
 * coverage test all render from.
 */
std::vector<RuleInfo> Rules();

/**
 * The tree-wide suppression budget of every rule: how many live
 * spur-lint: allow(rule) sites the tree may carry before each further
 * site becomes an allow-budget violation.  A budget keeps suppression
 * the exception: when legitimate sites accumulate, the rule's
 * whitelist is wrong and should be widened instead.
 */
inline constexpr size_t kAllowBudget = 2;

/** One spur-lint: allow(...) marker found in the tree. */
struct AllowSite {
    std::string file;  ///< Normalized path.
    size_t line = 0;   ///< 1-based line of the marker.
    std::string rule;  ///< The rule named inside allow(...).
    bool used = false; ///< True once the marker suppressed a finding.
};

/**
 * Normalizes an on-disk path to its repo-relative form by keeping
 * everything from the last path component that starts one of the
 * project's top-level source dirs (src/, tools/, bench/, examples/,
 * tests/).  Absolute paths and fixture paths like
 * tests/lint_fixtures/src/cache/x.cc thus map onto the path space the
 * rule whitelists and the layer manifest are written against.
 */
std::string NormalizePath(const std::string& path);

/** Everything one full analysis produced. */
struct LintReport {
    /// Sorted by (file, line, rule).
    std::vector<Violation> violations;
    /// Every allow() marker with its liveness, sorted by (file, line).
    std::vector<AllowSite> allows;
    /// The observed subsystem include graph in DOT form.
    std::string subsystem_dot;
};

/** Collects source files, then runs every rule over the set. */
class Linter
{
  public:
    /** Registers @p content as the file @p path (normalized). */
    void AddFile(const std::string& path, std::string content);

    /** Reads @p path from disk.  False + *error on I/O failure. */
    bool AddFileFromDisk(const std::string& path, std::string* error);

    /**
     * Recursively adds every *.h / *.cc under @p dir, in sorted order.
     * Skips hidden directories, build trees (build*) and the seeded
     * violation corpus (lint_fixtures); those fixtures are linted by
     * passing them as explicit files.  False + *error if @p dir is not
     * a readable directory.
     */
    bool AddTree(const std::string& dir, std::string* error);

    /**
     * Arms the layering pass with the manifest at @p path (LAYERS.toml
     * format).  Without a manifest, reachability is unchecked but
     * observed subsystem cycles are still violations.  False + *error
     * on I/O or parse failure.
     */
    bool LoadLayerManifest(const std::string& path, std::string* error);

    /** Number of registered files. */
    size_t file_count() const { return files_.size(); }

    /** Runs every pass over the registered files, in file order. */
    LintReport Analyze() const;

    /** Analyze().violations, for callers that only gate. */
    std::vector<Violation> Run() const;

  private:
    struct SourceFile {
        std::string path;  ///< Normalized.
        std::string content;
    };

    bool AlreadyAdded(const std::string& normalized) const;

    std::vector<SourceFile> files_;
    std::string layer_manifest_toml_;  ///< Raw content; empty = unset.
};

/** Renders @p rule as one row of the `--list-rules --markdown` table:
 *  "| `name` | summary |". */
std::string FormatRuleMarkdown(const RuleInfo& rule);

/** Renders @p violation as "file:line: [rule] message". */
std::string FormatViolation(const Violation& violation);

/** Renders @p violation as one flat JSON object (stable key order:
 *  file, line, rule, message). */
std::string FormatViolationJson(const Violation& violation);

}  // namespace spur::lint

#endif  // SPUR_LINT_LINT_H_
