/**
 * @file
 * The per-file rules: the table-driven token rules, the structural
 * special rules, and the allow() marker collection.  Cross-file passes
 * live in lint.cc (orchestration) and include_graph.cc.
 */
#include "src/lint/rules.h"

#include "src/lint/include_graph.h"

namespace spur::lint {

namespace {

bool
StartsWith(const std::string& text, const std::string& prefix)
{
    return text.rfind(prefix, 0) == 0;
}

bool
EndsWith(const std::string& text, const std::string& suffix)
{
    return text.size() >= suffix.size() &&
           text.compare(text.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

// ---------------------------------------------------------------------------
// Rule table
// ---------------------------------------------------------------------------

/** One token-scan rule: forbidden tokens outside whitelisted paths. */
struct TokenRule {
    const char* name;
    const char* summary;
    std::vector<const char*> tokens;
    /// Normalized path prefixes where the tokens are legitimate.
    std::vector<const char*> allowed_prefixes;
    const char* message;
};

const std::vector<TokenRule>&
TokenRules()
{
    // NOTE: this table spells the forbidden tokens out as literals, so
    // src/lint/ itself is exempted from scanning (see RuleExempt).
    static const std::vector<TokenRule> rules = {
        {"no-rand",
         "platform RNG primitives are forbidden; use the seeded spur::Rng",
         {"rand(", "srand(", "random_device", "random_shuffle", "mt19937"},
         {},
         "platform RNG breaks cross-machine reproducibility; use the "
         "seeded spur::Rng (src/common/random.h)"},
        {"no-wallclock",
         "wall-clock reads are confined to the telemetry layer",
         {"time(", "clock(", "system_clock", "steady_clock",
          "high_resolution_clock", "gettimeofday", "clock_gettime",
          "localtime", "gmtime", "strftime", "asctime", "ctime("},
         {"src/sweep/telemetry."},
         "wall-clock read outside the telemetry whitelist; results "
         "must depend only on config and seed"},
        {"no-locale",
         "locale-dependent formatting is forbidden",
         {"setlocale", "std::locale", "imbue(", "localeconv"},
         {},
         "locale-dependent formatting; output bytes must be identical on "
         "every machine"},
        {"no-raw-meta-bits",
         "packed cache-line meta bytes are decoded only by the "
         "LineRef/meta accessors in src/cache/cache.h",
         {"meta::kStateMask", "meta::kProtMask", "meta::kProtShift",
          "meta::kPageDirtyBit", "meta::kBlockDirtyBit"},
         {"src/cache/cache."},
         "raw meta-bit constant outside the cache layer; the packed "
         "layout is an implementation detail of src/cache/cache.h — go "
         "through LineRef/ConstLineRef, or justify the site with "
         "spur-lint: allow(no-raw-meta-bits)"},
    };
    return rules;
}

/** True when the per-file text rules do not apply to @p path at all. */
bool
RuleExempt(const std::string& path)
{
    // The lint layer itself names every forbidden token (and the allow
    // marker) in its rule table and its tests; scanning it would only
    // flag the scanner.  The include scan still runs — src/lint's own
    // includes obey the layer manifest like everyone else's.
    return StartsWith(path, "src/lint/") ||
           StartsWith(path, "tests/lint_test.");
}

bool
PathAllowed(const std::string& path,
            const std::vector<const char*>& prefixes)
{
    for (const char* prefix : prefixes) {
        if (StartsWith(path, prefix)) {
            return true;
        }
    }
    return false;
}

// ---------------------------------------------------------------------------
// Special rules
// ---------------------------------------------------------------------------

constexpr char kUnorderedRule[] = "no-unordered-output";
constexpr const char* kSchemaRule = kSchemaVersionRule;
constexpr const char* kSchemaHome = kSchemaVersionHome;
constexpr char kSessionRule[] = "bench-session";
constexpr char kHotPathRule[] = "no-virtual-in-hot-path";

/** Marker comment opting a file into the hot-path rule. */
constexpr char kHotPathMarker[] = "spur:hot-path";

/** True when any RAW line carries the hot-path marker (it lives in a
 *  comment, which StripComments would remove). */
bool
HasHotPathMarker(const std::vector<std::string>& raw_lines)
{
    for (const std::string& line : raw_lines) {
        if (line.find(kHotPathMarker) != std::string::npos) {
            return true;
        }
    }
    return false;
}

/** Headers whose inclusion marks a file as feeding JSON/table output. */
const std::vector<const char*>&
OutputHeaders()
{
    static const std::vector<const char*> headers = {
        "src/stats/run_record.h",
        "src/common/table.h",
        "src/runner/session.h",
        "src/sweep/",
    };
    return headers;
}

/** True when @p path / @p code feeds JSON or table output. */
bool
FeedsOutput(const std::string& path, const std::vector<std::string>& code)
{
    if (StartsWith(path, "src/stats/") || StartsWith(path, "src/sweep/") ||
        StartsWith(path, "tools/")) {
        return true;
    }
    for (const std::string& line : code) {
        if (line.find("#include") == std::string::npos) {
            continue;
        }
        for (const char* header : OutputHeaders()) {
            if (line.find(header) != std::string::npos) {
                return true;
            }
        }
    }
    return false;
}

/**
 * True when @p code holds a kSchemaVersion *definition* (the token
 * followed by a single '='), as opposed to a use of the constant.
 */
bool
IsSchemaVersionDefinition(const std::string& code)
{
    size_t pos = 0;
    const std::string token = "kSchemaVersion";
    while ((pos = code.find(token, pos)) != std::string::npos) {
        const bool boundary = pos == 0 || !IsIdentChar(code[pos - 1]);
        size_t after = pos + token.size();
        while (after < code.size() &&
               (code[after] == ' ' || code[after] == '\t')) {
            ++after;
        }
        if (boundary && after < code.size() && code[after] == '=' &&
            (after + 1 >= code.size() || code[after + 1] != '=')) {
            return true;
        }
        ++pos;
    }
    return false;
}

/** Files allowed to spell the "schema_version" JSON key literal. */
const std::vector<const char*>&
SchemaLiteralWhitelist()
{
    static const std::vector<const char*> allowed = {
        "src/stats/run_record.cc",  // The writer.
        "tests/",                   // Tests that pin the header bytes.
    };
    return allowed;
}

// ---------------------------------------------------------------------------
// Allow markers
// ---------------------------------------------------------------------------

constexpr char kAllowPrefix[] = "spur-lint: allow(";

/** Collects every allow() marker of @p raw_lines into @p scan. */
void
CollectAllowSites(const std::vector<std::string>& raw_lines, FileScan* scan)
{
    const std::string prefix = kAllowPrefix;
    for (size_t i = 0; i < raw_lines.size(); ++i) {
        size_t pos = 0;
        while ((pos = raw_lines[i].find(prefix, pos)) !=
               std::string::npos) {
            const size_t start = pos + prefix.size();
            const size_t close = raw_lines[i].find(')', start);
            if (close == std::string::npos) {
                break;
            }
            scan->allows.push_back(
                {scan->path, i + 1,
                 raw_lines[i].substr(start, close - start), false});
            pos = close + 1;
        }
    }
}

}  // namespace

bool
Suppress(FileScan& scan, size_t line, const std::string& rule)
{
    bool suppressed = false;
    for (AllowSite& site : scan.allows) {
        if (site.rule == rule &&
            (site.line == line || site.line + 1 == line)) {
            site.used = true;
            suppressed = true;
        }
    }
    return suppressed;
}

std::vector<RuleInfo>
Rules()
{
    std::vector<RuleInfo> rules;
    for (const TokenRule& rule : TokenRules()) {
        rules.push_back({rule.name, rule.summary});
    }
    rules.push_back({kUnorderedRule,
                     "no unordered containers in files that feed JSON or "
                     "table output (iteration order is unspecified)"});
    rules.push_back({kSchemaRule,
                     "kSchemaVersion is defined exactly once, in " +
                         std::string(kSchemaHome)});
    rules.push_back({kSessionRule,
                     "every bench main() records through "
                     "runner::BenchSession, not raw stdout"});
    rules.push_back({kHotPathRule,
                     "no virtual members in files marked // spur:hot-path "
                     "(the per-reference path is devirtualized)"});
    rules.push_back({kLayeringRule, kLayeringSummary});
    rules.push_back({kDeadAllowRule,
                     "every spur-lint: allow(...) marker suppresses a "
                     "finding; stale markers are deleted, not collected"});
    rules.push_back({kAllowBudgetRule,
                     "each rule has a tree-wide budget of live "
                     "suppression sites; beyond it, widen the rule's "
                     "whitelist instead of adding markers"});
    return rules;
}

FileScan
ScanSourceFile(const std::string& path, const std::string& content)
{
    FileScan scan;
    scan.path = path;
    const std::vector<std::string> raw = SplitLines(content);
    const std::vector<std::string> code = StripComments(raw);

    const bool exempt = RuleExempt(path);
    if (!exempt) {
        CollectAllowSites(raw, &scan);
    }

    // The include scan runs for every file, exempt or not: layer reach
    // is architecture, not style.
    scan.includes = ScanIncludes(code);

    scan.is_schema_home = path == kSchemaHome;
    if (exempt) {
        return scan;
    }

    // Token rules.
    for (const TokenRule& rule : TokenRules()) {
        if (PathAllowed(path, rule.allowed_prefixes)) {
            continue;
        }
        for (size_t i = 0; i < code.size(); ++i) {
            for (const char* token : rule.tokens) {
                if (!HasToken(code[i], token)) {
                    continue;
                }
                if (Suppress(scan, i + 1, rule.name)) {
                    break;
                }
                scan.violations.push_back(
                    {path, i + 1, rule.name,
                     std::string("'") + token + "': " + rule.message});
                break;  // One finding per rule per line.
            }
        }
    }

    // no-unordered-output.
    if (FeedsOutput(path, code)) {
        for (size_t i = 0; i < code.size(); ++i) {
            if (!HasToken(code[i], "unordered_map") &&
                !HasToken(code[i], "unordered_set")) {
                continue;
            }
            if (Suppress(scan, i + 1, kUnorderedRule)) {
                continue;
            }
            scan.violations.push_back(
                {path, i + 1, kUnorderedRule,
                 "unordered container in output-feeding code; "
                 "iteration order is unspecified, so JSON/table bytes "
                 "would vary by platform — use std::map or a sorted "
                 "vector"});
        }
    }

    // schema-version-once (per-file part; the missing-definition check
    // is tree-level and lives in lint.cc).
    for (size_t i = 0; i < code.size(); ++i) {
        if (IsSchemaVersionDefinition(code[i])) {
            if (scan.is_schema_home) {
                ++scan.schema_definitions;
                if (scan.schema_definitions > 1 &&
                    !Suppress(scan, i + 1, kSchemaRule)) {
                    scan.violations.push_back(
                        {path, i + 1, kSchemaRule,
                         "duplicate kSchemaVersion definition; the "
                         "schema version must have exactly one "
                         "definition site"});
                }
            } else if (!Suppress(scan, i + 1, kSchemaRule)) {
                scan.violations.push_back(
                    {path, i + 1, kSchemaRule,
                     std::string("kSchemaVersion defined outside ") +
                         kSchemaHome +
                         "; a second definition site lets the writer "
                         "and validator drift apart"});
            }
        }
        if (code[i].find("\"schema_version\"") != std::string::npos &&
            !PathAllowed(path, SchemaLiteralWhitelist()) &&
            !Suppress(scan, i + 1, kSchemaRule)) {
            scan.violations.push_back(
                {path, i + 1, kSchemaRule,
                 "\"schema_version\" key spelled outside the "
                 "writer; route document headers through "
                 "stats::JsonWriter"});
        }
    }

    // no-virtual-in-hot-path: files that opt in with the marker
    // comment went through devirtualization (compile-time policy
    // templates, member-fn-pointer dispatch); a virtual member
    // reintroduced there silently re-inserts an indirect call into
    // the per-reference loop.
    if (HasHotPathMarker(raw)) {
        for (size_t i = 0; i < code.size(); ++i) {
            if (!HasWord(code[i], "virtual")) {
                continue;
            }
            if (Suppress(scan, i + 1, kHotPathRule)) {
                continue;
            }
            scan.violations.push_back(
                {path, i + 1, kHotPathRule,
                 "'virtual' in a file marked // spur:hot-path; the "
                 "hot path is devirtualized (compile-time policy "
                 "templates, DESIGN.md §15) — dispatch statically, "
                 "move the type out of the marked file, or justify "
                 "the site with spur-lint: allow(...)"});
        }
    }

    // bench-session.
    if (StartsWith(path, "bench/") && EndsWith(path, ".cc")) {
        bool uses_session = false;
        for (const std::string& line : code) {
            if (HasToken(line, "BenchSession")) {
                uses_session = true;
                break;
            }
        }
        if (!uses_session) {
            for (size_t i = 0; i < code.size(); ++i) {
                if (!HasToken(code[i], "main(")) {
                    continue;
                }
                if (Suppress(scan, i + 1, kSessionRule)) {
                    continue;
                }
                scan.violations.push_back(
                    {path, i + 1, kSessionRule,
                     "bench defines main() without recording through "
                     "runner::BenchSession (src/runner/session.h); "
                     "raw-stdout benches write nothing to --json "
                     "and ignore --jobs"});
            }
        }
    }

    return scan;
}

}  // namespace spur::lint
