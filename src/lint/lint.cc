/**
 * @file
 * The linter orchestrator: file collection, the per-file scan phase,
 * and the cross-file passes (layering, suppression hygiene).  Per-file
 * rules live in rules.cc, the line scanning in cxx_scan.cc.
 */
#include "src/lint/lint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "src/lint/include_graph.h"
#include "src/lint/rules.h"
#include "src/stats/run_record.h"

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

}  // namespace

// ---------------------------------------------------------------------------
// File collection
// ---------------------------------------------------------------------------

std::string
NormalizePath(const std::string& path)
{
    static const char* kRoots[] = {"src/", "tools/", "bench/", "examples/",
                                   "tests/"};
    size_t best = std::string::npos;
    for (const char* root : kRoots) {
        size_t pos = 0;
        while ((pos = path.find(root, pos)) != std::string::npos) {
            if ((pos == 0 || path[pos - 1] == '/') &&
                (best == std::string::npos || pos > best)) {
                best = pos;
            }
            ++pos;
        }
    }
    if (best == std::string::npos || best == 0) {
        return path;
    }
    return path.substr(best);
}

void
Linter::AddFile(const std::string& path, std::string content)
{
    files_.push_back({NormalizePath(path), std::move(content)});
}

bool
Linter::AlreadyAdded(const std::string& normalized) const
{
    for (const SourceFile& file : files_) {
        if (file.path == normalized) {
            return true;
        }
    }
    return false;
}

bool
Linter::AddFileFromDisk(const std::string& path, std::string* error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error != nullptr) {
            *error = "cannot read " + path;
        }
        return false;
    }
    std::ostringstream content;
    content << in.rdbuf();
    AddFile(path, content.str());
    return true;
}

bool
Linter::AddTree(const std::string& dir, std::string* error)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) {
        if (error != nullptr) {
            *error = dir + " is not a directory";
        }
        return false;
    }
    std::vector<std::string> paths;
    fs::recursive_directory_iterator it(dir, ec);
    const fs::recursive_directory_iterator end;
    for (; it != end; it.increment(ec)) {
        if (ec) {
            if (error != nullptr) {
                *error = dir + ": " + ec.message();
            }
            return false;
        }
        const fs::path& path = it->path();
        const std::string name = path.filename().string();
        if (it->is_directory()) {
            // Skip build trees, hidden dirs and the seeded-violation
            // corpus (fixtures are linted as explicit files).
            if (StartsWith(name, "build") || StartsWith(name, ".") ||
                name == "lint_fixtures") {
                it.disable_recursion_pending();
            }
            continue;
        }
        if (EndsWith(name, ".cc") || EndsWith(name, ".h")) {
            paths.push_back(path.string());
        }
    }
    std::sort(paths.begin(), paths.end());
    for (const std::string& path : paths) {
        if (AlreadyAdded(NormalizePath(path))) {
            continue;
        }
        if (!AddFileFromDisk(path, error)) {
            return false;
        }
    }
    return true;
}

bool
Linter::LoadLayerManifest(const std::string& path, std::string* error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error != nullptr) {
            *error = "cannot read " + path;
        }
        return false;
    }
    std::ostringstream content;
    content << in.rdbuf();
    LayerManifest manifest;  // Parse now so errors surface at load time.
    if (!ParseLayerManifest(content.str(), &manifest, error)) {
        if (error != nullptr) {
            *error = path + ": " + *error;
        }
        return false;
    }
    layer_manifest_toml_ = content.str();
    return true;
}

// ---------------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------------

LintReport
Linter::Analyze() const
{
    std::vector<FileScan> scans;
    scans.reserve(files_.size());
    for (const SourceFile& file : files_) {
        scans.push_back(ScanSourceFile(file.path, file.content));
    }

    // Cross-file passes over the merged per-file results.
    LintReport report;
    std::map<std::string, size_t> scan_index;
    for (size_t i = 0; i < scans.size(); ++i) {
        scan_index[scans[i].path] = i;
        report.violations.insert(report.violations.end(),
                                 scans[i].violations.begin(),
                                 scans[i].violations.end());
    }
    const auto suppress = [&](const Violation& violation) {
        if (violation.line == 0) {
            return false;  // Tree-level findings have no site to mark.
        }
        const auto it = scan_index.find(violation.file);
        return it != scan_index.end() &&
               Suppress(scans[it->second], violation.line, violation.rule);
    };

    // schema-version-once, tree level: the home file was scanned but
    // holds no definition.
    for (const FileScan& scan : scans) {
        if (scan.is_schema_home && scan.schema_definitions == 0) {
            report.violations.push_back(
                {scan.path, 0, kSchemaVersionRule,
                 "kSchemaVersion definition missing from its single "
                 "allowed definition site"});
        }
    }

    // Layering: reachability against the manifest (when loaded), plus
    // observed subsystem cycles, which need no manifest to be wrong.
    IncludeGraph graph;
    for (const FileScan& scan : scans) {
        graph.AddFile(scan.path, scan.includes);
    }
    report.subsystem_dot = graph.ToDot();
    if (!layer_manifest_toml_.empty()) {
        LayerManifest manifest;
        std::string error;
        // Validated at load time; cannot fail here.
        ParseLayerManifest(layer_manifest_toml_, &manifest, &error);
        for (const Violation& violation : graph.CheckLayers(manifest)) {
            if (!suppress(violation)) {
                report.violations.push_back(violation);
            }
        }
    }
    for (const Violation& violation : graph.CheckCycles()) {
        if (!suppress(violation)) {
            report.violations.push_back(violation);
        }
    }

    // Suppression hygiene, last: every pass that could mark a site
    // used has run.  dead-allow and allow-budget findings are about
    // the markers themselves and are deliberately not suppressible.
    const std::set<std::string> known_rules = [] {
        std::set<std::string> names;
        for (const RuleInfo& rule : Rules()) {
            names.insert(rule.name);
        }
        return names;
    }();
    std::map<std::string, std::vector<const AllowSite*>> live_by_rule;
    for (const FileScan& scan : scans) {
        for (const AllowSite& site : scan.allows) {
            report.allows.push_back(site);
            if (site.used) {
                live_by_rule[site.rule].push_back(&site);
                continue;
            }
            const std::string reason =
                known_rules.count(site.rule) == 0
                    ? ") names a rule that does not exist"
                    : ") suppresses nothing on this or the next line";
            report.violations.push_back(
                {site.file, site.line, kDeadAllowRule,
                 "stale suppression: allow(" + site.rule + reason +
                     " — delete the marker"});
        }
    }
    for (const auto& [rule, sites] : live_by_rule) {
        for (size_t i = kAllowBudget; i < sites.size(); ++i) {
            report.violations.push_back(
                {sites[i]->file, sites[i]->line, kAllowBudgetRule,
                 "suppression site " + std::to_string(i + 1) + " of rule "
                 "'" + rule + "' exceeds its tree-wide budget of " +
                     std::to_string(kAllowBudget) +
                     "; widen the rule's whitelist instead of "
                     "accumulating markers"});
        }
    }

    std::sort(report.violations.begin(), report.violations.end(),
              [](const Violation& a, const Violation& b) {
                  if (a.file != b.file) {
                      return a.file < b.file;
                  }
                  if (a.line != b.line) {
                      return a.line < b.line;
                  }
                  return a.rule < b.rule;
              });
    std::sort(report.allows.begin(), report.allows.end(),
              [](const AllowSite& a, const AllowSite& b) {
                  if (a.file != b.file) {
                      return a.file < b.file;
                  }
                  return a.line < b.line;
              });
    return report;
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

std::string
FormatRuleMarkdown(const RuleInfo& rule)
{
    std::string out = "| `";
    out += rule.name;
    out += "` | ";
    out += rule.summary;
    out += " |";
    return out;
}

std::string
FormatViolation(const Violation& violation)
{
    // Built up with += (not operator+ chains): GCC 12's -Wrestrict
    // misfires on `const char* + string&&` (GCC PR 105329).
    std::string out = violation.file;
    if (violation.line > 0) {
        out += ":";
        out += std::to_string(violation.line);
    }
    out += ": [";
    out += violation.rule;
    out += "] ";
    out += violation.message;
    return out;
}

std::string
FormatViolationJson(const Violation& violation)
{
    std::string out = "{\"file\": \"";
    out += stats::JsonWriter::Escape(violation.file);
    out += "\", \"line\": ";
    out += std::to_string(violation.line);
    out += ", \"rule\": \"";
    out += stats::JsonWriter::Escape(violation.rule);
    out += "\", \"message\": \"";
    out += stats::JsonWriter::Escape(violation.message);
    out += "\"}";
    return out;
}

}  // namespace spur::lint
