/**
 * @file
 * CLI driver for the determinism/architecture linter (src/lint/,
 * DESIGN.md §13 and §18).
 *
 *   spur_lint check [--layers=FILE] [--format=text|json] [PATH...]
 *       Runs every pass over every explicit source file argument and
 *       every *.h / *.cc found under directory arguments:
 *
 *           spur_lint check src tools bench examples tests
 *
 *       Prints one "file:line: [rule] message" per violation (or, with
 *       --format=json, a JSON array with one finding object per line —
 *       stable ordering, machine-diffable) and exits 1 when there is
 *       any, 0 on a clean tree, 2 on usage/IO errors.  Layering
 *       findings are violations like any other, so `check` is also the
 *       architecture gate.
 *
 *   spur_lint graph [--dot] [--layers=FILE] [PATH...]
 *       --dot prints the subsystem include graph in DOT form (pipe
 *       through `dot -Tsvg` to render).
 *
 *   spur_lint allows [PATH...]
 *       Inventories every allow() suppression marker with its
 *       liveness, so reviews can see the whole budget spend.
 *
 *   spur_lint --list-rules [--markdown]
 *       Prints every rule name with its one-line summary; --markdown
 *       emits the table DESIGN.md §18 embeds.
 *
 * The flat form `spur_lint PATH...` behaves as `check`.
 *
 * The layer manifest defaults to ./LAYERS.toml when present; pass
 * --layers=FILE to point elsewhere.  Without a manifest the layering
 * pass only reports observed subsystem cycles.
 */
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "src/common/args.h"
#include "src/lint/lint.h"

namespace {

constexpr char kDefaultManifest[] = "LAYERS.toml";

int
Usage()
{
    const std::vector<spur::ToolCommand> commands = {
        {"check [--layers=FILE] [--format=text|json] [PATH...]",
         "run every pass over source files and directory trees; exit 1 "
         "on violations",
         {{"--layers=FILE",
           "layer manifest (default: ./LAYERS.toml when present)"},
          {"--format=text|json",
           "violation rendering (json: one finding object per line, "
           "stable ordering)"}}},
        {"graph [--dot] [--layers=FILE] [PATH...]",
         "print the observed subsystem include graph (--dot)",
         {}},
        {"allows [PATH...]",
         "inventory every allow() suppression marker with its liveness",
         {}},
        {"--list-rules [--markdown]",
         "print every rule name with its one-line summary "
         "(--markdown: the DESIGN.md table)",
         {}},
    };
    std::cerr << spur::FormatToolUsage(
        "spur_lint",
        "Enforces the project's determinism and architecture rules "
        "(DESIGN.md §13, §18).",
        commands);
    return 2;
}

struct Options {
    std::string command = "check";
    std::string layers;
    std::string format = "text";
    bool dot = false;
    bool list_rules = false;
    bool markdown = false;
    std::vector<std::string> paths;
};

bool
ParseArgs(const std::vector<std::string>& args, Options* options)
{
    size_t first = 0;
    if (!args.empty() &&
        (args[0] == "check" || args[0] == "graph" || args[0] == "allows")) {
        options->command = args[0];
        first = 1;
    }
    std::string value;
    for (size_t i = first; i < args.size(); ++i) {
        const std::string& arg = args[i];
        if (spur::MatchFlag(arg, "layers", &value)) {
            options->layers = value;
        } else if (spur::MatchFlag(arg, "format", &value)) {
            if (value != "text" && value != "json") {
                std::fprintf(stderr,
                             "spur_lint: --format must be text or json\n");
                return false;
            }
            options->format = value;
        } else if (arg == "--dot") {
            options->dot = true;
        } else if (arg == "--list-rules") {
            options->list_rules = true;
        } else if (arg == "--markdown") {
            options->markdown = true;
        } else if (spur::IsFlagArg(arg)) {
            std::fprintf(stderr, "spur_lint: unknown option '%s'\n",
                         arg.c_str());
            return false;
        } else {
            options->paths.push_back(arg);
        }
    }
    return true;
}

int
ListRules(bool markdown)
{
    if (markdown) {
        std::printf("| Rule | Enforces |\n|------|----------|\n");
        for (const spur::lint::RuleInfo& rule : spur::lint::Rules()) {
            std::printf("%s\n",
                        spur::lint::FormatRuleMarkdown(rule).c_str());
        }
    } else {
        for (const spur::lint::RuleInfo& rule : spur::lint::Rules()) {
            std::printf("%-22s %s\n", rule.name.c_str(),
                        rule.summary.c_str());
        }
    }
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty()) {
        return Usage();
    }
    Options options;
    if (!ParseArgs(args, &options)) {
        return Usage();
    }
    if (options.list_rules) {
        return ListRules(options.markdown);
    }
    if (options.paths.empty()) {
        return Usage();
    }

    spur::lint::Linter linter;
    std::string error;
    for (const std::string& path : options.paths) {
        std::error_code ec;
        const bool ok = std::filesystem::is_directory(path, ec)
                            ? linter.AddTree(path, &error)
                            : linter.AddFileFromDisk(path, &error);
        if (!ok) {
            std::fprintf(stderr, "spur_lint: %s\n", error.c_str());
            return 2;
        }
    }
    std::string manifest = options.layers;
    if (manifest.empty()) {
        std::error_code ec;
        if (std::filesystem::is_regular_file(kDefaultManifest, ec)) {
            manifest = kDefaultManifest;
        }
    }
    if (!manifest.empty() &&
        !linter.LoadLayerManifest(manifest, &error)) {
        std::fprintf(stderr, "spur_lint: %s\n", error.c_str());
        return 2;
    }

    const spur::lint::LintReport report = linter.Analyze();

    if (options.command == "graph") {
        if (options.dot) {
            std::fputs(report.subsystem_dot.c_str(), stdout);
        }
        return 0;
    }

    if (options.command == "allows") {
        for (const spur::lint::AllowSite& site : report.allows) {
            std::printf("%s:%zu: allow(%s) — %s\n", site.file.c_str(),
                        site.line, site.rule.c_str(),
                        site.used ? "live" : "dead");
        }
        std::fprintf(stderr, "spur_lint: %zu suppression site(s) in %zu "
                     "files\n",
                     report.allows.size(), linter.file_count());
        return 0;
    }

    // check (default).
    if (options.format == "json") {
        std::printf("[");
        for (size_t i = 0; i < report.violations.size(); ++i) {
            std::printf(
                "%s%s", i == 0 ? "\n" : ",\n",
                spur::lint::FormatViolationJson(report.violations[i])
                    .c_str());
        }
        std::printf("%s]\n", report.violations.empty() ? "" : "\n");
    } else {
        for (const spur::lint::Violation& violation : report.violations) {
            std::printf("%s\n",
                        spur::lint::FormatViolation(violation).c_str());
        }
    }
    if (!report.violations.empty()) {
        std::fprintf(stderr, "spur_lint: %zu violation(s) in %zu files\n",
                     report.violations.size(), linter.file_count());
        return 1;
    }
    std::fprintf(stderr, "spur_lint: OK (%zu files clean)\n",
                 linter.file_count());
    return 0;
}
