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
 *   spur_lint allows [--layers=FILE] [PATH...]
 *       Inventories every allow() suppression marker with its
 *       liveness, so reviews can see the whole budget spend.
 *
 *   spur_lint --list-rules [--markdown]
 *       Prints every rule name with its one-line summary; --markdown
 *       emits the table DESIGN.md §18 embeds.
 *
 * The flat form `spur_lint PATH...` behaves as `check`.  Each command
 * accepts only the flags listed for it, in the "--name=value" form
 * (src/common/args.h); anything else is a usage error, exit 2.
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
        {"allows [--layers=FILE] [PATH...]",
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

/** The flags @p command accepts (every command takes --layers). */
std::vector<spur::Flag>
CommandFlags(const std::string& command)
{
    std::vector<spur::Flag> flags = {{"layers", spur::FlagKind::kText}};
    if (command == "check") {
        flags.push_back({.name = "format",
                         .kind = spur::FlagKind::kText,
                         .choices = {"text", "json"}});
    } else if (command == "graph") {
        flags.push_back({"dot"});
    }
    return flags;
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
    const std::string first = (argc > 1) ? argv[1] : "";
    if (first.empty()) {
        return Usage();
    }
    if (first == "--list-rules") {
        const spur::Args args(argc, argv, {{"list-rules"}, {"markdown"}});
        return ListRules(args.Has("markdown"));
    }
    // The flat form `spur_lint PATH...` is `check`.
    const bool named =
        first == "check" || first == "graph" || first == "allows";
    const std::string command = named ? first : "check";
    const spur::Args args(argc, argv, CommandFlags(command),
                          /*max_positionals=*/SIZE_MAX,
                          /*first=*/named ? 2 : 1);
    if (args.positional().empty()) {
        return Usage();
    }

    spur::lint::Linter linter;
    std::string error;
    for (const std::string& path : args.positional()) {
        std::error_code ec;
        const bool ok = std::filesystem::is_directory(path, ec)
                            ? linter.AddTree(path, &error)
                            : linter.AddFileFromDisk(path, &error);
        if (!ok) {
            std::fprintf(stderr, "spur_lint: %s\n", error.c_str());
            return 2;
        }
    }
    std::string manifest = args.GetString("layers");
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

    if (command == "graph") {
        if (args.Has("dot")) {
            std::fputs(report.subsystem_dot.c_str(), stdout);
        }
        return 0;
    }

    if (command == "allows") {
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
    if (args.GetString("format", "text") == "json") {
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
