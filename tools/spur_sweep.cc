/**
 * @file
 * Merge/validate tool for distributed sweep output (DESIGN.md §12).
 *
 *   spur_sweep validate FILE...
 *       Schema-checks each sweep JSON document (as written behind
 *       --json) and prints a one-line summary per file.  Exit 1 if any
 *       file fails.
 *
 *   spur_sweep merge [--out=FILE] [--strip-telemetry] FILE...
 *       Merges the shard files of one sweep into a single canonical
 *       document (see src/sweep/merge.h for the contract) and writes it
 *       to --out (default "-" = stdout).  A single input file is
 *       canonicalized in place, which is how CI byte-compares a merged
 *       N-shard sweep against a full single-process run.
 *
 *   spur_sweep diff-telemetry [--threshold=F] [--min-wall=S] BASE NEW
 *       Compares per-cell --telemetry cost (wall clock, peak RSS)
 *       between two sweep documents and reports cells that regressed
 *       by more than the threshold (default +25%).  Exit 1 when any
 *       cell regressed — advisory in CI (non-fatal step), since
 *       telemetry is machine-dependent.  See src/sweep/diff.h.
 *
 *   spur_sweep recover [--out=FILE] STREAM
 *       Turns a --stream file (src/sweep/stream.h) into a sweep JSON
 *       document on --out (default "-" = stdout).  A truncated stream —
 *       the file a killed run leaves behind — recovers every complete
 *       record as a partial document suitable for --resume; a stream
 *       with a verified trailer recovers the exact --json document.
 *       Corruption (anything truncation cannot explain) is a hard
 *       error, exit 1.
 *
 *   spur_sweep audit [--strict] FILE...
 *       Re-runs the MIN / NOREF dominance audits over the records of a
 *       (merged) sweep document — the post-hoc audit for sharded sweeps,
 *       which cannot run the in-process matrix audit.  Multiple FILEs
 *       are merged first.  Exit 1 on errors; with --strict, also on
 *       warnings.
 */
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/audit/doc_audit.h"
#include "src/common/args.h"
#include "src/stats/run_record.h"
#include "src/sweep/diff.h"
#include "src/sweep/merge.h"
#include "src/sweep/stream.h"

namespace {

using spur::IsFlagArg;
using spur::MatchFlag;
using spur::ParsePositiveDouble;
using spur::ToolCommand;
using spur::sweep::DiffOptions;
using spur::sweep::DiffTelemetry;
using spur::sweep::FormatDiffReport;
using spur::sweep::HasFatalRegressions;
using spur::sweep::HasRegressions;
using spur::sweep::LoadSweepFile;
using spur::sweep::MergeDocuments;
using spur::sweep::MergeOptions;
using spur::sweep::RecoveredStream;
using spur::sweep::RecoverStreamFile;
using spur::sweep::SweepDocument;
using spur::sweep::TelemetryDiff;
using spur::sweep::ValidateShardAccounting;

int
Usage()
{
    const std::vector<ToolCommand> commands = {
        {"validate FILE...",
         "schema-check sweep JSON documents (--json output) and their "
         "shard cell accounting",
         {}},
        {"merge [options] FILE...",
         "merge the shard files of one sweep into one canonical "
         "document (FILE may be '-' for stdin)",
         {{"--out=FILE", "write the merged document here (default '-')"},
          {"--strip-telemetry", "drop telemetry blocks while merging"}}},
        {"diff-telemetry [options] BASE NEW",
         "compare per-cell wall-clock/RSS telemetry between two "
         "documents; exit 1 on regressions",
         {{"--threshold=F", "regression fraction (default 0.25)"},
          {"--min-wall=S", "ignore cells faster than S seconds"},
          {"--fail-throughput=F",
           "CI perf gate: wall/RSS turn advisory; fail only when refs/s "
           "drops more than F below base"}}},
        {"recover [--out=FILE] STREAM",
         "turn a --stream file (possibly truncated by a crash) into a "
         "sweep document for --resume",
         {{"--out=FILE", "write the document here (default '-')"}}},
        {"audit [--strict] FILE...",
         "re-run MIN/NOREF dominance audits over (merged) document "
         "records; exit 1 on errors",
         {{"--strict", "also exit 1 on warnings"}}},
    };
    std::cerr << spur::FormatToolUsage(
        "spur_sweep",
        "Sweep document tool: validate, merge and audit distributed "
        "sweep output,\nand recover crashed --stream files.",
        commands);
    return 2;
}

/** Writes @p json to @p out_path ('-' = stdout); returns the exit code. */
int
WriteDocument(const std::string& json, const std::string& out_path)
{
    if (out_path == "-") {
        std::cout << json;
        return 0;
    }
    std::ofstream out(out_path, std::ios::binary);
    out << json;
    out.flush();
    if (!out) {
        std::cerr << "spur_sweep: failed to write " << out_path << "\n";
        return 1;
    }
    return 0;
}

int
Validate(const std::vector<std::string>& paths)
{
    int failures = 0;
    for (const std::string& path : paths) {
        std::string error;
        const std::optional<SweepDocument> document =
            LoadSweepFile(path, &error);
        if (!document) {
            std::cerr << "spur_sweep: " << path << ": " << error << "\n";
            ++failures;
            continue;
        }
        if (!ValidateShardAccounting(*document, &error)) {
            std::cerr << "spur_sweep: " << path << ": " << error << "\n";
            ++failures;
            continue;
        }
        std::cout << path << ": ok (schema v" << document->schema_version
                  << ", bench " << document->meta.bench << ", shard "
                  << document->meta.shard_index << "/"
                  << document->meta.shard_count << ", "
                  << document->records.size() << " records)\n";
    }
    return (failures > 0) ? 1 : 0;
}

int
Merge(const std::vector<std::string>& args)
{
    std::string out_path = "-";
    MergeOptions options;
    std::vector<std::string> paths;
    std::string value;
    for (const std::string& arg : args) {
        if (MatchFlag(arg, "out", &value)) {
            out_path = value;
        } else if (arg == "--strip-telemetry") {
            options.strip_telemetry = true;
        } else if (IsFlagArg(arg)) {
            std::cerr << "spur_sweep: unknown merge option '" << arg
                      << "'\n";
            return 2;
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.empty()) {
        return Usage();
    }

    std::vector<SweepDocument> documents;
    documents.reserve(paths.size());
    for (const std::string& path : paths) {
        std::string error;
        std::optional<SweepDocument> document = LoadSweepFile(path, &error);
        if (!document) {
            std::cerr << "spur_sweep: " << path << ": " << error << "\n";
            return 1;
        }
        documents.push_back(std::move(*document));
    }

    std::string error;
    const std::optional<SweepDocument> merged =
        MergeDocuments(std::move(documents), options, &error);
    if (!merged) {
        std::cerr << "spur_sweep: merge failed: " << error << "\n";
        return 1;
    }

    return WriteDocument(spur::sweep::ToJson(*merged), out_path);
}

int
Diff(const std::vector<std::string>& args)
{
    DiffOptions options;
    std::vector<std::string> paths;
    std::string value;
    for (const std::string& arg : args) {
        if (MatchFlag(arg, "threshold", &value)) {
            if (!ParsePositiveDouble(value, &options.threshold)) {
                std::cerr << "spur_sweep: bad --threshold value in '" << arg
                          << "'\n";
                return 2;
            }
        } else if (MatchFlag(arg, "min-wall", &value)) {
            if (!ParsePositiveDouble(value, &options.min_wall_seconds)) {
                std::cerr << "spur_sweep: bad --min-wall value in '" << arg
                          << "'\n";
                return 2;
            }
        } else if (MatchFlag(arg, "fail-throughput", &value)) {
            if (!ParsePositiveDouble(value,
                                     &options.throughput_threshold)) {
                std::cerr << "spur_sweep: bad --fail-throughput value in '"
                          << arg << "'\n";
                return 2;
            }
        } else if (IsFlagArg(arg)) {
            std::cerr << "spur_sweep: unknown diff-telemetry option '"
                      << arg << "'\n";
            return 2;
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.size() != 2) {
        return Usage();
    }

    std::vector<SweepDocument> documents;
    documents.reserve(2);
    for (const std::string& path : paths) {
        std::string error;
        std::optional<SweepDocument> document = LoadSweepFile(path, &error);
        if (!document) {
            std::cerr << "spur_sweep: " << path << ": " << error << "\n";
            return 2;
        }
        documents.push_back(std::move(*document));
    }

    const TelemetryDiff diff =
        DiffTelemetry(documents[0], documents[1], options);
    std::cout << FormatDiffReport(diff, options);
    // In gate mode only throughput drops fail the run — wall/RSS stay
    // advisory (printed above).  Without the gate, any regression fails.
    if (options.throughput_threshold > 0.0) {
        return HasFatalRegressions(diff) ? 1 : 0;
    }
    return HasRegressions(diff) ? 1 : 0;
}

int
Recover(const std::vector<std::string>& args)
{
    std::string out_path = "-";
    std::vector<std::string> paths;
    std::string value;
    for (const std::string& arg : args) {
        if (MatchFlag(arg, "out", &value)) {
            out_path = value;
        } else if (IsFlagArg(arg)) {
            std::cerr << "spur_sweep: unknown recover option '" << arg
                      << "'\n";
            return 2;
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.size() != 1) {
        return Usage();
    }

    std::string error;
    const std::optional<RecoveredStream> recovered =
        RecoverStreamFile(paths[0], &error);
    if (!recovered) {
        std::cerr << "spur_sweep: " << error << "\n";
        return 1;
    }
    std::cerr << "spur_sweep: " << paths[0] << ": " << recovered->note
              << "\n";

    return WriteDocument(spur::sweep::ToJson(recovered->document), out_path);
}

int
Audit(const std::vector<std::string>& args)
{
    bool strict = false;
    std::vector<std::string> paths;
    for (const std::string& arg : args) {
        if (arg == "--strict") {
            strict = true;
        } else if (IsFlagArg(arg)) {
            std::cerr << "spur_sweep: unknown audit option '" << arg
                      << "'\n";
            return 2;
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.empty()) {
        return Usage();
    }

    std::vector<SweepDocument> documents;
    documents.reserve(paths.size());
    for (const std::string& path : paths) {
        std::string error;
        std::optional<SweepDocument> document = LoadSweepFile(path, &error);
        if (!document) {
            std::cerr << "spur_sweep: " << path << ": " << error << "\n";
            return 1;
        }
        documents.push_back(std::move(*document));
    }
    std::optional<SweepDocument> merged = std::move(documents[0]);
    if (documents.size() > 1) {
        std::string error;
        merged = MergeDocuments(std::move(documents), MergeOptions{},
                                &error);
        if (!merged) {
            std::cerr << "spur_sweep: merge failed: " << error << "\n";
            return 1;
        }
    }

    const spur::check::AuditReport report =
        spur::audit::AuditSweepRecords(merged->records);
    std::cout << report.Summary();
    if (report.NumErrors() > 0) {
        return 1;
    }
    if (strict && report.NumWarnings() > 0) {
        return 1;
    }
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty()) {
        return Usage();
    }
    const std::string mode = args.front();
    const std::vector<std::string> rest(args.begin() + 1, args.end());
    if (mode == "validate") {
        if (rest.empty()) {
            return Usage();
        }
        return Validate(rest);
    }
    if (mode == "merge") {
        return Merge(rest);
    }
    if (mode == "diff-telemetry") {
        return Diff(rest);
    }
    if (mode == "recover") {
        return Recover(rest);
    }
    if (mode == "audit") {
        return Audit(rest);
    }
    return Usage();
}
