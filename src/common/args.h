/**
 * @file
 * Minimal command-line flag parsing for the bench and example binaries.
 * Supports "--name=value", "--name value" and bare "--flag" booleans.
 */
#ifndef SPUR_COMMON_ARGS_H_
#define SPUR_COMMON_ARGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace spur {

/** Parsed command line. */
class Args
{
  public:
    Args(int argc, char** argv);

    /** True when --name was present (with or without a value). */
    bool Has(const std::string& name) const;

    /** String value of --name, or @p fallback. */
    std::string GetString(const std::string& name,
                          const std::string& fallback = "") const;

    /** Integer value of --name, or @p fallback. */
    int64_t GetInt(const std::string& name, int64_t fallback) const;

    /** Floating-point value of --name, or @p fallback. */
    double GetDouble(const std::string& name, double fallback) const;

    /** Positional (non-flag) arguments in order. */
    const std::vector<std::string>& positional() const
    {
        return positional_;
    }

    /** Program name (argv[0]). */
    const std::string& program() const { return program_; }

  private:
    std::string program_;
    std::map<std::string, std::string> flags_;
    std::vector<std::string> positional_;
};

// ---------------------------------------------------------------------------
// Flag helpers for the subcommand tools (spur_lint, spur_model,
// spur_trace).  Those tools mix flags with positional file arguments,
// so the Args class is a poor fit: its "--name value" form would swallow
// positionals.  They instead scan their argument list and classify each
// entry with the helpers below.
// ---------------------------------------------------------------------------

/**
 * True iff @p arg is "--<name>=..." or exactly "--<name>".  On a match,
 * *value receives the text after '=' (empty for the bare form).
 */
bool MatchFlag(const std::string& arg, const std::string& name,
               std::string* value);

/** True iff @p arg is a flag ("--...") rather than a positional; the
 *  bare "-" stdin convention is a positional. */
bool IsFlagArg(const std::string& arg);

/** Parses a strictly positive floating-point value; false on garbage,
 *  trailing junk, or a non-positive result. */
bool ParsePositiveDouble(const std::string& text, double* out);

/** Parses a non-negative decimal/hex/octal integer; false on garbage,
 *  trailing junk, or overflow. */
bool ParseUnsigned(const std::string& text, uint64_t* out);

// ---------------------------------------------------------------------------
// Unified --help / usage rendering.  Every subcommand tool (spur_lint,
// spur_model, spur_trace) declares its commands as data and renders
// them through FormatToolUsage, so flag docs line up the same
// way in every tool instead of each hand-wrapping its own string.
// ---------------------------------------------------------------------------

/** One documented flag of a subcommand. */
struct ToolFlag {
    std::string name;  ///< As typed, e.g. "--out=FILE".
    std::string doc;   ///< One-line description.
};

/** One subcommand of a tool. */
struct ToolCommand {
    std::string synopsis;  ///< E.g. "merge [options] FILE...".
    std::string summary;   ///< One-or-two-line description.
    std::vector<ToolFlag> flags;
};

/**
 * Renders the standard usage text: a "usage:" block listing every
 * synopsis, the overview, then one section per command with its
 * summary and aligned flag docs.
 */
std::string FormatToolUsage(const std::string& tool,
                            const std::string& overview,
                            const std::vector<ToolCommand>& commands);

}  // namespace spur

#endif  // SPUR_COMMON_ARGS_H_
