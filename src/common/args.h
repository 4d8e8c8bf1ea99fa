/**
 * @file
 * The one command-line parser for the bench, example and tool binaries.
 *
 * Each binary (and each tool subcommand) declares the flags it accepts.
 * A value flag is written "--name=value", a switch is a bare "--name",
 * and any other word is a positional, accepted up to a declared count.
 * Anything else — an unknown flag, a value that does not fit its flag,
 * a bare value flag, a switch given a value, one positional too many —
 * is a usage error, which the exiting constructor names on stderr
 * before it exits 2.
 */
#ifndef SPUR_COMMON_ARGS_H_
#define SPUR_COMMON_ARGS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace spur {

/** How a flag takes its value. */
enum class FlagKind : uint8_t {
    kSwitch,    ///< Bare "--name"; takes no value.
    kUnsigned,  ///< "--name=N": ParseUnsigned, in [Flag::min, Flag::max].
    kPositive,  ///< "--name=F": ParsePositiveDouble.
    kText,      ///< "--name=TEXT": any text (or one of Flag::choices).
};

/** One flag a binary accepts. */
struct Flag {
    std::string name;  ///< Without the leading "--".
    FlagKind kind = FlagKind::kSwitch;
    uint64_t min = 0;           ///< kUnsigned only: smallest value accepted.
    uint64_t max = UINT64_MAX;  ///< kUnsigned only: largest value accepted.
    /// kText only: when non-empty, the only values accepted.
    std::vector<std::string> choices = {};
};

/** A command line parsed against the flags one binary accepts. */
class Args
{
  public:
    /**
     * Parses argv[first..argc) against @p flags, allowing at most
     * @p max_positionals positional words.  On a usage error, prints
     * "<argv[0..first)>: <error>" to stderr and exits 2.
     */
    Args(int argc, char** argv, std::vector<Flag> flags,
         size_t max_positionals = 0, int first = 1);

    /** Parses @p words as the constructor does; on a usage error
     *  returns nullopt and sets *error instead of exiting. */
    static std::optional<Args> Parse(const std::vector<std::string>& words,
                                     std::vector<Flag> flags,
                                     size_t max_positionals,
                                     std::string* error);

    /** True when --name was given. */
    bool Has(const std::string& name) const;

    /** Value of the kText flag --name, or @p fallback. */
    std::string GetString(const std::string& name,
                          const std::string& fallback = "") const;

    /** Value of the kUnsigned flag --name, or @p fallback. */
    uint64_t GetUnsigned(const std::string& name, uint64_t fallback) const;

    /** Value of the kPositive flag --name, or @p fallback. */
    double GetDouble(const std::string& name, double fallback) const;

    /** Positional (non-flag) arguments in order. */
    const std::vector<std::string>& positional() const { return positional_; }

  private:
    Args() = default;

    /** Reads @p words into this; returns the usage error, or "". */
    std::string Read(const std::vector<std::string>& words,
                     size_t max_positionals);

    /** The declared flag named @p name, or null. */
    const Flag* Find(const std::string& name) const;

    /** The value of declared flag @p name, or null when it was not
     *  given; Panic()s on an undeclared name. */
    const std::string* Value(const std::string& name) const;

    std::vector<Flag> flags_;
    std::map<std::string, std::string> values_;
    std::vector<std::string> positional_;
};

/** Parses a strictly positive, finite floating-point value; false on
 *  garbage, leading space, trailing junk, or a non-positive result. */
bool ParsePositiveDouble(const std::string& text, double* out);

/** Parses a non-negative decimal integer; false unless @p text starts
 *  with a digit, and on trailing junk (a hex "0x" included) or
 *  overflow.  Leading zeros are decimal: "010" is 10. */
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
