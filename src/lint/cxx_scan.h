/**
 * @file
 * The lightweight C++ token/scope model shared by every semantic lint
 * pass (DESIGN.md §18).
 *
 * This is deliberately not a parser: it is a tokenizer plus a scoped
 * scanner that tracks just enough structure — namespace/class/function/
 * lambda nesting, brace depth, qualified-identifier chains — to extract
 * the facts the cross-file passes need:
 *
 *   - #include directives            (layering pass, include_graph.h)
 *   - scoped-enum definitions and
 *     switch statements with labels  (exhaustive-switch pass)
 *   - nested lock acquisitions and
 *     condition waits                (lock-order pass, lock_order.h)
 *
 * Everything here errs on the side of *missing* a construct rather than
 * misreading one: a switch whose labels do not parse as Enum::Member is
 * skipped, a lock expression that cannot be normalized becomes a
 * function-local node that can never alias another function's locks.
 * The passes built on top inherit that conservatism — they only report
 * what the scan established positively.
 */
#ifndef SPUR_LINT_CXX_SCAN_H_
#define SPUR_LINT_CXX_SCAN_H_

#include <cstddef>
#include <string>
#include <vector>

namespace spur::lint {

// ---------------------------------------------------------------------------
// Line utilities (shared with the text rules in rules.cc)
// ---------------------------------------------------------------------------

/** Splits @p content into lines (newline characters removed). */
std::vector<std::string> SplitLines(const std::string& content);

/**
 * Removes // and block comments from @p lines (block state carries
 * across lines), leaving string and character literals intact.  String
 * state resets at end of line, which also self-heals the mis-detection
 * a digit separator like 1'000'000 causes.
 */
std::vector<std::string> StripComments(const std::vector<std::string>& lines);

/** True for [A-Za-z0-9_]. */
bool IsIdentChar(char c);

/**
 * True when @p text contains @p token starting at a word boundary (the
 * preceding character is not part of an identifier).  @p token may end
 * in punctuation — "time(" matches a bare call but not elapsed_time(.
 * When found, *column (if non-null) receives the 0-based offset.
 */
bool HasToken(const std::string& text, const std::string& token,
              size_t* column = nullptr);

/** True when @p text contains @p word with identifier boundaries on
 *  BOTH sides, so `virtual` does not match VirtualCache. */
bool HasWord(const std::string& text, const std::string& word);

// ---------------------------------------------------------------------------
// Tokens
// ---------------------------------------------------------------------------

/** One lexical token with its 1-based source line. */
struct Token {
    std::string text;
    size_t line = 0;
};

/**
 * Tokenizes comment-stripped code lines.  Qualified identifier chains
 * (`sim::TimeBucket::kCpu`, `::g_flag`) are single tokens; `->` is one
 * token; string and character literals collapse to `""` / `''` so their
 * contents can never fake code; preprocessor lines are dropped (use
 * CxxScan::includes for the #include facts).
 */
std::vector<Token> Tokenize(const std::vector<std::string>& code);

// ---------------------------------------------------------------------------
// Scan results
// ---------------------------------------------------------------------------

/** One `#include "..."` directive (quoted form only). */
struct IncludeDirective {
    size_t line = 0;   ///< 1-based.
    std::string path;  ///< As written, e.g. "src/cache/cache.h".
};

/** One scoped-enum definition (`enum class Name { ... }`). */
struct EnumDef {
    std::string name;  ///< Unqualified.
    std::vector<std::string> enumerators;
    size_t line = 0;
};

/** One switch statement and what its labels established. */
struct SwitchRecord {
    size_t line = 0;
    bool has_default = false;
    /// False when any label failed to parse as a qualified Enum::Member
    /// (numeric labels, unscoped enumerators): the pass must skip it.
    bool labels_parsed = true;
    std::vector<std::string> labels;  ///< Qualified, e.g. "Color::kRed".
};

/**
 * One observed lock-order edge: @c second was acquired (or waited on)
 * while @c first was held in the same function context.  Node ids are
 * normalized so the same lock names the same node across files:
 * globals and qualified names stay as written, members become
 * `Class::member`, and anything function-local becomes
 * `file:function:expr` (which can never alias across functions — the
 * model is intraprocedural by design, see DESIGN.md §18).
 */
struct LockEdge {
    std::string first;
    std::string second;
    std::string file;       ///< Normalized path of the witnessing site.
    size_t first_line = 0;  ///< Where @c first was acquired.
    size_t line = 0;        ///< Where @c second was acquired / waited on.
    std::string function;   ///< Enclosing function of the site.
    bool wait = false;      ///< Edge came from CondVar::Wait.
};

/** Everything one file contributes to the cross-file passes. */
struct CxxScan {
    std::vector<IncludeDirective> includes;
    std::vector<EnumDef> enums;
    std::vector<SwitchRecord> switches;
    std::vector<LockEdge> lock_edges;
};

/**
 * Runs the scoped scanner over one file.  @p path must already be
 * normalized (NormalizePath in lint.h); @p code must be the
 * comment-stripped lines of the file (StripComments).
 */
CxxScan ScanCxx(const std::string& path,
                const std::vector<std::string>& code);

}  // namespace spur::lint

#endif  // SPUR_LINT_CXX_SCAN_H_
