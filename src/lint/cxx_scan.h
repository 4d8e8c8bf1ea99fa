/**
 * @file
 * The line-level C++ scanning shared by the lint rules (DESIGN.md §18):
 * line splitting, comment stripping, word-boundary token matching, and
 * the quoted-#include list the layering pass builds its graph from.
 *
 * This is deliberately not a parser.  Every rule built on it matches
 * tokens on comment-stripped lines; anything that needs real C++
 * semantics (switch coverage, lock discipline) is left to the compiler
 * (-Wswitch, -Wthread-safety) and TSan.
 */
#ifndef SPUR_LINT_CXX_SCAN_H_
#define SPUR_LINT_CXX_SCAN_H_

#include <cstddef>
#include <string>
#include <vector>

namespace spur::lint {

// ---------------------------------------------------------------------------
// Line utilities
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
 */
bool HasToken(const std::string& text, const std::string& token);

/** True when @p text contains @p word with identifier boundaries on
 *  BOTH sides, so `virtual` does not match VirtualCache. */
bool HasWord(const std::string& text, const std::string& word);

/** One `#include "..."` directive (quoted form only). */
struct IncludeDirective {
    size_t line = 0;   ///< 1-based.
    std::string path;  ///< As written, e.g. "src/cache/cache.h".
};

/**
 * Every quoted `#include` of @p code, the comment-stripped lines of one
 * file (StripComments).  <system> includes are skipped: they never
 * cross a subsystem boundary.
 */
std::vector<IncludeDirective> ScanIncludes(
    const std::vector<std::string>& code);

}  // namespace spur::lint

#endif  // SPUR_LINT_CXX_SCAN_H_
