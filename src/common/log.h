/**
 * @file
 * Minimal logging / fatal-error helpers (gem5-style fatal vs. panic).
 *
 * - Fatal():  the *user's* fault (bad configuration); exits with code 1.
 * - Panic():  the *simulator's* fault (broken invariant); aborts.
 * - Warn():   non-fatal status messages on stderr.
 *
 * All entry points are thread-safe: output is serialized by an internal
 * mutex so messages from parallel runner workers never interleave.
 */
#ifndef SPUR_COMMON_LOG_H_
#define SPUR_COMMON_LOG_H_

#include <string>

namespace spur {

/** Terminates with exit(1); use for invalid user configuration. */
[[noreturn]] void Fatal(const std::string& message);

/** Terminates with abort(); use for violated simulator invariants. */
[[noreturn]] void Panic(const std::string& message);

/** Prints a warning to stderr. */
void Warn(const std::string& message);

}  // namespace spur

#endif  // SPUR_COMMON_LOG_H_
