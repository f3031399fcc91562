/**
 * @file
 * Strict environment-variable parsing. Every knob the library reads
 * from the environment (UNIZK_THREADS, UNIZK_SIMD, ...) goes
 * through these helpers so malformed values are *rejected with a
 * warning* instead of silently mangled: bare strtoul() turns "8abc"
 * into 8, wraps "4294967297" on a narrowing cast, and accepts "-1" as
 * a huge positive. The semantics mirror CliOptions::getUint (trailing
 * junk, missing digits, sign, and range are all checked); the
 * difference is that a bad environment value warns and falls back to
 * the default instead of aborting, since the process may be a
 * long-running service that a stray shell export must not kill.
 */

#ifndef UNIZK_COMMON_ENV_H
#define UNIZK_COMMON_ENV_H

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>

namespace unizk {

/**
 * Parse the environment variable @p name as an unsigned integer in
 * [@p lo, @p hi]. Returns std::nullopt when the variable is unset, and
 * also (after a warn()) when the value has trailing junk, no digits, a
 * sign, or falls outside the range -- callers treat nullopt as "use
 * the default". Accepts the same bases as CliOptions::getUint
 * (decimal, 0x hex, 0 octal).
 */
std::optional<uint64_t> envUint(const char *name, uint64_t lo,
                                uint64_t hi);

/**
 * Parse the environment variable @p name as one of a closed set of
 * lowercase spellings (e.g. UNIZK_SIMD={auto,avx2,scalar}). Returns
 * the index of the matching entry in @p allowed, std::nullopt when
 * unset, or (after a warn() listing the accepted spellings) for any
 * unknown value -- callers treat nullopt as "use the default".
 */
std::optional<size_t> envChoice(const char *name,
                                std::initializer_list<const char *> allowed);

} // namespace unizk

#endif // UNIZK_COMMON_ENV_H
