#include "common/env.h"

#include <cerrno>
#include <cstdlib>
#include <string>
#include <string_view>

#include "common/logging.h"

namespace unizk {

std::optional<uint64_t>
envUint(const char *name, uint64_t lo, uint64_t hi)
{
    // getenv is only mt-unsafe against a concurrent setenv/putenv;
    // nothing in this process mutates the environment after startup.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char *env = std::getenv(name);
    if (env == nullptr)
        return std::nullopt;
    // strtoull itself accepts whitespace and sign characters ("-1"
    // wraps to a huge positive without setting errno); insist the value
    // starts with a digit so those never parse.
    if (env[0] < '0' || env[0] > '9') {
        warn("ignoring ", name, "='", env, "': expected an integer");
        return std::nullopt;
    }
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 0);
    if (errno == ERANGE) {
        warn("ignoring ", name, "='", env, "': value out of range");
        return std::nullopt;
    }
    if (end == env || *end != '\0') {
        warn("ignoring ", name, "='", env, "': expected an integer");
        return std::nullopt;
    }
    if (v < lo || v > hi) {
        warn("ignoring ", name, "='", env, "': must be in [", lo, ", ",
             hi, "]");
        return std::nullopt;
    }
    return static_cast<uint64_t>(v);
}

std::optional<size_t>
envChoice(const char *name, std::initializer_list<const char *> allowed)
{
    // Same contract as envUint: no setenv after startup, so the
    // lock-free read cannot race a writer.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char *env = std::getenv(name);
    if (env == nullptr)
        return std::nullopt;
    const std::string_view v(env);
    size_t index = 0;
    for (const char *candidate : allowed) {
        if (v == candidate)
            return index;
        ++index;
    }
    std::string spellings;
    for (const char *candidate : allowed) {
        if (!spellings.empty())
            spellings += '/';
        spellings += candidate;
    }
    warn("ignoring ", name, "='", env, "': expected one of ", spellings);
    return std::nullopt;
}

} // namespace unizk
