/**
 * @file
 * Strict parsing of numeric command-line values.
 *
 * strtoul() accepts "-1" (wrapping it to a huge value), stops quietly
 * at "4x", and returns 0 for "abc", so a typo becomes a plausible
 * setting.  parseUnsignedFlag() accepts only plain decimal digits and
 * fatal()s otherwise.
 */

#ifndef OSCACHE_COMMON_ARGS_HH
#define OSCACHE_COMMON_ARGS_HH

#include <charconv>
#include <cstdint>
#include <limits>
#include <string>

#include "common/log.hh"

namespace oscache
{

/** Upper bound for --jobs: more threads than this is a typo. */
constexpr std::uint64_t maxJobs = 1024;

/**
 * Parse @p text, the value of option @p flag, as an unsigned decimal
 * in [@p min, @p max].  A sign, a non-digit, trailing text, overflow
 * or an out-of-range value is a user error: fatal() naming the flag.
 */
inline std::uint64_t
parseUnsignedFlag(const std::string &flag, const std::string &text,
                  std::uint64_t min = 0,
                  std::uint64_t max =
                      std::numeric_limits<std::uint64_t>::max())
{
    std::uint64_t value = 0;
    const char *first = text.data();
    const char *last = first + text.size();
    const auto [end, ec] = std::from_chars(first, last, value);
    if (text.empty() || ec != std::errc() || end != last)
        fatal(flag, " expects an unsigned integer, got '", text, "'");
    if (value < min || value > max)
        fatal(flag, " must be between ", min, " and ", max, ", got ",
              text);
    return value;
}

} // namespace oscache

#endif // OSCACHE_COMMON_ARGS_HH
