/**
 * @file
 * The one rule for unsigned integers that come from outside the
 * program (environment knobs, spec strings, command-line flags): plain
 * decimal digits only — no sign, no leading space or '+' — and a value
 * that fits the destination type. strtoull would accept "-1" (and
 * wrap it to the maximum) and a cast to a narrower type would drop
 * high bits silently; this returns nothing instead, and each caller
 * raises its own error kind and context.
 */

#ifndef CMPSIM_COMMON_PARSE_UNSIGNED_H
#define CMPSIM_COMMON_PARSE_UNSIGNED_H

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace cmpsim {

/** @p text as a T, or nullopt unless it is all decimal digits and at
 *  most std::numeric_limits<T>::max(). */
template <typename T>
std::optional<T>
parseUnsigned(std::string_view text)
{
    static_assert(std::is_unsigned_v<T>);
    T value{};
    const char *last = text.data() + text.size();
    // from_chars takes no sign for an unsigned T, skips no space and
    // reports overflow of T itself.
    const auto [end, ec] = std::from_chars(text.data(), last, value);
    if (ec != std::errc{} || end != last)
        return std::nullopt;
    return value;
}

} // namespace cmpsim

#endif // CMPSIM_COMMON_PARSE_UNSIGNED_H
