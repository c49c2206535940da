#ifndef DMS_SUPPORT_STRINGS_H
#define DMS_SUPPORT_STRINGS_H

/**
 * @file
 * Small string helpers used by config parsing and emitters.
 */

#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace dms {

/** Split on a delimiter; empty fields are preserved. */
std::vector<std::string> split(std::string_view s, char delim);

/** Join with a separator. */
std::string join(const std::vector<std::string> &parts,
                 std::string_view sep);

/** Strip leading/trailing ASCII whitespace. */
std::string trim(std::string_view s);

/** trim() without the copy: a view into @p s. */
std::string_view trimView(std::string_view s);

/**
 * Append the decimal form of @p v, right-aligned in @p width
 * characters with spaces like printf's "%*d" (no padding when the
 * number is wider). The printers' allocation-free integer path.
 */
void appendInt(std::string &out, long long v, int width = 0);

/** Append each part in turn: integers as by appendInt, characters
 *  and strings as they are. */
template <typename... Parts>
void
append(std::string &out, const Parts &...parts)
{
    const auto one = [&out](const auto &part) {
        using T = std::decay_t<decltype(part)>;
        if constexpr (std::is_integral_v<T> && !std::is_same_v<T, char>)
            appendInt(out, part);
        else
            out += part;
    };
    (one(parts), ...);
}

/**
 * Parse a non-negative integer; returns false on garbage. The
 * grammar is strtol's: surrounding whitespace and a leading '+' or
 * '-' are accepted ("-0" is 0), and an embedded NUL ends the number
 * as it ends a C string.
 */
bool parseInt(std::string_view s, int &out);

/**
 * Parse a possibly-negative integer; same strictness as parseInt
 * (no trailing garbage, no overflow). Used where the textual
 * formats carry signed values (memory offsets, const literals).
 */
bool parseSignedInt(std::string_view s, int &out);

/**
 * Checked integer environment knob: @p fallback when @p var is
 * unset; values that are not integers >= @p lo — garbage, trailing
 * junk, overflow, or too small — are rejected with a warning. The
 * strict-parse path every DMS_* knob goes through.
 */
int envInt(const char *var, int fallback, int lo = 1);

} // namespace dms

#endif // DMS_SUPPORT_STRINGS_H
