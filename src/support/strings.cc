#include "support/strings.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <climits>
#include <cstdlib>

#include "support/diag.h"

namespace dms {

std::vector<std::string>
split(std::string_view s, char delim)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (true) {
        size_t pos = s.find(delim, start);
        if (pos == std::string_view::npos) {
            out.emplace_back(s.substr(start));
            break;
        }
        out.emplace_back(s.substr(start, pos - start));
        start = pos + 1;
    }
    return out;
}

std::string
join(const std::vector<std::string> &parts, std::string_view sep)
{
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
        if (i)
            out += sep;
        out += parts[i];
    }
    return out;
}

namespace {

bool
isSpace(char c)
{
    return std::isspace(static_cast<unsigned char>(c)) != 0;
}

/** strtol's decimal grammar over a view, range-checked to [lo, hi]. */
bool
parseIntIn(std::string_view s, long long lo, long long hi, int &out)
{
    std::string_view t = trimView(s);
    t = t.substr(0, t.find('\0'));
    size_t i = 0;
    const bool negative = !t.empty() && t[0] == '-';
    if (!t.empty() && (t[0] == '-' || t[0] == '+'))
        ++i;
    if (i == t.size())
        return false; // no digits
    // Saturate just past the int range so long inputs cannot wrap.
    constexpr long long kCap = static_cast<long long>(INT_MAX) + 2;
    long long v = 0;
    for (; i < t.size(); ++i) {
        if (t[i] < '0' || t[i] > '9')
            return false; // trailing garbage ("12x")
        v = std::min(v * 10 + (t[i] - '0'), kCap);
    }
    if (negative)
        v = -v;
    if (v < lo || v > hi)
        return false; // out of range
    out = static_cast<int>(v);
    return true;
}

} // namespace

std::string_view
trimView(std::string_view s)
{
    size_t b = 0;
    size_t e = s.size();
    while (b < e && isSpace(s[b]))
        ++b;
    while (e > b && isSpace(s[e - 1]))
        --e;
    return s.substr(b, e - b);
}

std::string
trim(std::string_view s)
{
    return std::string(trimView(s));
}

void
appendInt(std::string &out, long long v, int width)
{
    char buf[24];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    const auto n = static_cast<int>(r.ptr - buf);
    if (n < width)
        out.append(static_cast<size_t>(width - n), ' ');
    out.append(buf, r.ptr);
}

bool
parseInt(std::string_view s, int &out)
{
    return parseIntIn(s, 0, INT_MAX, out);
}

bool
parseSignedInt(std::string_view s, int &out)
{
    return parseIntIn(s, INT_MIN, INT_MAX, out);
}

int
envInt(const char *var, int fallback, int lo)
{
    const char *s = std::getenv(var);
    if (s == nullptr)
        return fallback;
    int v = 0;
    if (!parseSignedInt(s, v) || v < lo) {
        warn("%s='%s' is not an integer >= %d; using %d", var, s,
             lo, fallback);
        return fallback;
    }
    return v;
}

} // namespace dms
