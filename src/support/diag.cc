#include "support/diag.h"

#include <cstdio>
#include <cstdlib>

namespace dms {

std::string
vstrfmt(const char *fmt, va_list ap)
{
    // One pass into a stack buffer fits nearly every message; only
    // longer output is formatted again, straight into the string.
    char buf[512];
    va_list ap_copy;
    va_copy(ap_copy, ap);
    int n = std::vsnprintf(buf, sizeof buf, fmt, ap_copy);
    va_end(ap_copy);
    if (n < 0)
        return "<format error>";
    if (static_cast<size_t>(n) < sizeof buf)
        return std::string(buf, static_cast<size_t>(n));
    std::string out(static_cast<size_t>(n), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap);
    return out;
}

std::string
strfmt(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    return s;
}

namespace {

void
emit(const char *tag, const char *fmt, va_list ap)
{
    std::string msg = vstrfmt(fmt, ap);
    std::fprintf(stderr, "%s: %s\n", tag, msg.c_str());
}

} // namespace

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    emit("panic", fmt, ap);
    va_end(ap);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    emit("fatal", fmt, ap);
    va_end(ap);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    emit("warn", fmt, ap);
    va_end(ap);
}

void
inform(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    emit("info", fmt, ap);
    va_end(ap);
}

} // namespace dms
