#include "src/common/log.h"

#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/common/sim_error.h"

namespace cmpsim {

namespace {
std::string
vformat(const char *fmt, std::va_list ap)
{
    std::va_list copy;
    va_copy(copy, ap);
    const int len = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    if (len <= 0)
        return {};
    std::string out(static_cast<std::size_t>(len), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap);
    return out;
}

std::string
fileLine(const char *file, int line)
{
    return std::string(file) + ":" + std::to_string(line);
}
} // namespace

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    // Throw instead of abort so the experiment layer can contain the
    // failed point (DESIGN.md §8); an uncaught panic still terminates
    // with the message via the default terminate handler.
    throw InvariantError(fileLine(file, line), msg);
}

void
assertFailImpl(const char *file, int line, const char *cond,
               const char *fmt, ...)
{
    std::fprintf(stderr, "panic: %s:%d: assertion failed: %s", file,
                 line, cond);
    if (fmt != nullptr) {
        std::fprintf(stderr, " — ");
        std::va_list ap;
        va_start(ap, fmt);
        std::vfprintf(stderr, fmt, ap);
        va_end(ap);
    }
    std::fprintf(stderr, "\n");
    std::abort();
}

} // namespace cmpsim
