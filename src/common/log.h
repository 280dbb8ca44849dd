/**
 * @file
 * Error-reporting helpers in the spirit of gem5's logging.hh.
 *
 * panic()  - internal invariant violated; a cmpsim bug.
 *            Throws InvariantError (src/common/sim_error.h), so the
 *            experiment layer can contain one failed simulation point
 *            without killing a whole batch (DESIGN.md §8).
 *
 * A request for an impossible system throws ConfigError where it is
 * detected. cmpsim_assert() aborts: a tripped assertion means
 * in-memory state cannot be trusted enough to unwind.
 */

#ifndef CMPSIM_COMMON_LOG_H
#define CMPSIM_COMMON_LOG_H

#include <cstdarg>

namespace cmpsim {

[[noreturn]] void panicImpl(const char *file, int line, const char *fmt,
                            ...) __attribute__((format(printf, 3, 4)));

/** Failed-assertion reporter: prints the condition text plus an
 *  optional printf-formatted context message, then aborts. */
[[noreturn]] void assertFailImpl(const char *file, int line,
                                 const char *cond,
                                 const char *fmt = nullptr, ...)
    __attribute__((format(printf, 4, 5)));

} // namespace cmpsim

#define cmpsim_panic(...) \
    ::cmpsim::panicImpl(__FILE__, __LINE__, __VA_ARGS__)

/**
 * Assert a simulator invariant; active in all build types because
 * simulation bugs silently corrupt results.
 *
 * An optional printf-style message adds the offending values to the
 * report, e.g.
 *
 *     cmpsim_assert(when >= now_, "when=%llu now=%llu", when, now_);
 */
#define cmpsim_assert(cond, ...)                                          \
    do {                                                                  \
        if (!(cond)) {                                                    \
            ::cmpsim::assertFailImpl(__FILE__, __LINE__,                  \
                                     #cond __VA_OPT__(, ) __VA_ARGS__);   \
        }                                                                 \
    } while (0)

#endif // CMPSIM_COMMON_LOG_H
