/**
 * @file
 * Chrome-trace-event tracer (DESIGN.md §9): records simulator events
 * into the JSON array format that chrome://tracing and Perfetto load
 * directly.
 *
 * Two timelines coexist in one file, separated by pid:
 *  - pid 0 "wall": wall-clock duration events (microseconds since the
 *    tracer opened) — warmup/measure phases, per-(point, seed) tasks
 *    in the parallel runner;
 *  - pid >= 1 "sim": simulated-cycle-stamped events (ts = cycle,
 *    rendered as if cycles were microseconds) — l2.fill,
 *    link.transfer, prefetch issue/fill/useless, watchdog
 *    diagnostics, and miss-journey async spans.
 *
 * Probes are inline and cost one relaxed atomic load plus a
 * predictable branch when no tracer is armed (benchmarked in
 * bench/micro_components.cc), so the instrumentation can live
 * permanently in the hot paths. Probes only
 * *read* simulator state — simulated results are byte-identical with
 * tracing on or off (tests/event_trace_test.cc proves it; the CI
 * determinism gate runs traced).
 *
 * Concurrency: one process-wide tracer may be armed; emission is
 * mutex-serialized, and each worker thread labels its events with the
 * (pid, tid) installed by TraceThreadScope, so parallel-runner points
 * land on separate tracks instead of interleaving.
 */

#ifndef CMPSIM_OBS_TRACE_H
#define CMPSIM_OBS_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>

#include "src/common/types.h"

namespace cmpsim {

/** One "key": value argument of a trace event. */
struct TraceArg
{
    TraceArg(const char *k, std::uint64_t v)
        : key(k), num(static_cast<double>(v)), is_string(false)
    {
    }
    TraceArg(const char *k, double v) : key(k), num(v), is_string(false)
    {
    }
    TraceArg(const char *k, const char *v)
        : key(k), str(v), is_string(true)
    {
    }

    const char *key;
    double num = 0.0;
    const char *str = "";
    bool is_string;
};

using TraceArgs = std::initializer_list<TraceArg>;

/** The wall-clock pseudo-process (phases, runner tasks). */
inline constexpr unsigned kTraceWallPid = 0;
/** Default simulated-cycles pseudo-process (single runs). */
inline constexpr unsigned kTraceSimPid = 1;

/** Collects trace events and streams them to a JSON file. */
class Tracer
{
  public:
    /** Open @p path for writing; throws ConfigError on failure. */
    explicit Tracer(const std::string &path);

    /** Closes the JSON array; disarms itself if still armed. */
    ~Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Make @p t the process-wide tracer (nullptr disarms). */
    static void arm(Tracer *t);

    /** The armed tracer, or nullptr. */
    static Tracer *armed();

    /** Microseconds of wall time since this tracer opened. */
    std::uint64_t nowWallUs() const;

    /** Instant event at simulated @p cycle on the caller's track. */
    void instant(const char *name, Cycle cycle, TraceArgs args = {});

    /** Complete (duration) event on the wall-clock timeline; the
     *  caller's TraceThreadScope tid separates concurrent tracks. */
    void completeWall(const char *name, std::uint64_t start_us,
                      std::uint64_t end_us, TraceArgs args = {});

    /** Name the pseudo-process @p pid in the trace viewer. */
    void processName(unsigned pid, const std::string &name);

    /** Name thread @p tid of pseudo-process @p pid (Perfetto renders
     *  the label instead of a bare tid). */
    void threadName(unsigned pid, unsigned tid,
                    const std::string &name);

    /** Open an async span ('b') at simulated @p cycle; @p id pairs it
     *  with the matching asyncEnd. Async spans may nest and overlap
     *  freely — Perfetto groups them by (name, id). */
    void asyncBegin(const char *name, Cycle cycle, std::uint64_t id,
                    TraceArgs args = {});

    /** Close the async span opened under the same (name, id). */
    void asyncEnd(const char *name, Cycle cycle, std::uint64_t id,
                  TraceArgs args = {});

    std::uint64_t eventsWritten() const { return events_; }
    const std::string &path() const { return path_; }

  private:
    void emit(const char *name, char phase, std::uint64_t ts,
              unsigned pid, unsigned tid, std::uint64_t dur,
              bool has_dur, bool instant_scope, TraceArgs args,
              std::uint64_t id = 0, bool has_id = false);

    std::string path_;
    std::ofstream out_;
    std::mutex mutex_;
    std::uint64_t events_ = 0;
    std::chrono::steady_clock::time_point epoch_;
};

/**
 * Installs the (pid, tid) the current thread stamps on simulated
 * events, so concurrent runner tasks trace onto separate tracks.
 * Restores the previous identity on destruction.
 */
class TraceThreadScope
{
  public:
    TraceThreadScope(unsigned pid, unsigned tid);
    ~TraceThreadScope();

    TraceThreadScope(const TraceThreadScope &) = delete;
    TraceThreadScope &operator=(const TraceThreadScope &) = delete;

  private:
    unsigned prev_pid_;
    unsigned prev_tid_;
};

namespace detail {
extern std::atomic<Tracer *> g_tracer;
} // namespace detail

/** Hot-path probe guard: true when a tracer is armed. */
inline bool
traceEnabled()
{
    return detail::g_tracer.load(std::memory_order_relaxed) != nullptr;
}

/** Instant-event probe; free when no tracer is armed. */
inline void
traceInstant(const char *name, Cycle cycle, TraceArgs args = {})
{
    if (Tracer *t = detail::g_tracer.load(std::memory_order_relaxed))
        t->instant(name, cycle, args);
}

/**
 * RAII helper for process entry points (CLI, determinism gate):
 * opens and arms a tracer writing to @p path, and closes it at scope
 * exit. Inert when @p path is empty.
 */
class TraceSession
{
  public:
    explicit TraceSession(const std::string &path);
    ~TraceSession();

    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;

    bool active() const { return tracer_ != nullptr; }
    Tracer *tracer() { return tracer_.get(); }

  private:
    std::unique_ptr<Tracer> tracer_;
};

} // namespace cmpsim

#endif // CMPSIM_OBS_TRACE_H
