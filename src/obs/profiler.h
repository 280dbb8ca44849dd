/**
 * @file
 * Lightweight scoped wall-time profiler for the simulator's hot paths
 * (DESIGN.md §9). Sites are declared in place:
 *
 *     void L2Cache::lookup(...) {
 *         CMPSIM_PROF_SCOPE("l2.lookup");
 *         ...
 *     }
 *
 * and accumulate (call count, total nanoseconds) into a process-wide
 * registry that the run report serializes, so a BENCH regression can
 * be attributed to "the event kernel got slower" vs "cache lookups
 * got slower" without re-running under an external profiler.
 *
 * Overhead discipline:
 *  - disabled (the default): each scope is one relaxed atomic load
 *    and a predictable branch — cheap enough for the event-kernel
 *    dispatch path (benchmarked in bench/micro_components.cc);
 *  - enabled (CMPSIM_PROF=1): two steady_clock reads per scope plus
 *    two relaxed atomic adds.
 *
 * Profiling never feeds back into simulated behaviour: timers only
 * observe wall time, so results are identical with it on or off (the
 * determinism gate runs either way).
 */

#ifndef CMPSIM_OBS_PROFILER_H
#define CMPSIM_OBS_PROFILER_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace cmpsim {

/** One instrumented site's accumulated totals. */
struct ProfSite
{
    explicit ProfSite(const char *site_name) : name(site_name)
    {
        profRegisterSite(*this);
    }

    const char *name;
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> total_ns{0};
    ProfSite *next = nullptr; ///< intrusive registry list

  private:
    static void profRegisterSite(ProfSite &site);
};

namespace detail {
extern std::atomic<bool> g_prof_enabled;
} // namespace detail

/** Whether scoped timers are currently recording. */
inline bool
profEnabled()
{
    return detail::g_prof_enabled.load(std::memory_order_relaxed);
}

/** Turn recording on/off (entry points arm it from CMPSIM_PROF). */
void setProfEnabled(bool on);

/** Snapshot of one site for reporting. */
struct ProfSample
{
    std::string name;
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
};

/** All sites with at least one recorded call, sorted by name. */
std::vector<ProfSample> profSnapshot();

/** Zero every site's accumulators (test isolation). */
void profReset();

/** RAII timer: charges the enclosing scope's wall time to @p site. */
class ScopedProf
{
  public:
    explicit ScopedProf(ProfSite &site)
        : site_(profEnabled() ? &site : nullptr)
    {
        if (site_ != nullptr)
            t0_ = std::chrono::steady_clock::now();
    }

    ~ScopedProf()
    {
        if (site_ == nullptr)
            return;
        const auto dt = std::chrono::steady_clock::now() - t0_;
        site_->calls.fetch_add(1, std::memory_order_relaxed);
        site_->total_ns.fetch_add(
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                    .count()),
            std::memory_order_relaxed);
    }

    ScopedProf(const ScopedProf &) = delete;
    ScopedProf &operator=(const ScopedProf &) = delete;

  private:
    ProfSite *site_;
    std::chrono::steady_clock::time_point t0_;
};

#define CMPSIM_PROF_CONCAT2(a, b) a##b
#define CMPSIM_PROF_CONCAT(a, b) CMPSIM_PROF_CONCAT2(a, b)
/**
 * Declare-and-time an instrumented scope. The site object is a
 * function-local static, so registration happens once on first
 * execution (thread-safe via magic statics).
 */
#define CMPSIM_PROF_SCOPE(name)                                       \
    static ::cmpsim::ProfSite CMPSIM_PROF_CONCAT(cmpsim_prof_site_,   \
                                                 __LINE__){name};     \
    ::cmpsim::ScopedProf CMPSIM_PROF_CONCAT(cmpsim_prof_scope_,       \
                                            __LINE__)(                \
        CMPSIM_PROF_CONCAT(cmpsim_prof_site_, __LINE__))

} // namespace cmpsim

#endif // CMPSIM_OBS_PROFILER_H
