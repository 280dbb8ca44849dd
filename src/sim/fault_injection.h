/**
 * @file
 * Deterministic fault-injection harness (DESIGN.md §8).
 *
 * A FaultPlan names simulator sites that should misbehave and when:
 *
 *     CMPSIM_FAULT=l2.fill:100            100th L2 fill throws
 *                                         (first attempt only)
 *     CMPSIM_FAULT=l2.fill:100:all:p1     ... on every attempt, but
 *                                         only for batch point 1
 *     CMPSIM_FAULT=core.stall:1:all:stall cores livelock instead of
 *                                         retiring (watchdog food)
 *     CMPSIM_FAULT=link.transfer:5,workload.gen:1   several at once
 *
 * Spec grammar, per comma-separated entry:
 *     site:nth[:field]...
 * where each optional field is one of
 *     <integer>  fail this many attempts (default 1 — transient;
 *                a retry succeeds), "all" = fail every attempt
 *     throw | stall   fault kind (default throw)
 *     p<N>       only batch point index N
 *     s<N>       only seed number N (1-based, as in config.seed)
 *
 * Plans are armed per thread and per task attempt (FaultArmGuard), so
 * hit counting is deterministic regardless of worker count: every
 * (point, seed, attempt) execution counts its own site hits from
 * zero. Probes are free when nothing is armed (one thread-local
 * pointer test).
 *
 * Known sites (kKnownSites in fault_injection.cc; parse() rejects any
 * other site with ConfigError): l2.fill (L2Cache::fill), link.transfer
 * (PriorityLink::send), workload.gen (SyntheticWorkload construction),
 * core.stall (CoreModel::tick, stall kind only), dram.access
 * (DramBackend::read — hit only when the banked backend is armed via
 * CMPSIM_DRAM; contains/retries like l2.fill), sample.ff (once per
 * fast-forward chunk) and sample.interval (once per sampled interval).
 *
 * The same file hosts the per-point wall-clock deadline
 * (CMPSIM_POINT_TIMEOUT): DeadlineGuard arms a thread-local deadline
 * and CmpSystem's run/warmup loops poll checkPointDeadline(), which
 * throws WatchdogTimeout once the deadline passes.
 */

#ifndef CMPSIM_SIM_FAULT_INJECTION_H
#define CMPSIM_SIM_FAULT_INJECTION_H

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace cmpsim {

/** What happens when a fault triggers. */
enum class FaultKind
{
    Throw, ///< throw InjectedFault at the site
    Stall, ///< latch a per-thread stall flag (cores stop retiring)
};

inline constexpr unsigned kFaultAllAttempts =
    std::numeric_limits<unsigned>::max();
inline constexpr std::size_t kFaultAnyPoint =
    std::numeric_limits<std::size_t>::max();
inline constexpr unsigned kFaultAnySeed =
    std::numeric_limits<unsigned>::max();

/** One "misbehave at site S, occurrence N" rule. */
struct FaultSpec
{
    std::string site;
    std::uint64_t nth = 1;       ///< 1-based hit that triggers
    unsigned fail_attempts = 1;  ///< attempts 1..k fire; kFaultAllAttempts
    FaultKind kind = FaultKind::Throw;
    std::size_t point = kFaultAnyPoint; ///< restrict to one batch point
    unsigned seed = kFaultAnySeed;      ///< restrict to one seed number
};

/** A parsed, immutable set of fault rules. */
class FaultPlan
{
  public:
    FaultPlan() = default;

    /** Parse @p spec (see grammar above); throws ConfigError on
     *  malformed input or an unknown site. Empty string yields an
     *  empty plan. */
    static FaultPlan parse(const std::string &spec);

    /** Plan from CMPSIM_FAULT (empty plan when unset/empty). */
    static FaultPlan fromEnv();

    bool empty() const { return specs_.empty(); }
    const std::vector<FaultSpec> &specs() const { return specs_; }

  private:
    std::vector<FaultSpec> specs_;
};

namespace detail {
struct ArmedFaults;
// constinit: both are constant-initialized, so the inline probes below
// read them directly instead of through a TLS init wrapper.
extern constinit thread_local ArmedFaults *tl_armed;
extern constinit thread_local bool tl_has_deadline;
void faultSiteSlow(const char *site);
bool faultStallSlow(const char *site);
void checkPointDeadlineSlow(const char *where);
} // namespace detail

/**
 * Arm @p plan on the current thread for one task attempt; disarms on
 * destruction. @p attempt is 1-based; @p point / @p seed identify the
 * executing task for p<N>/s<N> selectors (defaults match any).
 */
class FaultArmGuard
{
  public:
    FaultArmGuard(const FaultPlan &plan, unsigned attempt,
                  std::size_t point = kFaultAnyPoint,
                  unsigned seed = kFaultAnySeed);
    ~FaultArmGuard();

    FaultArmGuard(const FaultArmGuard &) = delete;
    FaultArmGuard &operator=(const FaultArmGuard &) = delete;
};

/** Throw-kind probe: count a hit of @p site; throws InjectedFault
 *  when an armed rule triggers. No-op when nothing is armed. */
inline void
faultSite(const char *site)
{
    if (detail::tl_armed != nullptr)
        detail::faultSiteSlow(site);
}

/** Stall-kind probe: count a hit of @p site and report whether a
 *  stall is latched on this thread (sticky for the rest of the
 *  attempt). Always false when nothing is armed. */
inline bool
faultStallActive(const char *site)
{
    return detail::tl_armed != nullptr && detail::faultStallSlow(site);
}

/**
 * Arm a wall-clock deadline for the current thread's task; disarms on
 * destruction. @p seconds <= 0 arms nothing (no deadline).
 */
class DeadlineGuard
{
  public:
    explicit DeadlineGuard(double seconds);
    ~DeadlineGuard();

    DeadlineGuard(const DeadlineGuard &) = delete;
    DeadlineGuard &operator=(const DeadlineGuard &) = delete;
};

/** Throw WatchdogTimeout (context @p where) if the armed deadline has
 *  passed. Free when no deadline is armed. */
inline void
checkPointDeadline(const char *where)
{
    if (detail::tl_has_deadline)
        detail::checkPointDeadlineSlow(where);
}

} // namespace cmpsim

#endif // CMPSIM_SIM_FAULT_INJECTION_H
