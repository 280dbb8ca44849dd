/**
 * @file
 * The paper's adaptive prefetching mechanism (Section 3): one
 * saturating counter per cache scales the number of startup prefetches
 * per stream, and disables prefetching for that cache at zero.
 *
 * Counter updates, driven by the owning cache:
 *  - cache hit on a line whose prefetch bit is set  -> useful, +1;
 *  - replacement of a line whose prefetch bit is still set
 *    (never referenced)                             -> useless, -1;
 *  - miss whose address matches a victim tag while the set holds any
 *    valid prefetched line (conservatively assume the line was pushed
 *    out by a prefetch)                             -> harmful, -1.
 *
 * Counters start at their maximum, so the system boots with full
 * Power4-style behaviour and throttles only on evidence.
 */

#ifndef CMPSIM_PREFETCH_ADAPTIVE_CONTROLLER_H
#define CMPSIM_PREFETCH_ADAPTIVE_CONTROLLER_H

#include <string>

#include "src/common/sat_counter.h"
#include "src/common/stats.h"

namespace cmpsim {

/** Per-cache adaptive prefetch throttle. */
class AdaptivePrefetchController
{
  public:
    /**
     * @param max_startup counter ceiling = the prefetcher's startup
     *        burst length (6 for L1, 25 for L2)
     * @param enabled when false, allowedStartup() always returns the
     *        ceiling (the paper's non-adaptive configurations)
     */
    AdaptivePrefetchController(unsigned max_startup, bool enabled)
        : counter_(max_startup), enabled_(enabled)
    {
    }

    /** Startup prefetches a newly allocated stream may launch now. */
    unsigned
    allowedStartup() const
    {
        return enabled_ ? counter_.value() : counter_.max();
    }

    bool adaptive() const { return enabled_; }

    /** A prefetched line was referenced: useful prefetch. */
    void
    onUsefulPrefetch()
    {
        ++useful_;
        if (enabled_)
            counter_.increment();
    }

    /** A never-referenced prefetched line was replaced: useless. */
    void
    onUselessPrefetch()
    {
        ++useless_;
        if (enabled_)
            counter_.decrement();
    }

    /** A miss matched a victim tag in a set holding prefetched lines:
     *  conservatively a harmful prefetch. */
    void
    onHarmfulPrefetch()
    {
        ++harmful_;
        if (enabled_)
            counter_.decrement();
    }

    unsigned counterValue() const { return counter_.value(); }

    std::uint64_t usefulCount() const { return useful_.value(); }
    std::uint64_t uselessCount() const { return useless_.value(); }
    std::uint64_t harmfulCount() const { return harmful_.value(); }

    void
    registerStats(StatRegistry &reg, const std::string &prefix)
    {
        reg.registerCounter(prefix + ".useful", &useful_);
        reg.registerCounter(prefix + ".useless", &useless_);
        reg.registerCounter(prefix + ".harmful", &harmful_);
    }

  private:
    SatCounter counter_;
    bool enabled_;
    Counter useful_;
    Counter useless_;
    Counter harmful_;
};

} // namespace cmpsim

#endif // CMPSIM_PREFETCH_ADAPTIVE_CONTROLLER_H
