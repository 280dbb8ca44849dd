/**
 * @file
 * FastForwardEngine (DESIGN.md §14): first-class functional execution
 * — every core advances its instruction stream updating cache,
 * directory and prefetcher-table state with no event timing. This
 * generalizes CmpSystem::warmup()'s inner loop into a budgeted mode
 * the sampling engine invokes between detailed intervals, with its
 * own fault site (sample.ff), deadline polling, stat counters and an
 * instruction-conservation audit.
 *
 * The engine must only run from a *quiesced* system (no pending
 * events): functional accesses evict cache lines, and a pending fill
 * completion holding a tag reference across an eviction would corrupt
 * the set. CmpSystem::fastForward() drains the event queue to
 * quiescence before delegating here.
 */

#ifndef CMPSIM_SAMPLE_FAST_FORWARD_H
#define CMPSIM_SAMPLE_FAST_FORWARD_H

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/stats.h"

namespace cmpsim {

class CoreModel;
class L2Cache;

/** Budgeted functional execution over all cores. */
class FastForwardEngine
{
  public:
    FastForwardEngine(std::vector<CoreModel *> cores, L2Cache &l2);

    /**
     * Advance every core @p instr_per_core instructions, interleaved
     * in chunks so the shared L2 sees a realistic access mix. The
     * last @p warm_per_core instructions (clamped; default the whole
     * budget) run in functional-warming mode updating cache and
     * prefetcher state; anything before runs in pure skip mode
     * (workload position and value store only — see
     * CoreModel::runSkip()). Probes faultSite("sample.ff") and the
     * point deadline once per chunk round.
     */
    void advance(std::uint64_t instr_per_core,
                 std::uint64_t warm_per_core =
                     ~static_cast<std::uint64_t>(0));

    /** Total instructions fast-forwarded (all cores, all calls). */
    std::uint64_t instructionsAdvanced() const
    {
        return instructions_.value();
    }

    /**
     * Account for a pure-skip budget a lockstep leader executed on
     * this system's behalf (CmpSystem::adoptSkip()). The cores'
     * retirement counters were copied to the post-skip values, so
     * both sides of the conservation audit grow by @p budget.
     */
    void
    noteAdopted(std::uint64_t budget)
    {
        instructions_ += budget;
        skip_instructions_ += budget;
        expected_ += budget;
        observed_ += budget;
    }

    /**
     * Conservation audit: across every advance() call, the cores'
     * retirement counters must have grown by exactly the budget
     * handed out — a functional loop that skips or double-counts
     * instructions would silently bias every sampled metric.
     */
    bool conserved(std::string &why) const;

    /** Register "prefix.ff_instructions" / "prefix.ff_chunks" /
     *  "prefix.ff_skip_instructions". */
    void registerStats(StatRegistry &reg, const std::string &prefix);

  private:
    /** Sum of every core's retirement counter. */
    std::uint64_t retiredTotal() const;

    std::vector<CoreModel *> cores_;
    L2Cache &l2_;
    Counter instructions_;      ///< budget handed out (all cores)
    Counter skip_instructions_; ///< pure-skip share of the budget
    Counter chunks_;            ///< interleave rounds executed
    std::uint64_t expected_ = 0; ///< cumulative budget (all cores)
    std::uint64_t observed_ = 0; ///< retirement growth across advances
};

} // namespace cmpsim

#endif // CMPSIM_SAMPLE_FAST_FORWARD_H
