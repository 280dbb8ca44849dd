/**
 * @file
 * SamplingController (DESIGN.md §14): drives one statistical-sampling
 * plan over a CmpSystem — alternating functional fast-forward and
 * detailed (timed) measurement intervals — and records each
 * interval's cycles, instructions and compression ratio plus the
 * summed stat deltas of the detailed windows.
 */

#ifndef CMPSIM_SAMPLE_SAMPLING_CONTROLLER_H
#define CMPSIM_SAMPLE_SAMPLING_CONTROLLER_H

#include <cstdint>
#include <vector>

#include "src/common/stats.h"
#include "src/sample/sampling_plan.h"

namespace cmpsim {

class CmpSystem;

/** One closed detailed interval: its timed cycles, retired
 *  instructions and the L2 compression ratio at its end. */
struct IntervalSample
{
    double cycles = 0;
    double instructions = 0;
    double compression_ratio = 0;
};

/** Reduction of one completed sampling plan. */
struct SamplingResult
{
    unsigned intervals = 0;      ///< intervals measured
    std::uint64_t ff_instructions = 0; ///< all cores, all FF phases

    /** Totals across detailed intervals only (FF/drain excluded). */
    double detail_cycles = 0;
    double detail_instructions = 0;

    /** Per-interval mean / 95% CI of the compression ratio; n is
     *  the measured interval count. */
    SampleSummary compression_ratio;

    /** Summed per-interval stat deltas (counter deltas over exactly
     *  the detailed windows) for derived-metric extraction. */
    StatSnapshot totals;

    /** The raw per-interval samples. Because intervals are
     *  instruction-indexed, two runs differing only in architectural
     *  knobs measure the *same* workload windows — pairing samples[i]
     *  across configs cancels the phase noise that dominates unpaired
     *  CIs (DESIGN.md §14). */
    std::vector<IntervalSample> samples;
};

/** Drives config().sampling over one system. */
class SamplingController
{
  public:
    /** @p sys must have an armed config().sampling plan. */
    explicit SamplingController(CmpSystem &sys);

    /**
     * Execute the plan: for each of its max_intervals intervals,
     * fast-forward ff_per_core instructions per core, then
     * measureInterval().
     */
    SamplingResult run();

    /**
     * One plan step with the fast-forward phase already performed by
     * the caller (shared-prefix matrix studies, see MatrixSampler):
     * probe the interval fault site, then measure one detailed
     * interval of plan().detail_per_core instructions per core.
     */
    void measureInterval();

    /** Reduce the intervals measured so far (MatrixSampler's
     *  per-system result after it drives the plan itself). */
    SamplingResult finish() const { return reduce(); }

    const SamplingPlan &plan() const { return plan_; }

  private:
    /** Snapshot the baseline and open a detailed interval. */
    void beginInterval();

    /** Difference stats against the baseline, append the interval's
     *  sample, and accumulate the delta into the totals. */
    void closeInterval();

    SamplingResult reduce() const;

    CmpSystem &sys_;
    SamplingPlan plan_;

    /** The engine's instructionsAdvanced() when the controller was
     *  built; the fast-forward total is the growth since. */
    std::uint64_t ff_start_ = 0;

    /** Stat baseline at the open interval's start (valid only between
     *  beginInterval() and closeInterval()). */
    StatSnapshot baseline_;

    /** Accumulated per-interval stat deltas over closed intervals. */
    StatSnapshot detail_totals_;

    /** One sample per closed interval. */
    std::vector<IntervalSample> samples_;
};

} // namespace cmpsim

#endif // CMPSIM_SAMPLE_SAMPLING_CONTROLLER_H
